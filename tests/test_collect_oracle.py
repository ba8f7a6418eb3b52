"""One-pass runnable collection, differentially checked against a full rescan.

``oracle_collect`` is the collector as it was before it became one pass:
every object's reserved-id base is re-summed over all lower-numbered
objects, and run-to-completion filters the whole queue and keeps the first
handler event. Stepping bundled, hand-written and random models under all
four configs, every step must offer the same (oid, tid, prio) list and
reserve the same ids for the same events, every frame must hold the method
its operation dispatches to, and the hand-driven loop must end where
``run`` ends.
"""

from __future__ import annotations

import random

import pytest

from smm import (
    EventKind, ExecError, ThreadStatus, add_last_exec_info, build_config,
    build_initial_state, collect_runnables, parse_model, run_model,
)
from smm.vm import step

from modelgen import random_model

CONFIGS = [("rtc", "rr"), ("rtc", "prio"), ("conc", "rr"), ("conc", "prio")]
MAX_STEPS = 150

# Four senders signal and call two hubs. Under prio the senders outrank
# the handler events for a while, so both hubs buffer offered events at
# once; go is inherited, so dispatch walks a chain.
FAN = """
class Hub { attr total: Int = 0; }
class Base { }
class Sender extends Base { }

op Hub.add(n: Int): Int {
  let d: Int = 0;
  let t: Int = 0;
  loadparam d n;
  loadattr t total;
  add t t d;
  setattr total t;
  return t;
}

op Hub.note(n: Int): Void {
  let d: Int = 0;
  let t: Int = 0;
  loadparam d n;
  loadattr t total;
  sub t t d;
  setattr total t;
  return void;
}

op Base.go(): Void {
  let h: Hub = null;
  let g: Hub = null;
  let one: Int = 1;
  loadattr h h1;
  loadattr g h2;
  send h.note(one) prio 2;
  send g.note(one) prio 5;
  send g.note(one) prio 1;
  call h.add(one) -> r;
  call g.add(one) -> r;
  return void;
}

setup {
  s0: Sender active go prio 40 links [h1, h2];
  s1: Sender active go prio 43 links [h1, h2];
  s2: Sender active go prio 41 links [h1, h2];
  s3: Sender active go prio 42 links [h1, h2];
  h1: Hub passive;
  h2: Hub passive;
}
"""


def _oracle_pending(runnables: str, s, oid: int) -> list:
    pending = [e for e in s.es.get(oid, ())
               if e.kind in (EventKind.CALL, EventKind.SIGNAL)]
    if runnables == "rtc":
        return [] if s.threads_of(oid) else pending[:1]
    return pending


def oracle_collect(runnables: str, s):
    """Offers and reserved ids, each object's id base summed from scratch."""

    def pseudo_entries(oid):
        base = s.next_tid
        for other in sorted(s.ds):
            if other == oid:
                break
            base += len(_oracle_pending(runnables, s, other))
        return [(base + i, e)
                for i, e in enumerate(_oracle_pending(runnables, s, oid))]

    offers, reserved = [], {}
    for oid in sorted(s.ds):
        for tid in sorted(s.threads_of(oid)):
            thr = s.cs[oid][tid]
            if thr.status is ThreadStatus.READY or any(
                    e.kind is EventKind.RETURN and e.msg.sender_thread == tid
                    for e in s.es[oid]):
                offers.append((oid, tid, thr.base_prio))
        for tid, event in pseudo_entries(oid):
            offers.append((oid, tid, event.msg.payload.prio))
            reserved[tid] = event
    return offers, reserved


def _check_frames(cfg, s) -> None:
    for oid, threads in s.cs.items():
        for thr in threads.values():
            for frame in thr.frames:
                assert frame.meth is cfg.dispatcher(
                    cfg.subclass_rel, cfg.meth_map, s.ds, oid,
                    frame.meth.implements)


def _drive(model, runnables: str, scheduler: str, receivers: set):
    """Step by hand, checking every step; the run's outcome at the end.

    ``receivers`` collects, per step, how many objects had reserved ids.
    """
    cfg = build_config(model, runnables=runnables, scheduler=scheduler)
    s = build_initial_state(cfg, model.setup)
    times: dict[int, int] = {}
    t = 0
    while True:
        _check_frames(cfg, s)
        offers, reserved = collect_runnables(cfg.runnables_sel, s)
        assert (offers, reserved) == oracle_collect(runnables, s), f"step {t}"
        receivers.add(len({e.msg.receiver for e in reserved.values()}))
        if not offers or t == MAX_STEPS:
            return "result", s, t
        oid, tid = cfg.scheduler(t, add_last_exec_info(times, offers))
        try:
            s, _, _ = step(s, cfg, oid, tid, reserved.get(tid))
        except ExecError as err:
            return "model-error", str(err), t
        times[tid] = t
        t += 1


def _check_model(model) -> set:
    receivers: set = set()
    for runnables, scheduler in CONFIGS:
        outcome = _drive(model, runnables, scheduler, receivers)
        try:
            result = run_model(model, runnables=runnables,
                               scheduler=scheduler, max_steps=MAX_STEPS)
            expected = ("result", result.final, result.time)
        except ExecError as err:
            expected = ("model-error", str(err), outcome[2])
        assert outcome == expected, (runnables, scheduler)
    return receivers


def test_bundled_models_match_the_oracle(prodcons_model, deadlock_model):
    _check_model(prodcons_model)
    _check_model(deadlock_model)


def test_fan_in_over_two_hubs_matches_the_oracle():
    model = parse_model(FAN)
    # Some step reserved ids on both hubs at once.
    assert max(_check_model(model)) == 2
    # Without interleaved handlers no update is lost: 4 adds and 4 notes
    # on h1, 4 adds and 8 notes on h2.
    result = run_model(model, runnables="rtc")
    assert [result.final.ds[h].attrs.get("total").value for h in (4, 5)] \
        == [0, -4]


@pytest.mark.parametrize("seed", range(40))
def test_random_models_match_the_oracle(seed):
    _check_model(random_model(random.Random(655_000 + seed)))
