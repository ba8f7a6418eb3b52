"""The engine's selection, differentially checked against a full rescan.

``oracle_collect`` is the collector as it was before it became one pass:
every object's selector policy is evaluated afresh, every object's
reserved-id base is re-summed over all lower-numbered objects, and
run-to-completion filters the whole queue and keeps the first handler
event. ``oracle_run`` drives the step loop by hand on it and asks the
config's scheduler with every entry, so it asks every object on every
step. ``run`` keeps each object's offers between steps, re-asks only the
objects a step touched, and, for a bundled scheduler, picks from a heap of
each object's least offer, ordered by the scheduler's static order.

Stepping bundled, hand-written and random models under all four configs,
both must pick the same thread, reserve the same id for it and consume
the same event at every step, run the same ``(t, oid, tid, pc)`` sequence
and end with the same halt reason and structured final state. So must a
run resumed from a mid-run state. A scheduler with no static order must
also be handed the same entries and reserved ids.
Every thread must hold the method its operation dispatches to.

``run`` asks again only the objects a step touched, whatever the medium,
so the differential also runs under a wrapped ``deliver_reliable`` and
under ``drop_every_third``, a medium that loses events, and once under
``plain_reliable``, which hands back a plain dict that the run must own
again. Every medium is held on every call to the medium contract that
choice rests on: it writes only its event's receiver queue.

Of the threads of those objects, ``run`` applies the live-thread rule
again only to the one that acted and to the waiting threads of an object
whose queue changed. ``drop_oldest_return`` and ``reverse_queue`` keep
the medium contract but rewrite the receiver's whole queue, so the event
delivered does not name every thread whose liveness it changed; they run
over the bundled, fan-in and generated models, and over ``OUT_OF_ORDER``,
where returns reach one object's waiting threads in another order than
their calls went out.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from typing import NamedTuple

import pytest
from hypothesis import given, note, settings, strategies as st

from smm import (
    AllDone, Blocked, EventKind, ExecError, RunnableEntry, RunResult,
    StepLimit, ThreadStatus, build_config, build_initial_state,
    deliver_reliable, parse_model, print_model, render_final_state, run,
    run_model,
)
from smm.frontend import render_trace, trace_recorder
from smm.variation import VARIATION_POINTS, Least
import smm.vm
from smm.vm import step

from modelgen import random_model
from test_protocols import SELF_CALL

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
        return [] if s.cs.get(oid, {}) else pending[:1]
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
        for tid in sorted(s.cs.get(oid, {})):
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
            assert thr.meth is cfg.dispatcher(
                cfg.subclass_rel, cfg.meth_map, s.ds, oid,
                thr.meth.implements)


class Trace(NamedTuple):
    """What a run showed: at every step the scheduled ``(oid, tid)`` with
    the sequence number of the event a reserved ``tid`` stood for (None
    for a live thread), the ``(t, oid, tid, pc)`` of every step, and how
    it ended. A run through a scheduler with no static order also shows
    the scheduler's entries and the event (by sequence number) of each
    reserved id at every collection; ``offered`` is None otherwise."""

    picks: list
    steps: list
    outcome: tuple
    offered: list | None = None


def _seqs(reserved: dict) -> dict:
    return {tid: event.seq for tid, event in reserved.items()}


def plain_stores(s) -> bool:
    """Whether every store of ``s``, each thread map too, is a plain dict:
    what ``run`` returns and ``step`` on a plain state keeps."""
    return type(s.ds) is type(s.cs) is type(s.es) is dict and all(
        type(threads) is dict for threads in s.cs.values())


def _ended(result: RunResult) -> tuple:
    assert plain_stores(result.final)
    return ("result", render_final_state(result, "structured"),
            result.final)


def oracle_run(cfg, runnables: str, s, times=None, t: int = 0, *,
               max_steps: int = MAX_STEPS, receivers: set | None = None,
               until: int | None = None):
    """The step loop by hand, every object's offers collected afresh and
    ``cfg.scheduler`` asked with all of them.

    ``receivers`` collects, per step, how many objects had reserved ids.
    With ``until``, stop after that many steps and return the loop's
    ``(times, t, state)`` instead, for a run to resume from.
    """
    times = dict(times or {})
    picks, steps, offered = [], [], []

    def ended(outcome):
        return Trace(picks, steps, outcome, offered)

    while True:
        _check_frames(cfg, s)
        offers, reserved = oracle_collect(runnables, s)
        if receivers is not None:
            receivers.add(len({e.msg.receiver for e in reserved.values()}))
        if until is not None and len(steps) == until:
            return times, t, s
        if not offers:
            waiting = tuple((oid, tid) for oid in sorted(s.cs)
                            for tid in sorted(s.cs[oid])
                            if s.cs[oid][tid].status is ThreadStatus.WAITING)
            halt = Blocked(waiting) if waiting else AllDone()
            return ended(_ended(RunResult(s, t, halt)))
        if len(steps) == max_steps:
            return ended(_ended(RunResult(s, t, StepLimit())))
        entries = [RunnableEntry(oid, tid, prio, times.get(tid, -1))
                   for oid, tid, prio in offers]
        offered.append((entries, _seqs(reserved)))
        oid, tid = cfg.scheduler(t, entries)
        event = reserved.get(tid)
        picks.append((oid, tid, None if event is None else event.seq))
        try:
            s, pc, _, _ = step(s, cfg, oid, tid, event)
        except ExecError as err:
            return ended(("model-error", str(err)))
        steps.append((t, oid, tid, pc))
        times[tid] = t
        t += 1


def fast_run(cfg, s, times=None, t: int = 0, *, max_steps: int = MAX_STEPS,
             wrap: bool = False) -> Trace:
    """``run``, observed through its step hook and a recording
    ``vm.step``, which sees the event each pick consumes.

    With ``wrap``, the config's scheduler is wrapped, which leaves it no
    static order, and the entries and reserved ids the run hands it are
    recorded as well; the run must then collect every entry through
    ``vm.collect_runnables``. Without, it must select from its heap and
    never call that.
    """
    picks, steps, offered = [], [], []
    collect, step_ = smm.vm.collect_runnables, smm.vm.step
    collected = []

    def collect_runnables(*args):
        entries, reserved = collect(*args)
        collected.append(_seqs(reserved))
        return entries, reserved

    def scheduler(now, entries):
        offered.append((list(entries), collected[-1]))
        return cfg.scheduler(now, entries)

    def recorded_step(state, config, oid, tid, event=None):
        picks.append((oid, tid, None if event is None else event.seq))
        return step_(state, config, oid, tid, event)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smm.vm, "collect_runnables", collect_runnables)
        patch.setattr(smm.vm, "step", recorded_step)
        try:
            result = run(dict(times or {}), t,
                         dataclasses.replace(cfg, scheduler=scheduler)
                         if wrap else cfg, s,
                         max_steps=max_steps,
                         on_step=lambda now, oid, tid, pc, _action:
                         steps.append((now, oid, tid, pc)))
            outcome = _ended(result)
        except ExecError as err:
            outcome = ("model-error", str(err))
    assert bool(collected) == wrap, "the run took the other selection path"
    return Trace(picks, steps, outcome, offered if wrap else None)


def assert_same(fast: Trace, slow: Trace) -> None:
    """Equal traces; on a difference, name the first step it shows at."""
    if fast.offered is not None:
        for i, (a, b) in enumerate(zip(fast.offered, slow.offered)):
            assert a[0] == b[0], f"offers differ at step {i}"
            assert a[1] == b[1], f"reserved ids differ at step {i}"
        assert len(fast.offered) == len(slow.offered)
    for i, (a, b) in enumerate(zip(fast.picks, slow.picks)):
        assert a == b, f"pick {i} differs"
    for i, (a, b) in enumerate(zip(fast.steps, slow.steps)):
        assert a == b, f"step {i} differs"
    assert len(fast.picks) == len(slow.picks)
    assert len(fast.steps) == len(slow.steps)
    assert fast.outcome == slow.outcome


def keeping_the_contract(medium):
    """``medium``, checked on every call to keep the medium contract: the
    store it returns has the same ids as the one it was given, and every
    queue but the event's receiver's is the very object it was. Within a
    run the medium writes the store in place, so it is compared with a
    copy taken before the call."""

    def checked(es, event):
        before = dict(es)
        out = medium(es, event)
        assert out.keys() == before.keys(), \
            "the medium changed the object ids"
        assert all(out[oid] is queue for oid, queue in before.items()
                   if oid != event.msg.receiver), \
            "the medium wrote another object's queue"
        return out

    return checked


def _check_model(model, medium=None, *, wrap: bool = False,
                 max_steps: int = MAX_STEPS) -> set:
    receivers: set = set()
    for runnables, scheduler in CONFIGS:
        cfg = build_config(model, runnables=runnables, scheduler=scheduler)
        cfg = dataclasses.replace(
            cfg, medium=keeping_the_contract(medium or cfg.medium))
        s = build_initial_state(cfg, model.setup)
        slow = oracle_run(cfg, runnables, s, receivers=receivers,
                          max_steps=max_steps)
        assert_same(fast_run(cfg, s, wrap=wrap, max_steps=max_steps), slow)
    return receivers


def observed(sel, seen):
    """A selector of ``sel``'s class that calls ``seen(s, oid)`` on every
    ``pending_handler_events`` ask. ``run`` asks an object for its events
    whenever it takes in the object's offers, whatever the scheduler."""

    class Observed(type(sel)):
        def pending_handler_events(self, s, oid):
            seen(s, oid)
            return super().pending_handler_events(s, oid)

    return Observed()


def wrapped_reliable(es, event):
    """``deliver_reliable`` by another name: the same queues, but not the
    bundled medium itself."""
    return deliver_reliable(es, event)


def drop_every_third(es, event):
    """Drops every event whose sequence number is a multiple of 3 and
    delivers the rest: a medium that changes outcomes and still writes
    only the receiver's queue."""
    return es if event.seq % 3 == 0 else deliver_reliable(es, event)


def plain_reliable(es, event):
    """``deliver_reliable``, its result handed back as a plain dict, which
    a run must take ownership of again."""
    return dict(deliver_reliable(es, event))


def _check_media(model, **kwargs) -> set:
    """``_check_model`` under the bundled medium, a wrapped
    ``deliver_reliable`` and ``drop_every_third``. Returns the bundled
    medium's receiver counts."""
    receivers = _check_model(model, **kwargs)
    for medium in (wrapped_reliable, drop_every_third):
        _check_model(model, medium, **kwargs)
    return receivers


def test_bundled_models_match_the_oracle(prodcons_model, deadlock_model):
    _check_media(prodcons_model)
    _check_media(deadlock_model)


def test_fan_in_over_two_hubs_matches_the_oracle():
    model = parse_model(FAN)
    # Some step reserved ids on both hubs at once.
    assert max(_check_media(model)) == 2
    # Without interleaved handlers no update is lost: 4 adds and 4 notes
    # on h1, 4 adds and 8 notes on h2.
    result = run_model(model, runnables="rtc")
    assert [result.final.ds[h].attrs.get("total").value for h in (4, 5)] \
        == [0, -4]


# An object that signals itself three times, then handles the signals:
# every send's receiver is the acting object.
SELF_SIGNAL = """
class P { attr n: Int = 0; }

op P.tick(x: Int): Void {
  let d: Int = 0;
  let v: Int = 0;
  loadparam d x;
  loadattr v n;
  add v v d;
  setattr n v;
  return void;
}

op P.go(): Void {
  let me: P = null;
  loadattr me p;
  let one: Int = 1;
  let z: Int = 0;
  let k: Int = 3;
  let c: Bool = false;
loop:
  send me.tick(one) prio 2;
  sub k k one;
  eq c k z;
  ifnot c goto loop;
  return void;
}

setup {
  p: P active go prio 1 links [p];
}
"""


@pytest.mark.parametrize("text", [SELF_CALL, SELF_SIGNAL],
                         ids=["self-call", "self-signal"])
def test_an_object_that_sends_to_itself_matches_the_oracle(text):
    # The receiver a step reports is its own object, so the footprint is
    # that one object. Random models never link an object to itself.
    model = parse_model(text)
    step_, home = smm.vm.step, []

    def recorded(s, cfg, oid, tid, event=None):
        out = step_(s, cfg, oid, tid, event)
        home.append(out[3] == oid)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smm.vm, "step", recorded)
        _check_media(model)
    assert any(home)
    # Under rtc the self call waits behind its own caller for good, and
    # the oracle agreed on that outcome above.
    for scheduler in ("rr", "prio"):
        halt = run_model(model, runnables="rtc", scheduler=scheduler).halt
        assert halt == (Blocked(((0, 0),)) if text is SELF_CALL
                        else AllDone())


def _spread_model(hubs: int) -> str:
    """Senders interleaved with ``hubs`` passive hubs in the setup, each
    sender signalling every hub at its own priority: under ``prio`` the
    senders outrank the handlers, so events wait at many objects at once,
    and reserved ids are summed over hubs at scattered ids."""
    names = [f"h{j}" for j in range(hubs)]
    body = ["op Sender.go(): Void {\n  let one: Int = 1;\n"]
    body += [f"  let g{j}: Hub = null;\n  loadattr g{j} {name};\n"
             for j, name in enumerate(names)]
    body += [f"  send g{j}.note(one) prio {j * 7 % 5};\n"
             for j in range(hubs)]
    body.append("  return void;\n}\n")
    setup = []
    for i in range(hubs):
        setup.append(f"  h{i}: Hub passive;\n")
        if i % 2 == 0:
            setup.append(f"  s{i}: Sender active go prio {1000 + i} "
                         f"links [{', '.join(names)}];\n")
    return ("class Hub { attr total: Int = 0; }\nclass Sender { }\n"
            "op Hub.note(n: Int): Void {\n  let d: Int = 0;\n"
            "  let t: Int = 0;\n  loadparam d n;\n  loadattr t total;\n"
            "  add t t d;\n  setattr total t;\n  return void;\n}\n"
            + "".join(body) + "setup {\n" + "".join(setup) + "}\n")


def test_events_waiting_at_many_objects_match_the_oracle():
    # Some step reserved ids on all eleven hubs at once.
    model = parse_model(_spread_model(11))
    assert max(_check_media(model, max_steps=1000)) == 11
    result = run_model(model, max_steps=1000)
    assert result.halt == AllDone()
    assert [obj.attrs.get("total").value for obj in result.final.ds.values()
            if obj.class_name == "Hub"] == [6] * 11


def test_a_heap_rebuilt_on_every_step_matches_the_oracle(prodcons_model,
                                                        monkeypatch):
    # Stale items rarely pile up enough to make the heap rebuild itself;
    # rebuilt before every pick, it must pick the same.
    refresh = smm.vm._OfferHeap.refresh

    def rebuilding(heap, s, dirty):
        heap.limit = -1
        return refresh(heap, s, dirty)

    monkeypatch.setattr(smm.vm._OfferHeap, "refresh", rebuilding)
    _check_model(prodcons_model)
    _check_model(parse_model(FAN), drop_every_third)
    _check_model(parse_model(_spread_model(11)), max_steps=1000)


@pytest.mark.parametrize("seed", range(40))
def test_random_models_match_the_oracle(seed):
    _check_media(random_model(random.Random(655_000 + seed)))


@pytest.mark.parametrize("seed", range(20))
def test_multiple_inheritance_models_match_the_oracle(seed):
    # Every thread's method is checked against a dispatch along chains
    # through diamonds, where operations may have two methods.
    _check_media(random_model(random.Random(658_000 + seed), objects=4,
                                   supers=3))


@settings(max_examples=30, deadline=None)
@given(rng=st.randoms(use_true_random=False), objects=st.integers(1, 8))
def test_generated_models_match_the_oracle(rng, objects):
    # Hypothesis records the generator's draws, so a failure shrinks to a
    # smaller model, reported as text that ``smm run`` takes.
    model = random_model(rng, objects=objects)
    note(print_model(model))
    _check_model(model)


# --- custom strategies and resumed runs ----------------------------------

def test_a_scheduler_with_no_static_order_gets_every_entry(prodcons_model):
    # A wrapped bundled scheduler is asked with every entry, and sees the
    # entries and reserved ids the full rescan hands it.
    _check_model(prodcons_model, wrap=True)
    assert max(_check_model(parse_model(FAN), wrap=True)) == 2
    for seed in range(10):
        _check_model(random_model(random.Random(657_000 + seed)), wrap=True)
    _check_model(prodcons_model, drop_every_third, wrap=True)


def test_a_least_added_in_one_table_edit_runs_on_the_heap(
        monkeypatch, prodcons_model, deadlock_model):
    # A new static-order scheduler needs only its table entry: run picks by
    # its order and never calls it, with the outcome of the same scheduler
    # wrapped in a function, which run asks with every entry, and of the
    # oracle.
    monkeypatch.setitem(VARIATION_POINTS["scheduler"], "urgent",
                        Least(lambda prio, last_exec: (-prio, last_exec)))
    calls = []
    call = Least.__call__

    def counted(self, t, entries):
        calls.append(t)
        return call(self, t, entries)

    monkeypatch.setattr(Least, "__call__", counted)
    for model in (prodcons_model, deadlock_model):
        for runnables in ("rtc", "conc"):
            cfg = build_config(model, runnables=runnables,
                               scheduler="urgent")
            s = build_initial_state(cfg, model.setup)
            del calls[:]
            fast = fast_run(cfg, s)
            assert calls == []
            wrapped = fast_run(cfg, s, wrap=True)
            assert calls
            slow = oracle_run(cfg, runnables, s)
            assert_same(fast, slow)
            assert_same(wrapped, slow)


def test_a_medium_that_drops_events_matches_the_oracle():
    model = parse_model(FAN)
    for seed in range(20):
        _check_model(random_model(random.Random(656_000 + seed), objects=5),
                     medium=drop_every_third)
    # The medium did drop events: the hubs' totals differ from a reliable
    # run's [0, -4] (see the fan-in test above).
    cfg = dataclasses.replace(build_config(model, runnables="rtc"),
                              medium=drop_every_third)
    result = run({}, 0, cfg, build_initial_state(cfg, model.setup))
    assert [result.final.ds[h].attrs.get("total").value for h in (4, 5)] \
        != [0, -4]


def _outputs(model, runnables: str, scheduler: str, medium) -> tuple:
    """What ``run`` shows of ``model`` under ``medium``: its halt, time,
    both final state renderings and trace, or its error and trace."""
    cfg = dataclasses.replace(
        build_config(model, runnables=runnables, scheduler=scheduler),
        medium=medium)
    records: list = []
    try:
        result = run({}, 0, cfg, build_initial_state(cfg, model.setup),
                     max_steps=MAX_STEPS, on_step=trace_recorder(records))
    except ExecError as err:
        return str(err), render_trace(records)
    return (result.halt, result.time, render_final_state(result, "text"),
            render_final_state(result, "structured"), render_trace(records))


def test_a_medium_that_returns_a_plain_store_changes_nothing(
        prodcons_model, deadlock_model):
    # The run takes ownership of the plain store again after such a step.
    models = [prodcons_model, deadlock_model, parse_model(FAN)] + [
        random_model(random.Random(659_000 + seed)) for seed in range(10)]
    for model in models:
        _check_model(model, plain_reliable)
        for runnables, scheduler in CONFIGS:
            assert _outputs(model, runnables, scheduler, plain_reliable) == \
                _outputs(model, runnables, scheduler, deliver_reliable)


# --- waiting threads, and media that rewrite the receiver's queue --------

def drop_oldest_return(es, event):
    """Delivers ``event`` and drops the oldest other return its receiver
    had queued: the medium contract holds, but a thread whose return was
    buffered at the receiver is live no more, and the event delivered is
    not the one that changed that."""
    out = deliver_reliable(es, event)
    queue = out[event.msg.receiver]
    for i, e in enumerate(queue):
        if e.kind is EventKind.RETURN and e is not event:
            out[event.msg.receiver] = queue[:i] + queue[i + 1:]
            break
    return out


def reverse_queue(es, event):
    """Delivers ``event`` and reverses its receiver's queue: the medium
    contract holds, but the event delivered is not the receiver's last
    one whenever it had others queued."""
    out = deliver_reliable(es, event)
    out[event.msg.receiver] = out[event.msg.receiver][::-1]
    return out


# One desk object takes four requests at once under conc, and each of its
# handler threads waits on a call to one worker that spins as long as the
# request says, so the returns come back in another order than the calls
# went out, to threads of one object that are all waiting.
OUT_OF_ORDER = """
class Worker { }
class Desk { attr done: Int = 0; }
class Client { }

op Worker.spin(k: Int): Int {
  let n: Int = 0;
  loadparam n k;
  let one: Int = 1;
  let z: Int = 0;
  let c: Bool = false;
loop:
  sub n n one;
  eq c n z;
  ifnot c goto loop;
  loadparam n k;
  return n;
}

op Desk.ask(k: Int): Void {
  let w: Worker = null;
  loadattr w w;
  let d: Int = 0;
  loadparam d k;
  call w.spin(d) -> r;
  let t: Int = 0;
  loadattr t done;
  add t t r;
  setattr done t;
  return void;
}

op Client.go(): Void {
  let d: Desk = null;
  loadattr d desk;
  let a: Int = 9;
  let b: Int = 5;
  let c: Int = 2;
  send d.ask(a) prio 1;
  send d.ask(b) prio 1;
  send d.ask(c) prio 1;
  send d.ask(b) prio 1;
  return void;
}

setup {
  client: Client active go prio 3 links [desk];
  desk: Desk passive links [w];
  w: Worker passive;
}
"""


def test_returns_that_arrive_out_of_order_match_the_oracle():
    model = parse_model(OUT_OF_ORDER)
    for medium in (None, wrapped_reliable, drop_every_third,
                   drop_oldest_return, reverse_queue):
        _check_model(model, medium)
    # Under conc the desk holds all four handler threads waiting at once,
    # and the returns resume them in another order than their calls went
    # out.
    step_, waiting, resumed = smm.vm.step, [], []

    def recorded(s, cfg, oid, tid, event=None):
        waiting.append(sum(thr.status is ThreadStatus.WAITING
                           for thr in s.cs[1].values()))
        if oid == 1 and s.thread(1, tid) is not None and \
                s.thread(1, tid).status is ThreadStatus.WAITING:
            resumed.append(tid)
        return step_(s, cfg, oid, tid, event)

    for scheduler in ("rr", "prio"):
        waiting.clear()
        resumed.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(smm.vm, "step", recorded)
            result = run_model(model, runnables="conc", scheduler=scheduler)
        assert result.halt == AllDone()
        assert max(waiting) == 4
        assert len(resumed) == 4 and resumed != sorted(resumed)


@pytest.mark.parametrize("medium", [drop_oldest_return, reverse_queue])
def test_media_that_rewrite_the_receivers_queue_match_the_oracle(
        prodcons_model, deadlock_model, medium):
    # A step re-applies the live-thread rule to every waiting thread of
    # the receiver, not only to the one the event delivered names.
    for model in (prodcons_model, deadlock_model, parse_model(FAN),
                  parse_model(OUT_OF_ORDER)):
        _check_model(model, medium)
    for seed in range(20):
        _check_model(random_model(random.Random(661_000 + seed)), medium)
    for seed in range(10):
        _check_model(random_model(random.Random(662_000 + seed), objects=4,
                                  supers=3), medium)


def test_the_order_a_thread_map_holds_its_threads_in_does_not_matter():
    # A second setup thread in sender 0 has no recorded time, like the
    # first, so the two tie under either static order. The tie goes to
    # the smaller tid, as the oracle's sorted rescan has it, even when the
    # thread map holds the larger first.
    model = parse_model(FAN)
    for runnables, scheduler in CONFIGS:
        cfg = build_config(model, runnables=runnables, scheduler=scheduler)
        s = build_initial_state(cfg, model.setup)
        thread = s.cs[0][0]
        s = dataclasses.replace(
            s, cs={**s.cs, 0: {s.next_tid: thread, 0: thread}},
            next_tid=s.next_tid + 1)
        assert list(s.cs[0]) == [s.next_tid - 1, 0]
        for wrap in (False, True):
            assert_same(fast_run(cfg, s, wrap=wrap),
                        oracle_run(cfg, runnables, s))


def test_a_bundled_scheduler_needs_a_selector_with_the_base_call(
        prodcons_model):
    # The heap applies the live-thread rule itself, so it refuses a
    # selector whose own __call__ it would ignore; a scheduler with no
    # static order calls the selector and takes any.
    cfg = build_config(prodcons_model)
    s = build_initial_state(cfg, prodcons_model.setup)

    class Reversing(type(cfg.runnables_sel)):
        def __call__(self, state, oid):
            live, events = super().__call__(state, oid)
            return live[::-1], events

    def plain(state, oid):
        return cfg.runnables_sel(state, oid)

    for sel in (Reversing(), plain):
        with pytest.raises(TypeError, match="does not override __call__"):
            run({}, 0, dataclasses.replace(cfg, runnables_sel=sel), s)
        wrapped = dataclasses.replace(
            cfg, runnables_sel=sel,
            scheduler=lambda t, entries: cfg.scheduler(t, entries))
        assert run({}, 0, wrapped, s) == run({}, 0, cfg, s)


@pytest.mark.parametrize("until", [1, 7, 25, 60])
def test_a_resumed_run_matches_the_oracle(prodcons_model, until):
    for model in (parse_model(FAN), prodcons_model):
        for runnables, scheduler in CONFIGS:
            cfg = build_config(model, runnables=runnables,
                               scheduler=scheduler)
            s0 = build_initial_state(cfg, model.setup)
            times, t, s = oracle_run(cfg, runnables, s0, until=until)
            assert times and t == until
            assert_same(fast_run(cfg, s, times, t),
                        oracle_run(cfg, runnables, s, times, t))
            # No run records a time for an id not yet handed out, which
            # an offered event would take; a resumed run refuses one.
            times[s.next_tid] = t - 3
            with pytest.raises(ValueError, match="not handed out yet"):
                run(times, t, cfg, s)


# --- the cost guard -------------------------------------------------------

def _wide_model(pairs: int) -> str:
    """``pairs`` workers, each creating its own node and bumping it twice
    with a call and a signal per round: the objects barely interact."""
    out = ["class Node { attr count: Int = 0; }\n"
           "op Node.bump(x: Int): Int {\n"
           "  let d: Int = 0;\n  loadparam d x;\n  let v: Int = 0;\n"
           "  loadattr v count;\n  add v v d;\n  setattr count v;\n"
           "  return v;\n}\n"
           "class W { attr node: Node = null; }\n"
           "op W.go(): Void {\n"
           "  let n: Node = null;\n  new n Node;\n  setattr node n;\n"
           "  let one: Int = 1;\n  let z: Int = 0;\n  let k: Int = 2;\n"
           "  let c: Bool = false;\n"
           "loop:\n"
           "  call n.bump(one) -> r;\n  send n.bump(one) prio 2;\n"
           "  sub k k one;\n  eq c k z;\n  ifnot c goto loop;\n"
           "  return void;\n}\n"
           "setup {\n"]
    out += [f"  w{i}: W active go prio {1 + i % 4};\n" for i in range(pairs)]
    out.append("}\n")
    return "".join(out)


@pytest.mark.parametrize("medium", [None, wrapped_reliable])
@pytest.mark.parametrize("runnables", ["rtc", "conc"])
def test_a_step_asks_only_the_objects_it_touched(runnables, medium):
    # A medium that is not the bundled one itself costs no more asks.
    model = parse_model(_wide_model(64))
    cfg = build_config(model, runnables=runnables)
    if medium is not None:
        cfg = dataclasses.replace(cfg, medium=medium)
    calls = []
    counted = observed(cfg.runnables_sel, lambda _s, oid: calls.append(oid))
    s = build_initial_state(cfg, model.setup)
    result = run({}, 0, dataclasses.replace(cfg, runnables_sel=counted), s)
    assert result.halt == AllDone()
    assert len(result.final.ds) == 128
    # Every object once at the start, each new one once when it appears,
    # then at most the acting object and one receiver per step; a full
    # rescan would ask all 128 objects on every step.
    assert len(calls) <= len(s.ds) + (len(result.final.ds) - len(s.ds)) \
        + 2 * result.time


@pytest.mark.parametrize("runnables,scheduler", [("rtc", "rr"),
                                                 ("conc", "prio")])
def test_a_step_pushes_a_bounded_number_of_offers(runnables, scheduler):
    # 1,024 objects. A step puts one item, its least offer, into the heap
    # per touched object that offers anything: the acting object, whose
    # item usually replaces the stale top, and the receiver of the event
    # it sent. Pushing every offer again would take about 500 pushes per
    # step.
    model = parse_model(_wide_model(512))
    cfg = build_config(model, runnables=runnables, scheduler=scheduler)
    pushes, replaces = [], []

    def pushed(heap, item):
        pushes.append(item)
        heapq.heappush(heap, item)

    def replaced(heap, item):
        replaces.append(item)
        return heapq.heapreplace(heap, item)

    s = build_initial_state(cfg, model.setup)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smm.vm, "heappush", pushed)
        patch.setattr(smm.vm, "heapreplace", replaced)
        result = run({}, 0, cfg, s)
    assert result.halt == AllDone()
    assert len(result.final.ds) == 1024
    assert replaces, "no step swapped out the acting object's stale item"
    assert len(pushes) + len(replaces) <= \
        len(result.final.ds) + 2 * result.time


ALLOC_LOOP = """
class C { }
class M { }
op M.go(): Void {
  let x: C = null;
w:
  new x C;
  goto w;
}
setup { m: M active go prio 1; }
"""


@pytest.mark.parametrize("runnables,scheduler", [("rtc", "rr"),
                                                 ("conc", "prio")])
def test_an_allocation_loop_asks_the_acting_and_new_objects(runnables,
                                                            scheduler):
    # After the first step, which asks every object, a step asks the
    # acting object and each object it allocated, once: at most 2,
    # however many objects there are.
    model = parse_model(ALLOC_LOOP)
    cfg = build_config(model, runnables=runnables, scheduler=scheduler)
    asked: list[list[int]] = [[]]
    counted = observed(cfg.runnables_sel,
                       lambda _s, oid: asked[-1].append(oid))
    s = build_initial_state(cfg, model.setup)
    result = run({}, 0, dataclasses.replace(cfg, runnables_sel=counted), s,
                 max_steps=400, on_step=lambda *_: asked.append([]))
    assert result.halt == StepLimit()
    assert asked[0] == [0]
    allocated = len(result.final.ds) - len(s.ds)
    assert allocated == 200
    assert max(map(len, asked[1:])) == 2
    # Every step asks the acting object, and each new object is asked
    # once, in the step that allocated it.
    assert sorted(oid for each in asked[1:] for oid in each) == sorted(
        [0] * result.time + list(range(1, 1 + allocated)))


def _hub_model(senders: int, signals: int) -> str:
    """``senders`` senders, each sending ``signals`` signals to one
    passive hub, set up last, in straight-line code; a handler takes two
    steps. The senders outrank the signals under ``prio``, so under
    ``conc``/``prio`` every signal is sent, and then every one becomes a
    live handler thread before any handler takes its second step: the hub
    holds ``senders * signals`` live threads at once."""
    sends = "  send h.note(one) prio 0;\n" * signals
    setup = "".join(f"  s{i}: Sender active go prio 5000 links [hub];\n"
                    for i in range(senders))
    return ("class Hub { }\nclass Sender { }\n"
            "op Hub.note(x: Int): Void {\n  let d: Int = 0;\n"
            "  return void;\n}\n"
            "op Sender.go(): Void {\n  let h: Hub = null;\n"
            "  loadattr h hub;\n  let one: Int = 1;\n" + sends
            + "  return void;\n}\n"
            "setup {\n" + setup + "  hub: Hub passive;\n}\n")


HUB_SIZES = pytest.mark.parametrize("signals", [2, 64],
                                    ids=["8-threads", "256-threads"])


@HUB_SIZES
def test_a_busy_hub_matches_the_oracle(signals):
    _check_model(parse_model(_hub_model(4, signals)), max_steps=10**6)


@HUB_SIZES
def test_a_step_costs_the_same_whatever_the_threads_of_its_object(
        signals, monkeypatch):
    # The hub holds 8 live threads at once in one model and 256 in the
    # other. A step applies the live-thread rule to its acting thread
    # (and to waiting threads where a queue changed; here none wait) and
    # asks at most the acting object and one receiver for their events,
    # so the per-step work is the same at both sizes. A selector asked
    # for every thread of each touched object, as before, did work in
    # proportion to the hub's threads on every step the hub took.
    model = parse_model(_hub_model(4, signals))
    cfg = build_config(model, runnables="conc", scheduler="prio")
    hub = len(model.setup) - 1
    work: list[list[str]] = [[]]  # per refresh: "live" or "ask" per call
    live, step_, threads = smm.vm.is_live, smm.vm.step, []

    def counted(thr, tid, queue):
        work[-1].append("live")
        return live(thr, tid, queue)

    def recorded(s, config, oid, tid, event=None):
        out = step_(s, config, oid, tid, event)
        threads.append(len(out[0].cs[hub]))
        return out

    monkeypatch.setattr(smm.vm, "is_live", counted)
    monkeypatch.setattr(smm.vm, "step", recorded)
    sel = observed(cfg.runnables_sel, lambda _s, _oid: work[-1].append("ask"))
    s = build_initial_state(cfg, model.setup)
    result = run({}, 0, dataclasses.replace(cfg, runnables_sel=sel), s,
                 on_step=lambda *_: work.append([]))
    assert result.halt == AllDone()
    assert max(threads) == 4 * signals
    # The first refresh: every object asked, every sender's thread tried.
    assert sorted(work[0]) == ["ask"] * len(s.ds) + ["live"] * 4
    assert len(work) == result.time + 1
    assert max(each.count("live") for each in work[1:]) == 1
    assert max(each.count("ask") for each in work[1:]) == 2
