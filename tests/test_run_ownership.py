"""``run`` owns its stores: it writes them in place and stays a value outside.

On entry ``run`` copies the stores of the state it is given, each thread
map and each thread, into plain dicts of its own, which the ``state``
primitives and the actions write in place; at the halt it settles each
thread's locals back into a record. The pure path, ``step``, which copies
its state first, is the oracle (``test_collect_oracle`` compares the two
over the bundled and generated models). Here: the state a run was given,
and each of its threads, is never written, its result is a value that a
further run leaves alone, and all three stores keep one identity for a
whole run, so a step copies none of them: a consumed event replaces only
its object's queue. A thread is built only where an event is consumed. A
thread's locals are a dict the run writes in place, so a local write
builds no record. ``step`` writes neither the state it is given nor any
of its threads either.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest

from smm import (
    AllDone, ExecError, StepLimit, build_config, build_initial_state,
    collect_runnables, parse_model, run,
)
import smm.vm
from smm.actions import (
    BinOp, Call, LocalConst, LocalFromAttr, LocalFromParam, NewLocal,
    NewObject, ReturnConst, SendSignal, SetAttr,
)
from smm.state import RecordVal, SimState, Thread, ThreadStatus
from smm.vm import step

from conftest import CONFIGS
from modelgen import random_model
from test_collect_oracle import (
    ALLOC_LOOP, FAN, _wide_model, plain_reliable, plain_stores,
)


def _models(prodcons_model, deadlock_model):
    return [prodcons_model, deadlock_model, parse_model(FAN)] + [
        random_model(random.Random(660_000 + seed)) for seed in range(10)]


def _times(steps: list) -> dict:
    """The ``times`` map a run kept, from its ``(t, oid, tid)`` steps: each
    thread's last step. Ended threads may stay, as their ids never come
    back."""
    return {tid: t for t, _oid, tid in steps}


def test_run_leaves_the_state_it_was_given_unchanged(prodcons_model,
                                                     deadlock_model):
    for model in _models(prodcons_model, deadlock_model):
        for runnables, scheduler in CONFIGS:
            for medium in (None, plain_reliable):
                cfg = build_config(model, runnables=runnables,
                                   scheduler=scheduler)
                if medium is not None:
                    cfg = dataclasses.replace(cfg, medium=medium)
                s = build_initial_state(cfg, model.setup)
                snapshot = copy.deepcopy(s)
                try:
                    run({}, 0, cfg, s, max_steps=200)
                except ExecError:
                    pass
                assert s == snapshot and plain_stores(s)


@pytest.mark.parametrize("until", [1, 9, 40])
def test_a_result_is_a_value_a_further_run_leaves_alone(prodcons_model,
                                                        deadlock_model,
                                                        until):
    # A run stopped at a step limit and resumed from its result ends where
    # an uninterrupted run does, and the result it resumed from is plain
    # and unchanged.
    for model in _models(prodcons_model, deadlock_model):
        for runnables, scheduler in CONFIGS:
            cfg = build_config(model, runnables=runnables,
                               scheduler=scheduler)
            s = build_initial_state(cfg, model.setup)
            try:
                whole = run({}, 0, cfg, s, max_steps=200)
            except ExecError:
                continue
            steps: list = []
            part = run({}, 0, cfg, s, max_steps=until,
                       on_step=lambda t, oid, tid, *_: steps.append(
                           (t, oid, tid)))
            if part.halt != StepLimit():
                assert part == whole
                continue
            snapshot = copy.deepcopy(part.final)
            rest = run(_times(steps), part.time, cfg, part.final,
                       max_steps=200 - until)
            assert part.final == snapshot and plain_stores(part.final)
            assert plain_stores(rest.final)
            assert rest == whole


def _identities(model_text: str, runnables: str, scheduler: str,
                max_steps: int | None, monkeypatch):
    """Run the model, recording the identities of the three stores of the
    state each ``_OfferHeap.refresh`` is handed, per step: the first list
    is the first refresh's, each later one the refresh after a step. The
    selector is handed only what the heap reads from those stores. Each
    record also says whether the three stores, and the thread map of each
    object the refresh asks, were exact dicts. Also returns, per step,
    whether it consumed an event."""
    model = parse_model(model_text)
    cfg = build_config(model, runnables=runnables, scheduler=scheduler)
    seen: list[list[tuple[int, int, int]]] = [[]]
    consumed: list[bool] = []
    consuming = [False]
    refresh, consume = smm.vm._OfferHeap.refresh, smm.vm.consume_event

    def recorded(self, s, dirty):
        exact = type(s.ds) is type(s.cs) is type(s.es) is dict and all(
            type(s.cs[oid]) is dict for oid in dirty)
        seen[-1].append((id(s.ds), id(s.cs), id(s.es), exact))
        return refresh(self, s, dirty)

    def counted(*args):
        consuming[0] = True
        return consume(*args)

    def stepped(*_):
        consumed.append(consuming[0])
        consuming[0] = False
        seen.append([])

    monkeypatch.setattr(smm.vm._OfferHeap, "refresh", recorded)
    monkeypatch.setattr(smm.vm, "consume_event", counted)
    result = run({}, 0, cfg, build_initial_state(cfg, model.setup),
                 max_steps=max_steps, on_step=stepped)
    return result, seen, consumed


@pytest.mark.parametrize("runnables,scheduler", CONFIGS)
@pytest.mark.parametrize("model_text,max_steps,halt", [
    (_wide_model(1024), None, AllDone()),
    (ALLOC_LOOP, 4000, StepLimit()),
], ids=["wide-2048", "alloc-loop"])
def test_a_run_copies_no_data_or_control_store(runnables, scheduler,
                                               model_text, max_steps, halt,
                                               monkeypatch):
    # A count, not a timing: every store of the state each refresh is
    # handed is the very one the run started with, the event store too,
    # on a step that consumed an event as on any other, and every store
    # and thread map is an exact dict. Stores consecutive in a run are
    # alive at once, so their ids differ exactly when they are different
    # objects.
    result, seen, consumed = _identities(model_text, runnables, scheduler,
                                         max_steps, monkeypatch)
    assert result.halt == halt and len(consumed) == result.time
    assert all(seen), "a refresh asked no object"
    assert len({ids[:2] for each in seen for ids in each}) == 1
    es = [each[0][2] for each in seen]
    assert all(len({ids[2] for ids in each}) == 1 for each in seen)
    copied = [k for k in range(result.time) if es[k + 1] != es[k]]
    assert copied == []
    assert all(ids[3] for each in seen for ids in each)


def _counted_run(cls: type, model_name: str, runnables: str,
                 scheduler: str, prodcons_model, monkeypatch, on_step=None):
    """One ``run(max_steps=400)`` of the named model, counting the calls of
    ``cls.__init__`` and of ``consume_event`` it makes, ``on_step``
    observing its steps. Returns the state it was given, its result, the
    instances built and the events consumed."""
    model = {"fan": parse_model(FAN), "alloc-loop": parse_model(ALLOC_LOOP),
             "prodcons": prodcons_model}[model_name]
    cfg = build_config(model, runnables=runnables, scheduler=scheduler)
    s = build_initial_state(cfg, model.setup)
    built = [0]
    consumed = [0]
    init, consume = cls.__init__, smm.vm.consume_event

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def counted(*args):
        consumed[0] += 1
        return consume(*args)

    monkeypatch.setattr(cls, "__init__", counting_init)
    monkeypatch.setattr(smm.vm, "consume_event", counted)
    result = run({}, 0, cfg, s, max_steps=400, on_step=on_step)
    monkeypatch.undo()
    return s, result, built[0], consumed[0]


@pytest.mark.parametrize("runnables,scheduler", CONFIGS)
@pytest.mark.parametrize("model_name", ["fan", "alloc-loop", "prodcons"])
def test_a_step_builds_a_state_only_where_a_counter_moves(
        runnables, scheduler, model_name, prodcons_model, monkeypatch):
    # A count, not a timing: inside a run only an emitted event (next_seq)
    # or a started handler (next_tid) builds a SimState. Writes of
    # attributes, queues and threads, allocations and ends hand back the
    # state they were given. The constant covers the copy of the stores
    # on entry.
    s, result, built, consumed = _counted_run(
        SimState, model_name, runnables, scheduler, prodcons_model,
        monkeypatch)
    emitted = result.final.next_seq - s.next_seq
    assert result.time > 0 and emitted + consumed < result.time
    assert built <= emitted + consumed + 2


@pytest.mark.parametrize("runnables,scheduler", CONFIGS)
@pytest.mark.parametrize("model_name", ["fan", "alloc-loop", "prodcons"])
def test_a_step_builds_a_thread_only_where_it_consumes_an_event(
        runnables, scheduler, model_name, prodcons_model, monkeypatch):
    # A count, not a timing: inside a run a Thread is built only by the
    # copy of each thread on entry and by a consumed event (a handler, or
    # a resumed caller). An action writes the running thread in place.
    s, result, built, consumed = _counted_run(
        Thread, model_name, runnables, scheduler, prodcons_model,
        monkeypatch)
    entry = sum(len(threads) for threads in s.cs.values())
    assert result.time > entry + consumed
    assert built <= entry + consumed


@pytest.mark.parametrize("runnables,scheduler", CONFIGS)
@pytest.mark.parametrize("model_name", ["fan", "alloc-loop", "prodcons"])
def test_a_local_write_builds_no_record(runnables, scheduler, model_name,
                                        prodcons_model, monkeypatch):
    # A count, not a timing: inside a run a thread's locals are a dict the
    # run writes in place, so a RecordVal is built only for the arguments
    # of an emitted call or signal, the parameters of a consumed event's
    # handler, an attribute write, a new object's attributes, and each
    # thread's locals at the halt.
    actions: list = []
    s, result, built, consumed = _counted_run(
        RecordVal, model_name, runnables, scheduler, prodcons_model,
        monkeypatch, on_step=lambda *step: actions.append(step[-1]))
    sent = sum(isinstance(a, (Call, SendSignal)) for a in actions)
    attrs = sum(isinstance(a, SetAttr) for a in actions)
    objects = len(result.final.ds) - len(s.ds)
    halted = sum(len(threads) for threads in result.final.cs.values())
    writes = sum(isinstance(a, (NewLocal, LocalFromParam, LocalFromAttr,
                                LocalConst, BinOp, NewObject))
                 for a in actions)
    assert result.time > 0 and writes > 0
    assert built <= sent + consumed + attrs + objects + halted


@pytest.mark.parametrize("runnables,scheduler", CONFIGS)
@pytest.mark.parametrize("model_name", ["fan", "alloc-loop", "prodcons"])
def test_an_action_in_a_run_finds_its_thread_stored(
        runnables, scheduler, model_name, prodcons_model, monkeypatch):
    # Inside a run the thread map holds the running thread before its
    # action runs, a handler included: ``consume_event`` stores a handler
    # where it builds it, so no action stores a thread.
    model = {"fan": parse_model(FAN), "alloc-loop": parse_model(ALLOC_LOOP),
             "prodcons": prodcons_model}[model_name]
    cfg = build_config(model, runnables=runnables, scheduler=scheduler)
    interpret, handed = smm.vm.interpret, []

    def checked(action, s, oid, tid, thr, config):
        threads = s.cs[oid]
        handed.append(type(threads) is dict and threads.get(tid) is thr)
        return interpret(action, s, oid, tid, thr, config)

    monkeypatch.setattr(smm.vm, "interpret", checked)
    result = run({}, 0, cfg, build_initial_state(cfg, model.setup),
                 max_steps=400)
    assert len(handed) == result.time > 0 and all(handed)


# --- threads -------------------------------------------------------------

# Each of two objects runs three actions, then calls through null.
NULL_CALL = """
class W { }
op W.go(): Void {
  let x: Int = 1;
  let y: Int = 2;
  let t: W = null;
  call t.go() -> x;
  return void;
}
setup { a: W active go prio 1; b: W active go prio 2; }
"""


def _threads(s) -> list[tuple[Thread, tuple]]:
    """Each thread of ``s`` with its fields as they are now."""
    return [(thr, tuple(getattr(thr, f.name)
                        for f in dataclasses.fields(thr)))
            for threads in s.cs.values() for thr in threads.values()]


def _assert_kept(s, threads: list[tuple[Thread, tuple]]) -> None:
    """``s`` holds the very threads ``_threads`` found, each unwritten."""
    now = _threads(s)
    assert threads and len(now) == len(threads)
    for (thr, fields), (thr_now, fields_now) in zip(threads, now):
        assert thr_now is thr
        assert all(a is b for a, b in zip(fields, fields_now)), thr


def test_a_run_writes_no_thread_of_the_state_it_was_given(prodcons_model,
                                                          deadlock_model):
    for model in (prodcons_model, deadlock_model, parse_model(FAN)):
        for runnables, scheduler in CONFIGS:
            cfg = build_config(model, runnables=runnables,
                               scheduler=scheduler)
            s = build_initial_state(cfg, model.setup)
            threads = _threads(s)
            result = run({}, 0, cfg, s, max_steps=200)
            assert result.time > 0
            _assert_kept(s, threads)


@pytest.mark.parametrize("until", [1, 9, 40])
def test_a_resumed_run_writes_no_thread_of_the_result_it_resumed(
        prodcons_model, until):
    # Also the threads the first run wrote, which its result holds.
    for runnables, scheduler in CONFIGS:
        cfg = build_config(prodcons_model, runnables=runnables,
                           scheduler=scheduler)
        s = build_initial_state(cfg, prodcons_model.setup)
        given = _threads(s)
        part = run({}, 0, cfg, s, max_steps=until)
        assert part.halt == StepLimit()
        held = _threads(part.final)
        for _ in range(2):  # and again from the same result
            rest = run({}, part.time, cfg, part.final, max_steps=200)
            assert rest.time > part.time
            _assert_kept(part.final, held)
        _assert_kept(s, given)


def test_a_run_that_fails_writes_no_thread_of_the_state_it_was_given():
    model = parse_model(NULL_CALL)
    for runnables, scheduler in CONFIGS:
        cfg = build_config(model, runnables=runnables, scheduler=scheduler)
        s = build_initial_state(cfg, model.setup)
        threads = _threads(s)
        steps: list = []
        with pytest.raises(ExecError, match="call through null"):
            run({}, 0, cfg, s, on_step=lambda *args: steps.append(args))
        assert len(steps) >= 3
        _assert_kept(s, threads)


# A handler that returns at its first action, for a call and a signal.
PING = """
class Hub { }
class Caller { }
op Hub.ping(): Void {
  return void;
}
op Caller.go(): Void {
  let h: Hub = null;
  loadattr h hub;
  call h.ping() -> r;
  send h.ping() prio 1;
  return void;
}
setup { c: Caller active go prio 1 links [hub]; hub: Hub passive; }
"""


def test_a_step_on_a_plain_state_writes_neither_it_nor_its_threads(
        prodcons_model):
    # ``step`` outside a run, one at a time, each pick made afresh from
    # every object's offers: the state handed in stays as it was, each of
    # its threads unwritten, and the successor holds records for locals.
    seen = set()
    for model in (prodcons_model, parse_model(FAN), parse_model(PING)):
        for runnables, scheduler in CONFIGS:
            cfg = build_config(model, runnables=runnables,
                               scheduler=scheduler)
            s, times = build_initial_state(cfg, model.setup), {}
            for t in range(300):
                entries, reserved = collect_runnables(
                    cfg.runnables_sel, s, times, {}, s.ds)
                if not entries:
                    break
                oid, tid = cfg.scheduler(t, entries)
                event = reserved.get(tid)
                thr = s.thread(oid, tid)
                snapshot, threads = copy.deepcopy(s), _threads(s)
                s2, _pc, action, _ = step(s, cfg, oid, tid, event)
                assert s == snapshot and plain_stores(s2)
                if threads:
                    _assert_kept(s, threads)
                assert all(type(after.locals) is RecordVal
                           for after, _ in _threads(s2))
                if event is not None:
                    seen.add("handler")
                    if isinstance(action, ReturnConst):
                        seen.add("handler returns at once")
                elif thr.status is ThreadStatus.WAITING:
                    seen.add("resumed caller")
                times[tid] = t
                s = s2
            assert not entries, "the model did not finish"
    assert seen == {"handler", "handler returns at once", "resumed caller"}
