"""``run`` owns its stores: it writes them in place and stays a value outside.

On entry ``run`` copies the stores of the state it is given, each thread
map and each thread, into stores it owns, which the ``state`` primitives
and ``actions.advance`` write in place; at exit it hands back plain dicts.
The pure path, ``step`` on plain states, is the oracle
(``test_collect_oracle`` compares the two over the bundled and generated
models). Here: the state a run was given, and each of its threads, is
never written, its result is a value that a further run leaves alone, and
the data and control stores keep one identity for a whole run, so a step
copies neither. The event store is copied only where an event is
consumed, because ``take_matching_event`` never writes its argument, and
a thread is built only there too.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest

from smm import (
    AllDone, ExecError, StepLimit, build_config, build_initial_state,
    parse_model, run,
)
import smm.vm
from smm.state import SimState, Thread

from modelgen import random_model
from test_collect_oracle import (
    ALLOC_LOOP, CONFIGS, FAN, _wide_model, observed, plain_reliable,
    plain_stores,
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
    """Run the model with a selector that records the identities of the
    three stores each ``pending_handler_events`` ask is handed, per step:
    the first list is the first refresh's, each later one the refresh
    after a step, which always asks the acting object. Also returns, per
    step, whether it consumed an event."""
    model = parse_model(model_text)
    cfg = build_config(model, runnables=runnables, scheduler=scheduler)
    seen: list[list[tuple[int, int, int]]] = [[]]
    consumed: list[bool] = []
    consuming = [False]

    recording = observed(cfg.runnables_sel, lambda s, _oid: seen[-1].append(
        (id(s.ds), id(s.cs), id(s.es))))
    consume = smm.vm.consume_event

    def counted(*args):
        consuming[0] = True
        return consume(*args)

    def stepped(*_):
        consumed.append(consuming[0])
        consuming[0] = False
        seen.append([])

    monkeypatch.setattr(smm.vm, "consume_event", counted)
    result = run({}, 0, dataclasses.replace(cfg, runnables_sel=recording),
                 build_initial_state(cfg, model.setup), max_steps=max_steps,
                 on_step=stepped)
    return result, seen, consumed


@pytest.mark.parametrize("runnables,scheduler", [("rtc", "rr"),
                                                 ("conc", "prio")])
@pytest.mark.parametrize("model_text,max_steps,halt", [
    (_wide_model(1024), None, AllDone()),
    (ALLOC_LOOP, 4000, StepLimit()),
], ids=["wide-2048", "alloc-loop"])
def test_a_run_copies_no_data_or_control_store(runnables, scheduler,
                                               model_text, max_steps, halt,
                                               monkeypatch):
    # A count, not a timing: every store a step hands the selector is the
    # very one the run started with, except the event store after a step
    # that consumed an event. Stores consecutive in a run are alive at
    # once, so their ids differ exactly when they are different objects.
    result, seen, consumed = _identities(model_text, runnables, scheduler,
                                         max_steps, monkeypatch)
    assert result.halt == halt and len(consumed) == result.time
    assert all(seen), "a refresh asked no object"
    assert len({ids[:2] for each in seen for ids in each}) == 1
    es = [each[0][2] for each in seen]
    assert all(len({ids[2] for ids in each}) == 1 for each in seen)
    copied = [k for k in range(result.time) if es[k + 1] != es[k]]
    assert all(consumed[k] for k in copied)


def _counted_run(cls: type, model_name: str, runnables: str,
                 scheduler: str, prodcons_model, monkeypatch):
    """One ``run(max_steps=400)`` of the named model, counting the calls of
    ``cls.__init__`` and of ``consume_event`` it makes. Returns the state
    it was given, its result, the instances built and the events
    consumed."""
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
    result = run({}, 0, cfg, s, max_steps=400)
    monkeypatch.undo()
    return s, result, built[0], consumed[0]


@pytest.mark.parametrize("runnables,scheduler", CONFIGS)
@pytest.mark.parametrize("model_name", ["fan", "alloc-loop", "prodcons"])
def test_a_step_builds_a_state_only_where_a_counter_moves(
        runnables, scheduler, model_name, prodcons_model, monkeypatch):
    # A count, not a timing: inside a run only an emitted event (next_seq)
    # or a consumed one (a new event store, and next_tid for a handler)
    # builds a SimState. Writes of attributes and threads, allocations and
    # ends hand back the state they were given. The constant is the copy
    # of the stores on entry and the plain copy at the halt.
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
