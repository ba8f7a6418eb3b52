"""``run`` owns its stores: it writes them in place and stays a value outside.

On entry ``run`` copies the stores of the state it is given, and each
thread map, into stores it owns, which the ``state`` primitives write in
place; at exit it hands back plain dicts. The pure path, ``step`` on plain
states, is the oracle (``test_collect_oracle`` compares the two over the
bundled and generated models). Here: the state a run was given is never
written, its result is a value that a further run leaves alone, and the
data and control stores keep one identity for a whole run, so a step
copies neither. The event store is copied only where an event is
consumed, because ``take_matching_event`` never writes its argument.
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

from modelgen import random_model
from test_collect_oracle import (
    ALLOC_LOOP, CONFIGS, FAN, _wide_model, plain_reliable, plain_stores,
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
    three stores it is handed, per step: the first list is the first
    refresh's, each later one the refresh after a step. Also returns, per
    step, whether it consumed an event."""
    model = parse_model(model_text)
    cfg = build_config(model, runnables=runnables, scheduler=scheduler)
    seen: list[list[tuple[int, int, int]]] = [[]]
    consumed: list[bool] = []
    consuming = [False]

    def recording(s, oid):
        seen[-1].append((id(s.ds), id(s.cs), id(s.es)))
        return cfg.runnables_sel(s, oid)

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
