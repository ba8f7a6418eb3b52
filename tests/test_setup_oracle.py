"""``build_initial_state`` against the setup it replaced, and its work.

``build_initial_state`` fills the three stores in one pass and builds one
state from them. The oracle below is the setup as it was before: one
store primitive per object, link and start thread, each returning a new
state. Both must give equal states, with their stores in the same order,
or the same error. The count tests pin the work a setup and a step do in
terms of states and thread writes, so a copy that creeps back fails them
whatever the host's speed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest

import smm.actions
import smm.state
import smm.vm
from smm import (
    Active, ClassDef, ExecError, MethodDef, ModelDef, ModelError, OidVal,
    OpSig, Passive, SetupEntry, VOID, VOID_VAL, build_config, load_model,
    parse_model,
)
from smm.actions import ReturnConst
from smm.errors import Diagnostic
from smm.state import (
    SimState, StoredObject, Thread, ThreadStatus, alloc_object, empty_state,
    update_thread,
)
from smm.vm import build_initial_state, check_setup, run_main

from conftest import CONFIGS
from modelgen import random_model
from test_golden import SEEDS

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def primitive_initial_state(cfg, setup) -> SimState:
    """The oracle: objects allocated, then linked, then started, each
    through a primitive that returns a new state."""
    problems = check_setup(cfg.hierarchy, setup)
    if problems:
        raise ModelError([Diagnostic(p.message) for p in problems])
    by_name: dict[str, int] = {}
    s = empty_state()
    for entry in setup:
        s, oid = alloc_object(s, cfg.hierarchy.object_class(entry.class_name))
        by_name[entry.name] = oid
    for entry in setup:
        oid = by_name[entry.name]
        for link in entry.links:
            obj = s.ds[oid]
            linked = StoredObject(obj.class_name, obj.attrs.set(
                link, OidVal(by_name[link])))
            s = replace(s, ds={**s.ds, oid: linked})
    for entry in setup:
        if not isinstance(entry.kind, Active):
            continue
        oid = by_name[entry.name]
        try:
            meth = cfg.method(s.ds, oid, entry.kind.op)
        except ExecError as err:
            raise ModelError(f"setup: {entry.name!r} cannot start "
                             f"{entry.kind.op.name!r}: {err}") from None
        s = update_thread(replace(s, next_tid=s.next_tid + 1), oid,
                          s.next_tid,
                          Thread(entry.kind.prio, ThreadStatus.READY, meth))
    return s


def _outcome(build, cfg, setup):
    """The state with its stores' key order, or the error's text."""
    try:
        s = build(cfg, setup)
    except ModelError as err:
        return "error", str(err)
    return (list(s.ds.items()),
            [(oid, list(threads.items())) for oid, threads in s.cs.items()],
            list(s.es.items()), s.next_tid, s.next_seq)


def _agree(model) -> None:
    cfg = build_config(model)
    assert _outcome(build_initial_state, cfg, model.setup) == \
        _outcome(primitive_initial_state, cfg, model.setup)


GO = OpSig("go", (), VOID)


def _ring(n: int, active_every: int = 2) -> ModelDef:
    """``n`` nodes, each linked to the next and the last to the first;
    every ``active_every``-th starts ``go``, which returns at once."""
    node = ClassDef("Node", ())
    meth = MethodDef(GO, (), (ReturnConst(VOID_VAL),))
    setup = tuple(
        SetupEntry(f"n{i}", "Node",
                   Active(GO, i % 3) if i % active_every == 0 else Passive(),
                   (f"n{(i + 1) % n}",))
        for i in range(n))
    return ModelDef({"Node": node}, {}, {"Node": {GO: meth}}, setup)


class TestAgainstTheOracle:
    @pytest.mark.parametrize("name", ["prodcons.smm", "deadlock.smm"])
    def test_bundled_models(self, name):
        _agree(load_model(MODELS_DIR / name))

    def test_generated_models(self):
        for seed in SEEDS:
            _agree(random_model(random.Random(seed)))

    def test_a_large_linked_ring(self):
        model = _ring(2000)
        _agree(model)
        s = build_initial_state(build_config(model), model.setup)
        assert s.ds[1999].attrs.get("n0") == OidVal(0)
        assert s.next_tid == 1000

    @pytest.mark.parametrize("broken", [
        {"meth_map": {"Node": {}}},  # the start operation does not dispatch
        {"setup": _ring(3).setup + (
            SetupEntry("x", "Missing", Passive(), ("nowhere",)),)},
    ])
    def test_a_broken_setup_fails_alike(self, broken):
        model = replace(_ring(3), **broken)
        assert _outcome(build_initial_state, build_config(model),
                        model.setup)[0] == "error"
        _agree(model)


@pytest.fixture
def states_built(monkeypatch):
    """A list that counts every ``SimState`` constructed from now on."""
    built: list[SimState] = []
    init = SimState.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimState, "__init__", counting)
    return built


@pytest.mark.parametrize("n", [1, 2, 16, 500])
def test_setup_builds_one_state_whatever_its_size(n, states_built):
    model = _ring(n)
    cfg = build_config(model)
    s = build_initial_state(cfg, model.setup)
    assert states_built == [s]


def _fanin_source(senders: int) -> str:
    """``senders`` objects each calling and signalling one passive hub."""
    out = ["class Hub { attr count: Int = 0; }\n"
           "op Hub.bump(x: Int): Int {\n"
           "  let v: Int = 0;\n  loadattr v count;\n  let d: Int = 0;\n"
           "  loadparam d x;\n  add v v d;\n  setattr count v;\n"
           "  return v;\n}\n"
           "class S { attr hub: Hub = null; }\n"
           "op S.run(): Void {\n"
           "  let h: Hub = null;\n  loadattr h hub;\n  let one: Int = 1;\n"
           "  let z: Int = 0;\n  let k: Int = 3;\n  let c: Bool = false;\n"
           "loop:\n"
           "  send h.bump(one) prio 2;\n  call h.bump(one) -> r;\n"
           "  sub k k one;\n  eq c k z;\n  ifnot c goto loop;\n"
           "  return void;\n}\n"
           "setup {\n  hub: Hub passive;\n"]
    out += [f"  s{i}: S active run prio {1 + i % 3} links [hub];\n"
            for i in range(senders)]
    out.append("}\n")
    return "".join(out)


@pytest.mark.parametrize("runnables,scheduler", CONFIGS)
@pytest.mark.parametrize("model_name", ["prodcons", "fanin"])
def test_a_step_writes_its_thread_at_most_once(
        model_name, runnables, scheduler, monkeypatch):
    model = (load_model(MODELS_DIR / "prodcons.smm") if model_name ==
             "prodcons" else parse_model(_fanin_source(4)))
    cfg = build_config(model, runnables=runnables, scheduler=scheduler)
    writes = [0]
    write = smm.state.update_thread

    def counting(*args):
        writes[0] += 1
        return write(*args)

    for module in (smm.vm, smm.actions):
        monkeypatch.setattr(module, "update_thread", counting)
    per_step: list[int] = []

    def on_step(*_):
        per_step.append(writes[0])
        writes[0] = 0

    result = run_main(cfg, model.setup, max_steps=5000, on_step=on_step)
    assert len(per_step) == result.time > 0
    assert max(per_step) == 1
