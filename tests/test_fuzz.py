"""Generative robustness checks: random models, executed.

Random bodies are full of legitimate model bugs (calls through null
references, kind mismatches, missing returns), so ExecError is an accepted
outcome. What must never happen: an engine-internal error, a Python-level
exception, or two runs of the same model disagreeing.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from smm import (
    ExecError, IntVal, ModelError, build_config, parse_model,
    render_final_state, run_model, validate_state,
)
from smm.actions import LocalConst, NewLocal, ReturnConst
from smm.universe import Hierarchy, validate_model
from smm.vm import StepLimit

from modelgen import random_model

CONFIGS = [("rtc", "rr"), ("rtc", "prio"), ("conc", "rr"), ("conc", "prio")]


def _outcome(model, runnables, scheduler):
    try:
        result = run_model(model, runnables=runnables, scheduler=scheduler,
                           max_steps=150)
        return "result", render_final_state(result, "structured"), result
    except ExecError as err:
        # ``vm.step`` names the thread of every error a step raises.
        assert err.oid is not None and err.tid is not None, err
        return "model-error", str(err), None


@pytest.mark.parametrize("seed", range(30))
def test_random_models_run_deterministically(seed):
    rng = random.Random(987_000 + seed)
    model = random_model(rng)
    for runnables, scheduler in CONFIGS:
        kind1, detail1, result = _outcome(model, runnables, scheduler)
        kind2, detail2, _ = _outcome(model, runnables, scheduler)
        assert (kind1, detail1) == (kind2, detail2)
        if result is not None and not isinstance(result.halt, StepLimit):
            problems = validate_state(result.final, build_config(model))
            assert problems == [], problems


# Literals at and near the ends of ``Int``'s signed 64-bit range and near
# the square root of its top; mixed with small ones, chains of add/sub/mul
# both stay inside the range and leave it.
_EDGE_INTS = [2**63 - 1, 2**63 - 2, -2**63, -2**63 + 1, 2**62, -2**62,
              2**32, 3_037_000_499, -3_037_000_499]


def _arithmetic_model(rng: random.Random) -> str:
    """Two active objects, each running a random add/sub/mul chain over
    two edge literals and two small ones, storing every result. The right
    operand is mostly the last small one, so that about a third of the
    runs finish."""
    lines = ["class A { attr r: Int = 0; }"]
    for op_name in ("f", "g"):
        body = [f"  let v{i}: Int = "
                f"{rng.choice(_EDGE_INTS) if i < 2 else rng.randint(-3, 3)};"
                for i in range(4)]
        for _ in range(rng.randint(1, 6)):
            dst, lhs = (f"v{rng.randrange(4)}" for _ in range(2))
            rhs = f"v{rng.randrange(4) if rng.random() < 0.3 else 3}"
            body.append(f"  {rng.choice(('add', 'sub', 'mul'))} {dst} {lhs} "
                        f"{rhs};")
            body.append(f"  setattr r {dst};")
        lines += [f"op A.{op_name}(): Void {{", *body, "  return void;", "}"]
    lines.append("setup { a: A active f prio 1; b: A active g prio 2; }")
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(40))
def test_integer_chains_stay_in_range_or_stop(seed):
    model = parse_model(_arithmetic_model(random.Random(654_000 + seed)))
    for runnables, scheduler in CONFIGS:
        kind1, detail1, result = _outcome(model, runnables, scheduler)
        assert (kind1, detail1) == _outcome(model, runnables, scheduler)[:2]
        if kind1 == "model-error":
            assert "integer overflow in" in detail1
            continue
        assert render_final_state(result, "text")
        for obj in result.final.ds.values():
            assert obj.attrs.get("r").value in range(-2**63, 2**63)


# Literals at, just inside and beyond the ends of ``Int``, and small ones.
_NEAR_EDGES = [2**63 - 1, 2**63, 2**64, 10**30, -2**63, -2**63 - 1, -2**64,
               0, 7]

_LITERAL_SOURCE = """
class A { attr a0: Int = 0; attr a1: Int = 0; }
op A.f(): Int { return 0; }
op A.go(): Void {
  let x: Int = 0;
  set x 0;
  setattr a0 x;
  let b: A = null;
  loadattr b b;
  call b.f() -> r;
  setattr a1 r;
  return void;
}
setup { a: A active go prio 1 links [b]; b: A passive; }
"""


def _literal_model(rng: random.Random):
    """The model above, built with a literal drawn from ``_NEAR_EDGES`` in
    each attribute init and in the ``let``, ``set`` and ``return``
    actions, and where validation must report each literal outside
    ``Int``."""
    m = parse_model(_LITERAL_SOURCE)
    picks = [rng.choice(_NEAR_EDGES) for _ in range(5)]
    outside = [v not in range(-2**63, 2**63) for v in picks]
    cls = m.classes["A"]
    attrs = tuple(replace(attr, init=IntVal(v))
                  for attr, v in zip(cls.attributes, picks))
    sigs = {sig.name: sig for sig in m.meth_map["A"]}
    go, f = m.meth_map["A"][sigs["go"]], m.meth_map["A"][sigs["f"]]
    go_body = (NewLocal("x", go.body[0].type, IntVal(picks[2])),
               LocalConst("x", IntVal(picks[3]))) + go.body[2:]
    methods = {sigs["go"]: replace(go, body=go_body),
               sigs["f"]: replace(f, body=(ReturnConst(IntVal(picks[4])),))}
    model = replace(m, classes={"A": replace(cls, attributes=attrs)},
                    meth_map={"A": methods})
    places = [("attr", "A", 0), ("attr", "A", 1),
              ("action", "A", sigs["go"], 0), ("action", "A", sigs["go"], 1),
              ("action", "A", sigs["f"], 0)]
    return model, [where for where, out in zip(places, outside) if out]


@pytest.mark.parametrize("seed", range(40))
def test_built_literals_outside_int_are_reported_and_never_rendered(seed):
    model, expected = _literal_model(random.Random(321_000 + seed))
    problems = validate_model(Hierarchy(model.classes, model.subclass_rel),
                              model.meth_map)
    assert [p.where for p in problems] == expected
    for runnables, scheduler in CONFIGS:
        try:
            result = run_model(model, runnables=runnables,
                               scheduler=scheduler, max_steps=150)
        except ExecError as err:
            assert err.oid is not None and err.tid is not None, err
            continue
        stored = [v.value for obj in result.final.ds.values()
                  for _, v in obj.attrs.fields if isinstance(v, IntVal)]
        for fmt in ("text", "structured"):
            if all(v in range(-2**63, 2**63) for v in stored):
                assert render_final_state(result, fmt)
            else:
                with pytest.raises(ModelError, match="has no output form"):
                    render_final_state(result, fmt)
