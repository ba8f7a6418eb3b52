"""The operand rules ``validate_model`` holds a built model to.

A model built in Python is held to the parser's rules: a ``BinOp`` names
an operator of ``BIN_OPS``, a ``Call`` or ``SendSignal`` passes as many
arguments as its operation takes parameters, and each value where the text
needs a literal is one a literal spells. Such a model would print as text
that does not parse back, or not print at all. ``run_model`` does not
validate, so the interpreter keeps its own checks of operators and
argument counts.
"""

from __future__ import annotations

import pytest

from smm import (
    Active, AttrDef, ClassDef, ClassType, ExecError, INT, IntVal, MethodDef,
    ModelError, NULL_OID, OidVal, OpSig, RecordVal, SetupEntry, VOID,
    VOID_VAL, parse_model, print_model, run_model, validate_model,
)
from smm.actions import (
    BinOp, Call, LocalConst, NewLocal, NewObject, ReturnConst, SendSignal,
)
from smm.frontend import ModelDef
from smm.universe import Hierarchy, Problem

GO = OpSig("go", (), VOID)
F = OpSig("f", (INT,), VOID)


def _model(action) -> ModelDef:
    """One class ``X`` with ``f(p: Int)`` and a start operation ``go``
    that makes an ``X``, sets two locals and then runs ``action``."""
    go = MethodDef(GO, (), (
        NewLocal("t", ClassType("X"), NULL_OID),
        NewObject("t", "X"),
        NewLocal("a", INT, IntVal(1)),
        NewLocal("r", VOID, VOID_VAL),
        action,
        ReturnConst(VOID_VAL),
    ))
    f = MethodDef(F, (("p", INT),), (ReturnConst(VOID_VAL),))
    return ModelDef({"X": ClassDef("X", ())}, {}, {"X": {GO: go, F: f}},
                    (SetupEntry("x", "X", Active(GO, 1)),))


def _problems(model: ModelDef) -> list[Problem]:
    return validate_model(Hierarchy(model.classes, model.subclass_rel),
                          model.meth_map)


def test_the_model_is_valid_with_a_known_operator_and_one_argument():
    for action in (BinOp("add", "a", "a", "a"), Call("t", F, ("a",), "r"),
                   SendSignal("t", F, ("a",), 1)):
        assert _problems(_model(action)) == []


def test_an_unknown_operator_is_a_problem_of_its_action():
    model = _model(BinOp("div", "a", "a", "a"))
    assert _problems(model) == [Problem(
        ("action", "X", GO, 4),
        "method X.go: action 4 uses unknown operator 'div'")]
    with pytest.raises(ModelError, match="unknown statement 'div'"):
        parse_model(print_model(model))
    with pytest.raises(ExecError, match="unknown operator 'div'"):
        run_model(model)


@pytest.mark.parametrize("action", [
    Call("t", F, ("a", "a"), "r"),
    SendSignal("t", F, ("a", "a"), 1),
], ids=["call", "send"])
def test_an_argument_count_unlike_the_parameter_count_is_a_problem(action):
    model = _model(action)
    assert _problems(model) == [Problem(
        ("action", "X", GO, 4),
        "method X.go: action 4 passes 2 argument(s) to 'f', which takes 1")]
    with pytest.raises(ModelError, match="no operation 'f' taking 2"):
        parse_model(print_model(model))
    with pytest.raises(ExecError, match="call to 'f' with 2 arguments, "
                                        "expected 1"):
        run_model(model)


@pytest.mark.parametrize("statement, arity", [
    ("call t.g(a) -> r", 1), ("send t.g(a, a) prio 1", 2)])
def test_an_unresolved_call_site_is_reported_once(statement, arity):
    # Its placeholder operation takes as many arguments as the site
    # passes, so the site is no problem of the validator's too.
    source = ("class X { }\nop X.go(): Void {\n  let t: X = null;\n"
              f"  let a: Int = 0;\n  {statement};\n  return void;\n}}")
    with pytest.raises(ModelError) as err:
        parse_model(source)
    assert [(d.line, d.message) for d in err.value.diagnostics] == [
        (5, f"no operation 'g' taking {arity} argument(s) is declared")]


@pytest.mark.parametrize("action, message", [
    (NewLocal("o", ClassType("X"), OidVal(5)),
     "initial value does not fit type X"),
    (LocalConst("a", OidVal(4)), "sets a value that is not a literal"),
    (LocalConst("a", RecordVal()), "sets a value that is not a literal"),
], ids=["let-reference", "set-reference", "set-record"])
def test_a_value_no_literal_spells_is_a_problem_of_its_action(action,
                                                              message):
    model = _model(action)
    assert _problems(model) == [Problem(
        ("action", "X", GO, 4), f"method X.go: action 4 {message}")]
    with pytest.raises(ModelError, match="has no source form"):
        print_model(model)


def test_a_reference_is_no_initial_value_or_returned_literal():
    # Only null spells a reference; any other would dangle in the run.
    get = OpSig("get", (), ClassType("X"))
    model = _model(BinOp("add", "a", "a", "a"))
    model.classes["X"] = ClassDef("X", (
        AttrDef("r", ClassType("X"), OidVal(7)),))
    model.meth_map["X"][get] = MethodDef(get, (), (ReturnConst(OidVal(9)),))
    assert _problems(model) == [
        Problem(("attr", "X", 0), "class 'X': attribute 'r' initial value "
                                  "does not fit type X"),
        Problem(("action", "X", get, 0), "method X.get: action 0 returns a "
                                         "value that does not fit return "
                                         "type X")]
