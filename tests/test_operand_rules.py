"""The operand rules ``validate_model`` holds a built model to.

A model built in Python is held to the parser's rules: a ``BinOp`` names
an operator of ``BIN_OPS``, a ``Call`` or ``SendSignal`` passes as many
arguments as its operation takes parameters and names the one signature
declared with its name and parameter count, and each value where the text
needs a literal is one a literal spells. Such a model would print as text
that does not parse back, or not print at all. ``run_model`` does not
validate, so the interpreter keeps its own checks of operators and
argument counts.
"""

from __future__ import annotations

import random
from dataclasses import fields, replace

import pytest

from smm import (
    Active, AllDone, AttrDef, BOOL, BoolVal, ClassDef, ClassType, ExecError,
    INT, IntVal, MethodDef, ModelError, NULL_OID, OidVal, OpSig, RecordVal,
    SetupEntry, VOID, VOID_VAL, parse_model, print_model, run_model,
    validate_model,
)
from smm.actions import (
    BinOp, Call, LocalConst, NewLocal, NewObject, ReturnConst, SendSignal,
)
from smm.frontend import ModelDef
from smm.universe import Hierarchy, Problem

from modelgen import random_model

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


F_VOID, F_INT = OpSig("f", (), VOID), OpSig("f", (), INT)


def _caller(op: OpSig, declared) -> ModelDef:
    """A class ``A`` whose start operation ``go`` calls ``op`` on a new
    ``A`` at pc 3, with a method for each (class, signature) of
    ``declared``."""
    go = MethodDef(GO, (), (
        NewLocal("t", ClassType("A"), NULL_OID),
        NewObject("t", "A"),
        NewLocal("r", VOID, VOID_VAL),
        Call("t", op, (), "r"),
        ReturnConst(VOID_VAL),
    ))
    classes, meth_map = {"A": ClassDef("A", ())}, {"A": {GO: go}}
    for cls, sig in declared:
        classes.setdefault(cls, ClassDef(cls, ()))
        value = VOID_VAL if sig.return_type == VOID else IntVal(0)
        meth_map.setdefault(cls, {})[sig] = MethodDef(
            sig, (), (ReturnConst(value),))
    return ModelDef(classes, {}, meth_map,
                    (SetupEntry("a", "A", Active(GO, 1)),))


@pytest.mark.parametrize("op, declared, message, reads_as, run", [
    (F_VOID, (), "no operation 'f' taking 0 argument(s) is declared", None,
     "no class of 'A' implements f(): Void"),
    (F_VOID, (("A", F_VOID), ("B", F_INT)),
     "operation 'f' with 0 argument(s) is ambiguous", None, None),
    (F_INT, (("A", F_VOID),), "operation 'f' with 0 argument(s) is declared "
                              "as f(): Void, not f(): Int", F_VOID,
     "no class of 'A' implements f(): Int"),
], ids=["undeclared", "ambiguous", "other-return-type"])
def test_a_call_names_the_one_signature_of_its_name_and_arity(
        op, declared, message, reads_as, run):
    model = _caller(op, declared)
    assert _problems(model) == [Problem(("call", "A", GO, 3), message)]
    # The text names the operation by name alone: the parser reads it as
    # the one signature declared, or rejects it in the same words.
    text = print_model(model)
    if reads_as is None:
        with pytest.raises(ModelError) as err:
            parse_model(text)
        assert [d.message for d in err.value.diagnostics] == [message]
    else:
        assert parse_model(text) == _caller(reads_as, declared) != model
    if run is None:
        assert isinstance(run_model(model).halt, AllDone)
    else:
        with pytest.raises(ExecError) as err:
            run_model(model)
        assert err.value.message == run


@pytest.mark.parametrize("action", [
    BinOp("div", "a", "a", "a"),
    BinOp("add", "a", "a", "a"),
    Call("t", F, ("a", "a"), "r"),
    SendSignal("t", F, ("a",), 1),
    LocalConst("a", OidVal(4)),
    NewLocal("o", ClassType("X"), OidVal(5)),
], ids=lambda action: type(action).__name__)
def test_an_instance_of_a_subclass_is_checked_as_its_action_class(action):
    base = type(action)
    derived = type(f"Derived{base.__name__}", (base,), {})
    built = derived(*(getattr(action, f.name) for f in fields(base)))
    assert _problems(_model(built)) == _problems(_model(action))


@pytest.mark.parametrize("action", [
    BinOp("add", "a", "a", "a"),
    Call("t", F, ("a",), "r"),
    SendSignal("t", F, ("a",), 1),
    LocalConst("a", IntVal(4)),
    NewLocal("o", ClassType("X"), NULL_OID),
], ids=lambda action: type(action).__name__)
def test_an_instance_of_a_subclass_prints_as_its_action_class(action):
    # validate_model accepts it by its action class, so print_model writes
    # it as that class too: the text is the base action's.
    base = type(action)
    derived = type(f"Derived{base.__name__}", (base,), {})
    built = derived(*(getattr(action, f.name) for f in fields(base)))
    assert _problems(_model(built)) == []
    text = print_model(_model(built))
    assert text == print_model(_model(action))
    assert parse_model(text) == _model(action)


def _call_sites(model: ModelDef) -> list[tuple[str, OpSig, int]]:
    return [(cls, sig, pc) for cls, ops in model.meth_map.items()
            for sig, meth in ops.items()
            for pc, act in enumerate(meth.body)
            if isinstance(act, (Call, SendSignal))]


def _swapped(model: ModelDef, rng: random.Random, way: str) -> ModelDef:
    """``model`` with the operation of one call site drawn from ``rng``
    swapped for another signature, drawn the ``way`` named."""
    cls, sig, pc = rng.choice(_call_sites(model))
    meth = model.meth_map[cls][sig]
    op = meth.body[pc].op
    other = rng.choice([t for t in (INT, BOOL, VOID) if t != op.return_type])
    meth_map = {c: dict(ops) for c, ops in model.meth_map.items()}
    if way == "undeclared-name":
        new = OpSig(f"{op.name}_x", op.param_types, op.return_type)
    else:
        new = OpSig(op.name, op.param_types, other)
    if way == "another-class":
        owner = rng.choice(sorted(model.classes))
        value = {INT: IntVal(0), BOOL: BoolVal(False), VOID: VOID_VAL}[other]
        params = tuple((f"p{i}", t) for i, t in enumerate(new.param_types))
        meth_map.setdefault(owner, {})[new] = MethodDef(
            new, params, (ReturnConst(value),))
    body = list(meth.body)
    body[pc] = replace(body[pc], op=new)
    meth_map[cls][sig] = replace(meth, body=tuple(body))
    return replace(model, meth_map=meth_map)


@pytest.mark.parametrize("way", ["another-class", "other-return-type",
                                 "undeclared-name"])
@pytest.mark.parametrize("supers", [1, 3])
@pytest.mark.parametrize("seed", range(10))
def test_a_built_model_that_validates_prints_as_itself(seed, supers, way):
    rng = random.Random(275_000 + seed)
    model = random_model(rng, supers=supers)
    while not _call_sites(model):
        model = random_model(rng, supers=supers)
    model = _swapped(model, rng, way)
    if validate_model(Hierarchy(model.classes, model.subclass_rel),
                      model.meth_map) == []:
        assert parse_model(print_model(model)) == model
