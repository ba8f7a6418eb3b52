"""The contract every frozen value of the engine keeps.

The engine's immutable values are built by ``smm.universe.value_class``:
slotted frozen dataclasses whose ``__init__`` stores each field through its
slot. Each one must still behave as the plain frozen dataclass it replaces.
"""

from __future__ import annotations

import builtins
import copy
import dataclasses
import inspect
import pickle

import pytest

import smm.actions
import smm.frontend
import smm.state
import smm.universe
import smm.variation
import smm.vm
from smm.state import SimState
from smm.universe import (
    BoolVal, ClassDef, IntVal, NullOid, VoidVal, value_class,
)
from smm.variation import Config

MODULES = (smm.universe, smm.state, smm.actions, smm.variation, smm.vm,
           smm.frontend)

FROZEN = [obj for module in MODULES for obj in vars(module).values()
          if isinstance(obj, type) and obj.__module__ == module.__name__
          and dataclasses.is_dataclass(obj)
          and obj.__dataclass_params__.frozen]

# ``Config`` keeps an instance ``__dict__`` for its ``cached_property``s.
VALUE_CLASSES = [cls for cls in FROZEN if cls is not Config]


def _args(cls) -> dict[str, str]:
    """A distinct stand-in for every field: no value class checks types."""
    return {f.name: f"<{cls.__name__}.{f.name}>"
            for f in dataclasses.fields(cls)}


def test_the_engine_values_are_found():
    names = {cls.__name__ for cls in VALUE_CLASSES}
    assert Config in FROZEN
    assert {"IntVal", "RecordVal", "MethodDef", "Thread", "Event",
            "SimState", "BinOp", "RunnableEntry", "SetupEntry", "RunResult",
            "TraceRecord", "_Token"} <= names


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__qualname__)
class TestValueClass:
    def test_is_slotted_without_a_dict(self, cls):
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert cls.__slots__ == names
        assert cls.__match_args__ == names
        assert not hasattr(cls(**_args(cls)), "__dict__")

    def test_signature_matches_the_fields(self, cls):
        params = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING
             else f.default) for f in dataclasses.fields(cls)]

    def test_init_stores_each_field_without_setattr(self, cls):
        args = _args(cls)
        by_position = cls(*args.values())
        by_keyword = cls(**args)
        for name, value in args.items():
            assert getattr(by_position, name) == value
            assert getattr(by_keyword, name) == value
        assert "__setattr__" not in cls.__init__.__code__.co_names

    def test_assigning_a_field_raises(self, cls):
        value = cls(**_args(cls))
        for name in _args(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)

    def test_assigning_a_name_that_is_no_field_raises(self, cls):
        value = cls(**_args(cls))
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match="cannot assign to field 'other'"):
            value.other = 0
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match="cannot delete field 'other'"):
            del value.other

    def test_equal_values_hash_equal(self, cls):
        args = _args(cls)
        a, b = cls(**args), cls(*args.values())
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)

    def test_replace_round_trips(self, cls):
        args = _args(cls)
        value = cls(**args)
        assert dataclasses.replace(value) == value
        for name in args:
            changed = dataclasses.replace(value, **{name: "new"})
            assert changed == cls(**{**args, name: "new"})
            assert dataclasses.replace(changed, **{name: args[name]}) == value


def _twin(cls, decorate):
    """A fresh class with the same name and fields, built by ``decorate``."""
    fields = dataclasses.fields(cls)
    twin = type(cls.__name__, (), {
        "__annotations__": {f.name: f.type for f in fields},
        **{f.name: f.default for f in fields
           if f.default is not dataclasses.MISSING}})
    twin.__qualname__ = cls.__qualname__
    return decorate(twin)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__qualname__)
class TestDataclassMethods:
    def test_repr_is_the_plain_dataclass_repr(self, cls):
        plain = _twin(cls, dataclasses.dataclass(frozen=True))
        args = _args(cls)
        assert repr(cls(**args)) == repr(plain(**args))
        assert hash(cls(**args)) == hash(plain(**args))

    def test_another_value_class_with_equal_fields_is_unequal(self, cls):
        other = _twin(cls, value_class)
        args = _args(cls)
        a, b = cls(**args), other(**args)
        assert other is not cls and repr(a) == repr(b)
        assert not a == b and a != b
        assert not b == a and b != a

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"])
    def test_a_clone_is_equal_and_frozen(self, cls, clone):
        value = cls(**_args(cls))
        back = clone(value)
        assert type(back) is cls and back == value
        for name in _args(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(back, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.other = 0


@pytest.mark.parametrize("cls", [c for c in VALUE_CLASSES if _args(c)],
                         ids=lambda c: c.__qualname__)
def test_a_value_that_holds_itself_reprs_as_the_dataclass_does(cls):
    plain = _twin(cls, dataclasses.dataclass(frozen=True))
    first = dataclasses.fields(cls)[0].name
    texts = []
    for c in (cls, plain):
        box: list = []
        value = c(**{**_args(cls), first: box})
        box.append(value)
        texts.append(repr(value))
    assert texts[0] == texts[1] and "[...]" in texts[0]


def test_equal_fields_of_different_engine_values_are_unequal():
    assert IntVal(1) != BoolVal(True) and IntVal(1) == IntVal(True)
    assert VoidVal() != NullOid() and VoidVal() == VoidVal()


def test_an_undocumented_class_names_its_parameters():
    assert IntVal.__doc__ == "IntVal(value)"
    assert ClassDef.__doc__ == "ClassDef(name, attributes=())"
    assert SimState.__doc__ == "SimState(ds, cs, es, next_tid=0, next_seq=0)"
    assert NullOid.__doc__.startswith("The null object reference")


def test_decorating_runs_one_code_generation(monkeypatch):
    calls = {"exec": 0, "compile": 0, "signature": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("exec", "compile"):
        monkeypatch.setattr(builtins, name, counting(name, getattr(builtins,
                                                                   name)))
    monkeypatch.setattr(inspect, "signature",
                        counting("signature", inspect.signature))

    class Fresh:
        a: int
        b: str = "b"

    Fresh = value_class(Fresh)
    monkeypatch.undo()
    assert calls == {"exec": 1, "compile": 1, "signature": 0}
    value = Fresh(1)
    assert (value.a, value.b) == (1, "b")
    assert repr(value) == "test_decorating_runs_one_code_generation.<locals>" \
        ".Fresh(a=1, b='b')"
    assert value == Fresh(1, "b") and hash(value) == hash(Fresh(a=1))
    assert Fresh.__doc__ == "Fresh(a, b='b')"
