"""The contract every frozen value of the engine keeps.

The engine's immutable values are built by ``smm.universe.value_class``:
slotted frozen dataclasses whose ``__init__`` stores each field through its
slot. Each one must still behave as the plain frozen dataclass it replaces.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import smm.actions
import smm.frontend
import smm.state
import smm.universe
import smm.variation
import smm.vm
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
