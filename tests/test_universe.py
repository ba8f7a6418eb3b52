from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from smm import (
    AttrDef, BoolVal, ClassDef, ClassType, INT, IntVal, MethodDef,
    ModelError, NULL_OID, OidVal, OpSig, RecordVal, StoredObject, VOID,
    VOID_VAL, super_chain, validate_model,
)
from smm.actions import Jump, NewLocal, ReturnConst
from smm.universe import same_kind, value_fits

from conftest import buffer_tables


def _recursive_super_chain(cls, scl):
    """The depth-first definition of ``super_chain``, written as a
    recursion: the oracle for the iterative walk."""
    out = []

    def walk(c, path):
        if c in path:
            raise ModelError(f"inheritance cycle through class {c!r}")
        if c not in out:
            out.append(c)
        for sup in scl.get(c, ()):
            walk(sup, path + (c,))

    walk(cls, ())
    return tuple(out)


class TestSuperChain:
    def test_no_superclasses(self):
        assert super_chain("Buffer", {}) == ("Buffer",)

    def test_direct_superclass(self):
        assert super_chain("B", {"B": ("A",)}) == ("B", "A")

    def test_two_level_chain(self):
        # Hand trace of the depth-first walk: C, then B, then A.
        scl = {"C": ("B",), "B": ("A",)}
        assert super_chain("C", scl) == ("C", "B", "A")

    def test_diamond_keeps_first_occurrence(self):
        scl = {"D": ("B", "C"), "B": ("A",), "C": ("A",)}
        assert super_chain("D", scl) == ("D", "B", "A", "C")

    def test_cycle_rejected(self):
        with pytest.raises(ModelError):
            super_chain("A", {"A": ("B",), "B": ("A",)})

    def test_deep_chain_needs_no_recursion(self):
        scl = {f"C{i}": (f"C{i + 1}",) for i in range(1499)}
        chain = super_chain("C0", scl)
        assert chain == tuple(f"C{i}" for i in range(1500))

    def test_long_cycle_rejected(self):
        scl = {f"C{i}": (f"C{(i + 1) % 1500}",) for i in range(1500)}
        with pytest.raises(ModelError, match="cycle through class 'C0'"):
            super_chain("C0", scl)

    @given(st.dictionaries(
        st.sampled_from("ABCDEF"),
        st.lists(st.sampled_from("ABCDEF"), max_size=3).map(tuple)))
    def test_matches_the_recursive_definition(self, scl):
        for cls in "ABCDEF":
            try:
                expected = _recursive_super_chain(cls, scl)
            except ModelError as err:
                with pytest.raises(ModelError) as got:
                    super_chain(cls, scl)
                assert str(got.value) == str(err)
            else:
                assert super_chain(cls, scl) == expected

    @given(st.integers(min_value=1, max_value=6))
    def test_chain_starts_with_its_input(self, depth):
        scl = {f"C{i}": (f"C{i + 1}",) for i in range(depth - 1)}
        chain = super_chain("C0", scl)
        assert chain[0] == "C0"
        assert len(set(chain)) == len(chain)


class TestValidateModel:
    def test_buffer_tables_are_valid(self):
        classes, scl, mm = buffer_tables()
        assert validate_model(classes, scl, mm) == []

    def test_duplicate_attribute(self):
        cls = ClassDef("X", (AttrDef("a", INT, IntVal(0)),
                             AttrDef("a", INT, IntVal(0))))
        problems = validate_model({"X": cls}, {}, {})
        assert any("duplicate attribute" in p.message for p in problems)

    def test_init_value_must_fit_type(self):
        cls = ClassDef("X", (AttrDef("a", INT, BoolVal(True)),))
        problems = validate_model({"X": cls}, {}, {})
        assert any("does not fit" in p.message for p in problems)

    def test_unknown_superclass(self):
        cls = ClassDef("X", ())
        problems = validate_model({"X": cls}, {"X": ("Ghost",)}, {})
        assert any("unknown class" in p.message for p in problems)

    def test_method_signature_mismatch(self):
        sig_a = OpSig("f", (), VOID)
        sig_b = OpSig("g", (), VOID)
        meth = MethodDef(sig_b, (), (ReturnConst(VOID_VAL),))
        problems = validate_model({"X": ClassDef("X", ())}, {},
                                  {"X": {sig_a: meth}})
        assert any("different signature" in p.message for p in problems)

    def test_empty_body_rejected(self):
        sig = OpSig("f", (), VOID)
        problems = validate_model({"X": ClassDef("X", ())}, {},
                                  {"X": {sig: MethodDef(sig, (), ())}})
        assert any("empty body" in p.message for p in problems)

    def test_jump_target_out_of_range(self):
        sig = OpSig("f", (), VOID)
        meth = MethodDef(sig, (), (Jump(7), ReturnConst(VOID_VAL)))
        problems = validate_model({"X": ClassDef("X", ())}, {},
                                  {"X": {sig: meth}})
        assert any("jumps to 7" in p.message for p in problems)

    def test_overloaded_signatures_coexist(self):
        # Identity of an operation is its full signature, so one class can
        # carry two operations of the same name.
        f0 = OpSig("f", (), VOID)
        f1 = OpSig("f", (INT,), VOID)
        mm = {"X": {f0: MethodDef(f0, (), (ReturnConst(VOID_VAL),)),
                    f1: MethodDef(f1, (("p", INT),),
                                  (ReturnConst(VOID_VAL),))}}
        assert validate_model({"X": ClassDef("X", ())}, {}, mm) == []


class TestValueCompat:
    def test_null_fits_any_class_type(self):
        assert value_fits(NULL_OID, ClassType("Buffer"), {})

    def test_subclass_reference_fits_superclass_slot(self):
        ds = {0: StoredObject("Sub", RecordVal())}
        scl = {"Sub": ("Base",)}
        assert value_fits(OidVal(0), ClassType("Base"), scl, ds)
        assert not value_fits(OidVal(0), ClassType("Other"), scl, ds)

    def test_same_kind_groups_references(self):
        assert same_kind(NULL_OID, OidVal(1))
        assert same_kind(IntVal(1), IntVal(2))
        assert not same_kind(IntVal(1), BoolVal(True))

    def test_new_local_validation_sees_unknown_class(self):
        sig = OpSig("f", (), VOID)
        meth = MethodDef(sig, (), (NewLocal("x", ClassType("Ghost"), NULL_OID),
                                   ReturnConst(VOID_VAL)))
        problems = validate_model({"X": ClassDef("X", ())}, {},
                                  {"X": {sig: meth}})
        assert any("unknown class" in p.message for p in problems)


class TestRecordVal:
    def test_set_preserves_field_order(self):
        r = RecordVal((("a", IntVal(1)), ("b", IntVal(2))))
        r2 = r.set("a", IntVal(9))
        assert [n for n, _ in r2.fields] == ["a", "b"]
        assert r2.get("a") == IntVal(9)
        assert r2.get("b") == IntVal(2)

    def test_set_appends_new_field_at_end(self):
        r = RecordVal((("a", IntVal(1)),))
        assert [n for n, _ in r.set("z", IntVal(3)).fields] == ["a", "z"]

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            RecordVal().get("a")
