from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import smm.universe
from smm import (
    AttrDef, BoolVal, ClassDef, ClassType, INT, IntVal, MethodDef,
    ModelError, NULL_OID, OidVal, OpSig, RecordVal, StoredObject, VOID,
    VOID_VAL, super_chain, validate_model,
)
from smm.actions import Jump, LocalConst, NewLocal, ReturnConst
from smm.universe import Hierarchy, Problem, same_kind, value_fits

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


class TestClassAttributes:
    def test_root_class_first(self):
        a, b, c = (AttrDef(n, INT, IntVal(0)) for n in "abc")
        classes = {"A": ClassDef("A", (a,)), "B": ClassDef("B", (b,)),
                   "C": ClassDef("C", (c,))}
        scl = {"B": ("A",), "C": ("B",)}
        hierarchy = Hierarchy(classes, scl)
        assert hierarchy.object_class("C") == ClassDef("C", (a, b, c))
        assert hierarchy.object_class("A") == ClassDef("A", (a,))

    def test_every_class_after_its_superclasses(self):
        # D extends B and C, and C extends B: method lookup walks D, B, C,
        # but a D object holds B's attributes before C's, as a C does.
        b, c, d = (AttrDef(n, INT, IntVal(0)) for n in "bcd")
        classes = {"B": ClassDef("B", (b,)), "C": ClassDef("C", (c,)),
                   "D": ClassDef("D", (d,))}
        scl = {"C": ("B",), "D": ("B", "C")}
        hierarchy = Hierarchy(classes, scl)
        assert hierarchy.chain("D") == super_chain("D", scl) == ("D", "B", "C")
        assert hierarchy.roots_first("D") == ["B", "C", "D"]
        assert hierarchy.object_class("D").attributes == (b, c, d)
        assert hierarchy.object_class("C").attributes == (b, c)

    def test_unknown_superclass_contributes_nothing(self):
        a = AttrDef("a", INT, IntVal(0))
        hierarchy = Hierarchy({"A": ClassDef("A", (a,))}, {"A": ("Zed",)})
        assert hierarchy.object_class("A").attributes == (a,)


class TestValidateModel:
    def test_buffer_tables_are_valid(self):
        classes, scl, mm = buffer_tables()
        assert validate_model(Hierarchy(classes, scl), mm) == []

    def test_duplicate_attribute(self):
        cls = ClassDef("X", (AttrDef("a", INT, IntVal(0)),
                             AttrDef("a", INT, IntVal(0))))
        problems = validate_model(Hierarchy({"X": cls}, {}), {})
        assert any("duplicate attribute" in p.message for p in problems)

    def test_attribute_redeclared_along_a_chain(self):
        base = ClassDef("B", (AttrDef("n", INT, IntVal(0)),))
        mid = ClassDef("M", ())
        sub = ClassDef("C", (AttrDef("k", INT, IntVal(0)),
                             AttrDef("n", INT, IntVal(1))))
        problems = validate_model(
            Hierarchy({"B": base, "M": mid, "C": sub},
                      {"M": ("B",), "C": ("M",)}), {})
        assert problems == [
            Problem(("attr", "C", 1), "class 'C': attribute 'n' is already "
                                      "declared by superclass 'B'")]

    def test_attribute_declared_by_two_unrelated_superclasses(self):
        classes = {"P": ClassDef("P", (AttrDef("n", INT, IntVal(0)),)),
                   "Q": ClassDef("Q", (AttrDef("n", INT, IntVal(0)),)),
                   "R": ClassDef("R", ()),
                   "S": ClassDef("S", (AttrDef("s", INT, IntVal(0)),))}
        problems = validate_model(
            Hierarchy(classes, {"R": ("P", "Q"), "S": ("R",)}), {})
        # Reported once, at the one of the two that comes later in R's
        # record, although S inherits the conflict too.
        assert problems == [
            Problem(("attr", "Q", 0), "class 'R': attribute 'n' is declared "
                                      "by both 'P' and 'Q'")]

    def test_redeclaration_below_a_diamond_is_reported_once(self):
        # D extends B and C, and C extends B: B's attributes come before
        # C's in a D object, so only C's redeclaration is at fault.
        classes = {"B": ClassDef("B", (AttrDef("n", INT, IntVal(0)),)),
                   "C": ClassDef("C", (AttrDef("n", INT, IntVal(1)),)),
                   "D": ClassDef("D", ())}
        problems = validate_model(
            Hierarchy(classes, {"C": ("B",), "D": ("B", "C")}), {})
        assert problems == [
            Problem(("attr", "C", 0), "class 'C': attribute 'n' is already "
                                      "declared by superclass 'B'")]

    def test_init_value_must_fit_type(self):
        cls = ClassDef("X", (AttrDef("a", INT, BoolVal(True)),))
        problems = validate_model(Hierarchy({"X": cls}, {}), {})
        assert any("does not fit" in p.message for p in problems)

    def test_unknown_superclass(self):
        cls = ClassDef("X", ())
        problems = validate_model(Hierarchy({"X": cls}, {"X": ("Ghost",)}), {})
        assert any("unknown class" in p.message for p in problems)

    def test_method_signature_mismatch(self):
        sig_a = OpSig("f", (), VOID)
        sig_b = OpSig("g", (), VOID)
        meth = MethodDef(sig_b, (), (ReturnConst(VOID_VAL),))
        problems = validate_model(Hierarchy({"X": ClassDef("X", ())}, {}),
                                  {"X": {sig_a: meth}})
        assert any("different signature" in p.message for p in problems)

    def test_empty_body_rejected(self):
        sig = OpSig("f", (), VOID)
        problems = validate_model(Hierarchy({"X": ClassDef("X", ())}, {}),
                                  {"X": {sig: MethodDef(sig, (), ())}})
        assert any("empty body" in p.message for p in problems)

    def test_jump_target_out_of_range(self):
        sig = OpSig("f", (), VOID)
        meth = MethodDef(sig, (), (Jump(7), ReturnConst(VOID_VAL)))
        problems = validate_model(Hierarchy({"X": ClassDef("X", ())}, {}),
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
        assert validate_model(Hierarchy({"X": ClassDef("X", ())}, {}),
                              mm) == []


class TestIntLiterals:
    """``Int`` is signed 64-bit in built models too: a literal outside the
    range is reported at its attribute or action."""

    SIG = OpSig("f", (), INT)

    def _problems(self, *body):
        meth = MethodDef(self.SIG, (), body)
        return validate_model(Hierarchy({"X": ClassDef("X", ())}, {}),
                              {"X": {self.SIG: meth}})

    @pytest.mark.parametrize("value, fits", [
        (2**63 - 1, True), (-2**63, True), (2**63, False),
        (-2**63 - 1, False), (10**5000, False)],
        ids=["max", "min", "max+1", "min-1", "5001-digits"])
    def test_an_int_fits_only_inside_the_range(self, value, fits):
        assert value_fits(IntVal(value), INT) is fits

    def test_let_literal(self):
        assert self._problems(NewLocal("x", INT, IntVal(2**63)),
                              ReturnConst(IntVal(0))) == [
            Problem(("action", "X", self.SIG, 0),
                    "method X.f: action 0 initial value does not fit type "
                    "Int")]

    def test_set_literal(self):
        assert self._problems(NewLocal("x", INT, IntVal(0)),
                              LocalConst("x", IntVal(-2**63 - 1)),
                              ReturnConst(IntVal(0))) == [
            Problem(("action", "X", self.SIG, 1),
                    "method X.f: action 1 uses an integer outside the "
                    "signed 64-bit range")]

    def test_return_literal(self):
        assert self._problems(ReturnConst(IntVal(10**5000))) == [
            Problem(("action", "X", self.SIG, 0),
                    "method X.f: action 0 uses an integer outside the "
                    "signed 64-bit range")]

    def test_literals_at_the_ends_of_the_range_are_valid(self):
        assert self._problems(NewLocal("x", INT, IntVal(2**63 - 1)),
                              LocalConst("x", IntVal(-2**63)),
                              ReturnConst(IntVal(2**63 - 1))) == []


class TestCycleDiagnostics:
    """Each class whose walk meets a cycle is reported at its own name,
    and the message names the first class that walk meets twice."""

    @staticmethod
    def _problems(scl):
        return validate_model(
            Hierarchy({name: ClassDef(name) for name in scl}, scl), {})

    @staticmethod
    def _cycle(name, through):
        return Problem(("class", name),
                       f"inheritance cycle through class {through!r}")

    def test_a_class_names_the_cycle_its_walk_closes(self):
        # C's walk goes C, A, B and meets A again, although C extends A
        # and A extends C close a cycle through C as well.
        scl = {"A": ("B", "C"), "B": ("A",), "C": ("A",)}
        assert self._problems(scl) == [self._cycle("A", "A"),
                                       self._cycle("B", "B"),
                                       self._cycle("C", "A")]

    def test_a_class_extending_into_a_three_cycle(self):
        scl = {"X": ("A",), "A": ("B",), "B": ("C",), "C": ("A",)}
        assert self._problems(scl) == [self._cycle("X", "A"),
                                       self._cycle("A", "A"),
                                       self._cycle("B", "B"),
                                       self._cycle("C", "C")]

    def test_a_class_extending_itself(self):
        scl = {"A": ("A",), "B": ("A",)}
        assert self._problems(scl) == [self._cycle("A", "A"),
                                       self._cycle("B", "A")]


class TestValueCompat:
    def test_null_fits_any_class_type(self):
        assert value_fits(NULL_OID, ClassType("Buffer"))

    def test_subclass_reference_fits_superclass_slot(self):
        ds = {0: StoredObject("Sub", RecordVal())}
        classes = {c: ClassDef(c) for c in ("Base", "Sub", "Other")}
        hierarchy = Hierarchy(classes, {"Sub": ("Base",)})
        assert value_fits(OidVal(0), ClassType("Base"), ds, hierarchy)
        assert not value_fits(OidVal(0), ClassType("Other"), ds, hierarchy)

    def test_chains_come_from_the_hierarchy_alone(self, monkeypatch):
        # Ghost is missing from the class table and Loop extends itself:
        # the hierarchy has no chain for either, so each counts as its own
        # one-class chain, and no walk is made for them.
        classes = {c: ClassDef(c) for c in ("Base", "Sub", "Loop")}
        hierarchy = Hierarchy(classes, {"Sub": ("Base",), "Loop": ("Loop",)})
        assert hierarchy.chain("Sub") == ("Sub", "Base")

        def no_walk(cls, scl):
            raise AssertionError(f"walked the chain of {cls!r}")

        monkeypatch.setattr(smm.universe, "super_chain", no_walk)
        ds = {oid: StoredObject(cls, RecordVal())
              for oid, cls in enumerate(("Sub", "Ghost", "Loop"))}
        fits = {(oid, t): value_fits(OidVal(oid), ClassType(t), ds, hierarchy)
                for oid in ds for t in ("Base", "Sub", "Ghost", "Loop")}
        assert {key for key, fit in fits.items() if fit} == {
            (0, "Base"), (0, "Sub"), (1, "Ghost"), (2, "Loop")}

    def test_same_kind_groups_references(self):
        assert same_kind(NULL_OID, OidVal(1))
        assert same_kind(IntVal(1), IntVal(2))
        assert not same_kind(IntVal(1), BoolVal(True))

    def test_new_local_validation_sees_unknown_class(self):
        sig = OpSig("f", (), VOID)
        meth = MethodDef(sig, (), (NewLocal("x", ClassType("Ghost"), NULL_OID),
                                   ReturnConst(VOID_VAL)))
        problems = validate_model(Hierarchy({"X": ClassDef("X", ())}, {}),
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
