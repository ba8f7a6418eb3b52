from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

import smm.actions as A
import smm.universe
from smm import (
    Active, AllDone, AttrDef, ClassDef, INT, IntVal, ModelError,
    OidVal, Passive, RecordVal, RunResult, StoredObject, empty_state,
    load_model, parse_model, print_model, render_final_state, run_model,
)
from smm.frontend import render_action, trace_recorder
from smm.universe import Hierarchy, Problem, validate_model
from smm.vm import StepLimit

from modelgen import random_model


class TestParseModel:
    def test_fixture_parses_to_the_expected_shape(self, prodcons_model):
        m = prodcons_model
        assert set(m.classes) == {"Producer", "Consumer", "Buffer"}
        assert len(m.setup) == 4
        kinds = [type(e.kind).__name__ for e in m.setup]
        assert kinds == ["Active", "Active", "Active", "Passive"]
        assert m.setup[0].kind.prio == 10
        assert m.config["runnables"] == "conc"
        assert m.config["scheduler"] == "rr"

    def test_single_class(self):
        m = parse_model("class Buffer { attr data: Int = -1; }")
        assert m.classes["Buffer"] == ClassDef(
            "Buffer", (AttrDef("data", INT, IntVal(-1)),))

    def test_goto_out_of_range_is_diagnosed_with_location(self):
        src = """
        class A { }
        op A.f(): Void {
          let a: Int = 0;
          let b: Int = 1;
          let c: Int = 2;
          goto 99;
          return void;
        }
        """
        with pytest.raises(ModelError) as err:
            parse_model(src)
        (diag,) = err.value.diagnostics
        assert "99" in diag.message
        assert diag.line == 7

    def test_unknown_attr_reference(self):
        src = """
        class A { }
        op A.f(): Void { let x: Int = 0; loadattr x ghost; return void; }
        """
        with pytest.raises(ModelError) as err:
            parse_model(src)
        assert any("ghost" in d.message for d in err.value.diagnostics)

    def test_link_attrs_count_as_known(self):
        src = """
        class A { }
        class B { }
        op A.f(): Void {
          let x: B = null;
          loadattr x partner;
          return void;
        }
        setup {
          a: A passive links [partner];
          partner: B passive;
        }
        """
        parse_model(src)

    def test_duplicate_setup_names(self):
        src = """
        class A { }
        setup { a: A passive; a: A passive; }
        """
        with pytest.raises(ModelError) as err:
            parse_model(src)
        assert any("duplicate" in d.message for d in err.value.diagnostics)

    def test_ambiguous_call_sites_rejected(self):
        src = """
        class A { }
        class B { }
        op A.f(p: Int): Void { return void; }
        op B.f(q: Int): Bool { return true; }
        op A.g(): Void {
          let t: B = null;
          let x: Int = 0;
          call t.f(x) -> r;
          return void;
        }
        """
        with pytest.raises(ModelError) as err:
            parse_model(src)
        assert any("ambiguous" in d.message for d in err.value.diagnostics)

    def test_active_start_op_must_be_nullary(self):
        src = """
        class A { }
        op A.f(p: Int): Void { return void; }
        setup { a: A active f prio 1; }
        """
        with pytest.raises(ModelError) as err:
            parse_model(src)
        assert any("no parameters" in d.message for d in err.value.diagnostics)

    def test_active_start_op_prefers_the_nullary_overload(self):
        src = """
        class A { }
        op A.f(): Void { return void; }
        op A.f(p: Int): Void { return void; }
        setup { a: A active f prio 1; }
        """
        m = parse_model(src)
        assert m.setup[0].kind.op.param_types == ()

    def test_signature_types_must_name_known_classes(self):
        src = "class A { }\nop A.f(p: Ghost): Void { return void; }"
        with pytest.raises(ModelError) as err:
            parse_model(src)
        (diag,) = err.value.diagnostics
        assert "Ghost" in diag.message and diag.line == 2

    def test_labels_compile_to_indices(self):
        src = """
        class A { }
        op A.f(): Void {
          let c: Bool = false;
        again:
          ifnot c goto done;
          goto again;
        done:
          return void;
        }
        """
        m = parse_model(src)
        sig = next(iter(m.meth_map["A"]))
        body = m.meth_map["A"][sig].body
        assert body[1].target == 3
        assert body[2].target == 1


MALFORMED = [
    "class { }",
    "class A extends { }",
    "class A { attr : Int = 0; }",
    "class A { attr x: Int = true; }",
    "class A { attr x: Int = 0 }",
    "class A { attr x: Int = 0; attr x: Int = 1; }",
    "op A.f(): Void { return void; }",
    "class A { } op A.f(): Void { }",
    "class A { } op A.f(): Void { frobnicate x; }",
    "class A { } op A.f(): Void { goto nowhere; return void; }",
    "class A { } op A.f(): Void { let x: Ghost = null; return void; }",
    "class A { } op A.f(): Void { add x; return void; }",
    "class A { } op A.f(): Void { loadparam x p; return void; }",
    "class A { } op A.f(): Void { call t.ghost() -> r; return void; }",
    "class A { } setup { a: Ghost passive; }",
    "class A { } setup { a: A active ghost prio 1; }",
    "class A { } setup { a: A passive links [ghost]; }",
    "class A { } setup { a: A active prio 1; }",
    "class A { } config { runnables: sometimes; }",
    "class A { } config { colour: blue; }",
]


class TestDiagnostics:
    @pytest.mark.parametrize("source", MALFORMED)
    def test_malformed_sources_fail_with_located_diagnostics(self, source):
        with pytest.raises(ModelError) as err:
            parse_model(source)
        assert err.value.diagnostics
        for diag in err.value.diagnostics:
            assert diag.line is not None and diag.column is not None


class TestLoadModel:
    def test_line_ends_read_as_in_text_mode(self, tmp_path, prodcons_model):
        source = print_model(prodcons_model)
        for end in ("\r\n", "\r"):
            path = tmp_path / "model.smm"
            path.write_bytes(source.replace("\n", end).encode())
            assert load_model(path) == prodcons_model

    def test_one_leading_byte_order_mark_is_skipped(self, tmp_path,
                                                    prodcons_model):
        path = tmp_path / "model.smm"
        source = print_model(prodcons_model).encode()
        path.write_bytes(b"\xef\xbb\xbf" + source)
        assert load_model(path) == prodcons_model
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf" + source)
        with pytest.raises(ModelError, match="unexpected character"):
            load_model(path)

    @pytest.mark.parametrize("data,line,column,byte", [
        (b"class A { }\n\xff\xfe\n", 2, 1, "0xff"),
        (b"class A { }\r\nclass B { }\r\xc3\xa9\xc3(", 3, 2, "0xc3"),
        (b"class \xe2\x82", 1, 7, "0xe2"),
        # A byte order mark is not a column.
        (b"\xef\xbb\xbfclass \xff", 1, 7, "0xff"),
    ])
    def test_a_byte_that_is_not_utf8_is_located(self, tmp_path, data, line,
                                                column, byte):
        path = tmp_path / "bad.smm"
        path.write_bytes(data)
        with pytest.raises(ModelError) as err:
            load_model(path)
        [diag] = err.value.diagnostics
        assert (diag.line, diag.column) == (line, column)
        assert diag.message.startswith(f"byte {byte} is not UTF-8 (")


HUGE = "9" * 5000

# Sources with the problems each must report, in source order, as
# (line, message fragment): every problem once, at the line of the element
# it names, and all of them in one pass.
LOCATED = [
    ("class A { }\nsetup { o: Nope active go prio 1; }",
     [(2, "unknown class 'Nope'")]),
    ("class A { }\nop A.f(): Void {\n  goto nowhere;\n  return void;\n}",
     [(3, "unknown label 'nowhere'")]),
    ("class A { }\nclass B extends Zed { }",
     [(2, "extends unknown class 'Zed'")]),
    ("class A { }\nclass B {\n  attr p: Ghost = null;\n}",
     [(3, "unknown class type 'Ghost'")]),
    ("class A { }\nop A.f(): Void {\n  let x: Ghost = null;\n"
     "  return void;\n}",
     [(3, "unknown class type 'Ghost'")]),
    ("class A { }\nop A.f(): Void {\n  let y: A = null;\n  new y Nope;\n"
     "  return void;\n}",
     [(4, "creates unknown class 'Nope'")]),
    ("class A { }\nclass B extends C { }\nclass C extends B { }",
     [(2, "inheritance cycle"), (3, "inheritance cycle")]),
    ("class A extends B { attr b: Int = 0; }\nclass B extends A { }\n"
     "setup { a: A passive links [b]; b: B passive; }",
     [(1, "inheritance cycle"), (2, "inheritance cycle"),
      (3, "link 'b' of 'a' would overwrite a non-reference attribute")]),
    ("class A { attr n: Int = 0; }\nclass B extends A {\n"
     "  attr n: Int = 1;\n}",
     [(3, "attribute 'n' is already declared by superclass 'A'")]),
    ("class A { }\nclass B extends Zed { }\nop B.f(): Void {\n"
     "  goto nowhere;\n  return void;\n}",
     [(2, "extends unknown class 'Zed'"), (4, "unknown label 'nowhere'")]),
    ("class A { }\nclass A { }", [(2, "duplicate class 'A'")]),
    ("class A { }\nop A.f(): Void { return void; }\n"
     "op A.f(): Void { return void; }",
     [(3, "duplicate method A.f")]),
    ("class A { }\nop A.f(): Void {\nL: goto L;\nL: return void;\n}",
     [(4, "duplicate label 'L'")]),
    ("class A { }\nop A.f(): Void { return void; }\n"
     "op A.f(): Int { return 0; }\nsetup { a: A active f prio 1; }",
     [(4, "start operation 'f' is ambiguous for class 'A'")]),
    ("class A { }\nop A.f(): Void { return void; }\n"
     "setup { a: A active f prio -1; }",
     [(3, "setup object 'a' has a negative priority")]),
    ("class A { }\nop A.f(): Void {\n  let x: Int = true;\n"
     "  return void;\n}",
     [(3, "method A.f: action 0 initial value does not fit type Int")]),
    ("class A { }\nop A.f(p: Int, p: Int): Void { return void; }",
     [(2, "method A.f: duplicate parameter 'p'")]),
    ("class A { }\n  $", [(2, "unexpected character '$'")]),
    ("class A { }\nclass Int { attr me: Int = 0; }",
     [(2, "class 'Int' has the name of a built-in type")]),
    # An integer outside the signed 64-bit range of ``Int``.
    ("class A {\n  attr n: Int = 10000000000000000000;\n}",
     [(2, "integer outside the signed 64-bit range")]),
    # An integer longer than ``int`` converts from text, at each place
    # the grammar reads one.
    (f"class A {{\n  attr n: Int = {HUGE};\n}}",
     [(2, "integer of 5000 digits is too long")]),
    (f"class A {{ }}\nop A.f(): Void {{\n  goto {HUGE};\n}}",
     [(3, "integer of 5000 digits is too long")]),
    ("class A { }\nop A.f(): Void {\n  let t: A = null;\n"
     f"  send t.f() prio {HUGE};\n  return void;\n}}",
     [(4, "integer of 5000 digits is too long")]),
    ("class A { }\nop A.f(): Void { return void; }\n"
     f"setup {{ a: A active f prio -{HUGE}; }}",
     [(3, "integer of 5000 digits is too long")]),
    # The three ways a start operation or a call site fails to resolve.
    ("class A { }\nop A.f(): Void { return void; }\n"
     "setup { a: A active g prio 1; }",
     [(3, "class 'A' does not implement 'g'")]),
    ("class A { }\nop A.f(p: Int): Void { return void; }\n"
     "setup { a: A active f prio 1; }",
     [(3, "start operation 'f' must take no parameters")]),
    ("class A { }\nclass B { }\nop A.f(p: Int): Void { return void; }\n"
     "op B.f(p: Int): Int { return 0; }\nop A.go(): Void {\n"
     "  let t: A = null;\n  let x: Int = 0;\n  send t.f(x) prio 1;\n"
     "  return void;\n}",
     [(8, "operation 'f' with 1 argument(s) is ambiguous")]),
]


class TestLocatedDiagnostics:
    @pytest.mark.parametrize("source, expected", LOCATED, ids=lambda v: (
        v.replace(HUGE, "<5000 digits>")
        if isinstance(v, str) and HUGE in v else None))
    def test_each_problem_is_reported_once_where_it_is(self, source,
                                                       expected):
        with pytest.raises(ModelError) as err:
            parse_model(source)
        found = [(d.line, d.message) for d in err.value.diagnostics]
        assert len(found) == len(expected), found
        for (line, message), (want_line, fragment) in zip(found, expected):
            assert line == want_line and fragment in message, found


# Sources whose whole ModelError text is pinned, one located line each.
CYCLES = [
    ("class A extends B, C { }\nclass B extends A { }\n"
     "class C extends A { }",
     ["1:7: inheritance cycle through class 'A'",
      "2:7: inheritance cycle through class 'B'",
      "3:7: inheritance cycle through class 'A'"]),
    ("class X extends A { }\nclass A extends B { }\n"
     "class B extends C { }\nclass C extends A { }",
     ["1:7: inheritance cycle through class 'A'",
      "2:7: inheritance cycle through class 'A'",
      "3:7: inheritance cycle through class 'B'",
      "4:7: inheritance cycle through class 'C'"]),
    ("class A extends A { }\n  class B extends A { }",
     ["1:7: inheritance cycle through class 'A'",
      "2:9: inheritance cycle through class 'A'"]),
]


class TestCycleDiagnostics:
    @pytest.mark.parametrize("source, expected", CYCLES)
    def test_each_class_names_the_class_its_walk_meets_twice(self, source,
                                                            expected):
        with pytest.raises(ModelError) as err:
            parse_model(source)
        assert [str(d) for d in err.value.diagnostics] == expected


# Sources whose whole ModelError text is pinned.
PINNED = [
    # A section keyword is expected at the top level.
    ("123", ["1:1: expected 'class', 'op', 'setup' or 'config'"]),
    ("foo { }",
     ["1:1: expected 'class', 'op', 'setup' or 'config', found 'foo'"]),
    ("class A { }\nsetup { a: A bogus; }",
     ["2:14: expected 'passive' or 'active'"]),
    # Only the body a duplicate method keeps is checked for call sites,
    # as it is for every other rule: the discarded one calls ``g``.
    ("class A { }\nop A.f(): Void {\n  let x: A = null;\n"
     "  let r: Void = void;\n  call x.g() -> r;\n  return void;\n}\n"
     "op A.f(): Void {\n  return void;\n}",
     ["8:4: duplicate method A.f"]),
]


@pytest.mark.parametrize("source, expected", PINNED)
def test_the_whole_diagnostic_text_is_pinned(source, expected):
    with pytest.raises(ModelError) as err:
        parse_model(source)
    assert [str(d) for d in err.value.diagnostics] == expected


class TestSetupLinks:
    # Worker inherits ``b: Buffer``; the setup links a Worker into it.
    WRONG_CLASS = ("class Buffer { }\nclass Base { attr b: Buffer = null; }\n"
                   "class Worker extends Base { }\nsetup {\n"
                   "  w: Worker passive links [b];\n  b: {cls} passive;\n}")

    def test_a_link_must_fit_the_attribute_type(self):
        with pytest.raises(ModelError) as err:
            parse_model(self.WRONG_CLASS.replace("{cls}", "Worker"))
        assert [str(d) for d in err.value.diagnostics] == [
            "5:3: link 'b' of 'w' would store a 'Worker' in an attribute "
            "of type Buffer"]

    def test_a_subclass_object_fits(self):
        text = self.WRONG_CLASS.replace("{cls}", "Special")
        model = parse_model("class Special extends Buffer { }\n" + text)
        assert model.setup[0].links == ("b",)


class TestAttributeReferences:
    # Code of C writes n, which only D declares.
    SIBLINGS = ("class C { }\nclass D { attr n: Int = 0; }\n{joint}"
                "op C.f(): Void { let v: Int = 1; setattr n v; "
                "return void; }\n")

    def test_a_superclass_may_touch_a_sibling_superclass_attribute(self):
        text = self.SIBLINGS.replace("{joint}", "class X extends C, D { }\n")
        model = parse_model(text + "setup { x: X active f prio 1; }\n")
        result = run_model(model)
        assert isinstance(result.halt, AllDone)
        assert result.final.ds[0].attrs == RecordVal((("n", IntVal(1)),))

    def test_without_a_joint_subclass_the_name_is_unknown(self):
        with pytest.raises(ModelError) as err:
            parse_model(self.SIBLINGS.replace("{joint}",
                                              "class X extends C { }\n"))
        assert [str(d) for d in err.value.diagnostics] == [
            "4:34: unknown attribute 'n' for class 'C'"]


def _chain_source(depth: int) -> str:
    """A ``depth``-deep single-inheritance chain with one attribute per
    class. The leaf's method reads the root's attribute and writes its
    own, the root's reads the leaf's, and the leaf object is linked."""
    leaf = f"C{depth - 1}"
    lines = ["class C0 { attr a0: Int = 0; }"]
    lines += [f"class C{i} extends C{i - 1} {{ attr a{i}: Int = 0; }}"
              for i in range(1, depth)]
    lines += [f"op {leaf}.go(): Void {{ let x: Int = 0; loadattr x a0; "
              f"setattr a{depth - 1} x; return void; }}",
              f"op C0.f(): Void {{ let x: Int = 0; loadattr x a{depth - 1}; "
              f"return void; }}",
              f"setup {{ o: {leaf} active go prio 0 links [p]; "
              f"p: C0 passive; }}"]
    return "\n".join(lines) + "\n"


def _inherited_reads_source(depth: int) -> str:
    """A ``depth``-deep single-inheritance chain in which every class has
    a method that reads the root's attribute."""
    lines = ["class C0 { attr a0: Int = 0; }"]
    lines += [f"class C{i} extends C{i - 1} {{ }}" for i in range(1, depth)]
    lines += [f"op C{i}.get(): Int {{ let x: Int = 0; loadattr x a0; "
              f"return x; }}" for i in range(depth)]
    return "\n".join(lines) + "\n"


def _many_names_source(depth: int) -> str:
    """A ``depth``-deep chain with one attribute per class, whose leaf
    reads every attribute it inherits and whose root writes every one
    its subclasses declare."""
    lines = ["class C0 { attr a0: Int = 0; }"]
    lines += [f"class C{i} extends C{i - 1} {{ attr a{i}: Int = 0; }}"
              for i in range(1, depth)]
    reads = " ".join(f"loadattr x a{i};" for i in range(depth - 1))
    writes = " ".join(f"setattr a{i} x;" for i in range(1, depth))
    lines += [f"op C{depth - 1}.get(): Void {{ let x: Int = 0; {reads} "
              f"return void; }}",
              f"op C0.put(): Void {{ let x: Int = 0; {writes} "
              f"return void; }}"]
    return "\n".join(lines) + "\n"


def _count_visits(monkeypatch) -> list[int]:
    """Count the classes ``_linearize`` walks and ``Hierarchy.below`` and
    ``Hierarchy.above`` return from now on; the count is the list's one
    item."""
    walk = smm.universe._linearize
    visited = [0]

    def counting_walk(cls, scl):
        pre, post = walk(cls, scl)
        visited[0] += len(pre)
        return pre, post

    def counting(method):
        def wrapper(self, classes):
            found = method(self, classes)
            visited[0] += len(found)
            return found
        return wrapper

    monkeypatch.setattr(smm.universe, "_linearize", counting_walk)
    for name in ("below", "above"):
        monkeypatch.setattr(smm.universe.Hierarchy, name, counting(
            getattr(smm.universe.Hierarchy, name)))
    return visited


class TestLinearLoading:
    def test_chain_walks_visit_each_class_a_few_times(self, monkeypatch):
        depth = 1000
        visited = _count_visits(monkeypatch)
        parse_model(_chain_source(depth))
        assert visited[0] <= 10 * depth

    def test_inherited_reads_visit_each_class_a_few_times(self,
                                                          monkeypatch):
        depth = 1000
        visited = _count_visits(monkeypatch)
        parse_model(_inherited_reads_source(depth))
        assert visited[0] <= 10 * depth

    def test_one_class_reading_many_names_visits_each_class_a_few_times(
            self, monkeypatch):
        depth = 1000
        visited = _count_visits(monkeypatch)
        parse_model(_many_names_source(depth))
        assert visited[0] <= 10 * depth

    def test_a_load_builds_one_hierarchy(self, monkeypatch):
        built = []
        init = smm.universe.Hierarchy.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(smm.universe.Hierarchy, "__init__", counting)
        parse_model(_inherited_reads_source(10))
        assert len(built) == 1

    def test_a_long_method_hashes_its_signature_a_few_times(self,
                                                            monkeypatch):
        # A location key per action would hash the signature once each.
        hashed = [0]
        hash_sig = smm.universe.OpSig.__hash__

        def counting(self):
            hashed[0] += 1
            return hash_sig(self)

        monkeypatch.setattr(smm.universe.OpSig, "__hash__", counting)
        model = parse_model("class A { }\nop A.go(): Void {\n"
                            + "  let x: Int = 0;\n" * 1999
                            + "  return void;\n}\n"
                            "setup { a: A active go prio 1; }\n")
        assert hashed[0] <= 20
        [meth] = model.meth_map["A"].values()
        assert len(meth.body) == 2000

    def test_a_10000_deep_chain_loads(self):
        model = parse_model(_chain_source(10_000))
        assert len(model.classes) == 10_000
        assert model.setup[0].kind.op.name == "go"

    def test_a_10000_deep_chain_of_inherited_reads_loads(self):
        model = parse_model(_inherited_reads_source(10_000))
        assert len(model.meth_map) == 10_000


class TestRoundTrip:
    def test_fixture_round_trips(self, prodcons_model):
        text = print_model(prodcons_model)
        assert parse_model(text) == prodcons_model

    def test_deadlock_round_trips(self, deadlock_model):
        assert parse_model(print_model(deadlock_model)) == deadlock_model

    def test_generated_models_round_trip(self):
        rng = random.Random(1729)
        for i in range(50):
            model = random_model(rng)
            text = print_model(model)
            reparsed = parse_model(text)
            assert reparsed == model, f"case {i} failed:\n{text}"

    def test_multiple_inheritance_models_round_trip(self):
        rng = random.Random(1730)
        for i in range(40):
            model = random_model(rng, supers=3)
            text = print_model(model)
            assert parse_model(text) == model, f"case {i} failed:\n{text}"

    def test_linked_models_round_trip(self):
        rng = random.Random(1731)
        for i in range(40):
            model = random_model(rng, objects=4, linked=True)
            text = print_model(model)
            assert parse_model(text) == model, f"case {i} failed:\n{text}"

    def test_printing_is_idempotent(self, prodcons_model):
        once = print_model(prodcons_model)
        twice = print_model(parse_model(once))
        assert once == twice


class TestBuiltIntLiterals:
    """A model built in Python can hold an ``Int`` literal outside the
    signed 64-bit range, which no source text can; it is reported, and
    never printed or rendered."""

    SOURCE = """
    class A { attr n: Int = 0; }
    op A.go(): Void { return void; }
    setup { a: A active go prio 1; }
    """

    def _huge_attribute(self):
        m = parse_model(self.SOURCE)
        huge = ClassDef("A", (AttrDef("n", INT, IntVal(10**5000)),))
        return replace(m, classes={"A": huge})

    def test_validation_reports_the_attribute(self):
        m = self._huge_attribute()
        assert validate_model(Hierarchy(m.classes, m.subclass_rel),
                              m.meth_map) == [
            Problem(("attr", "A", 0), "class 'A': attribute 'n' initial "
                                      "value does not fit type Int")]

    def test_printing_raises_a_model_error(self):
        with pytest.raises(ModelError, match="integer of 16610 bits has no "
                                             "source form"):
            print_model(self._huge_attribute())

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_rendering_a_run_raises_a_model_error(self, fmt):
        result = run_model(self._huge_attribute())
        with pytest.raises(ModelError, match="integer of 16610 bits has no "
                                             "output form"):
            render_final_state(result, fmt)

    def test_the_first_value_past_the_range_has_no_source_form(self):
        m = parse_model(self.SOURCE)
        edge = ClassDef("A", (AttrDef("n", INT, IntVal(2**63 - 1)),))
        assert "attr n: Int = 9223372036854775807;" in print_model(
            replace(m, classes={"A": edge}))
        past = ClassDef("A", (AttrDef("n", INT, IntVal(2**63)),))
        with pytest.raises(ModelError, match="integer of 64 bits has no "
                                             "source form"):
            print_model(replace(m, classes={"A": past}))


def _result_for_render():
    s = empty_state()
    ds = {
        0: StoredObject("Producer", RecordVal((("b", OidVal(3)),))),
        1: StoredObject("Consumer", RecordVal((("data", IntVal(10)),
                                               ("b", OidVal(3))))),
        2: StoredObject("Consumer", RecordVal((("data", IntVal(10)),
                                               ("b", OidVal(3))))),
        3: StoredObject("Buffer", RecordVal((("data", IntVal(20)),))),
    }
    from dataclasses import replace
    return RunResult(replace(s, ds=ds), 221, AllDone())


class TestRenderFinalState:
    def test_text_mirrors_the_console_layout(self):
        text = render_final_state(_result_for_render())
        lines = text.splitlines()
        assert lines[0] == "attributes:"
        assert 'Producer(id 0): [("b",XOID 3)]' in lines
        assert 'Consumer(id 1): [("data",VInt 10),("b",XOID 3)]' in lines
        assert 'Buffer(id 3): [("data",VInt 20)]' in lines
        assert lines[-1] == "time: 221"

    def test_negative_values_render_like_the_console(self):
        result = RunResult(
            empty_state(), 142, AllDone())
        from dataclasses import replace
        ds = {3: StoredObject("Buffer", RecordVal((("data", IntVal(-1)),)))}
        result = RunResult(replace(result.final, ds=ds), 142, AllDone())
        assert 'Buffer(id 3): [("data",VInt -1)]' in render_final_state(result)

    def test_empty_state_renders_header_and_time(self):
        text = render_final_state(RunResult(empty_state(), 0, AllDone()))
        assert text == "attributes:\ntime: 0"

    def test_structured_is_stable_json(self):
        doc = json.loads(render_final_state(_result_for_render(), "structured"))
        assert doc["time"] == 221
        assert doc["halt"] == "all-done"
        assert doc["objects"][3]["class"] == "Buffer"
        assert doc["objects"][3]["attrs"] == [["data", {"kind": "int",
                                                        "value": 20}]]

    def test_rendering_is_pure(self, prodcons_model):
        result = run_model(prodcons_model)
        a = render_final_state(result, "structured")
        b = render_final_state(result, "structured")
        assert a == b

    def test_null_and_void_attributes(self):
        model = parse_model("class A { attr r: A = null; attr v: Void = void; }"
                            "\nsetup { a: A passive; }")
        result = run_model(model)
        assert render_final_state(result).splitlines()[1] == \
            'A(id 0): [("r",XNULL),("v",VVoid)]'
        doc = json.loads(render_final_state(result, "structured"))
        assert doc["objects"][0]["attrs"] == [["r", {"kind": "null"}],
                                              ["v", {"kind": "void"}]]

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_a_value_with_no_output_form_raises_in_both_formats(self, fmt):
        # A record attribute, which only a hand-built state can hold.
        record = RecordVal((("x", IntVal(1)),))
        ds = {0: StoredObject("A", RecordVal((("r", record),)))}
        result = RunResult(replace(empty_state(), ds=ds), 0, AllDone())
        with pytest.raises(ModelError) as info:
            render_final_state(result, fmt)
        assert str(info.value) == f"value {record!r} has no output form"

    def test_blocked_and_limit_names(self, deadlock_model, prodcons_model):
        blocked = run_model(deadlock_model)
        doc = json.loads(render_final_state(blocked, "structured"))
        assert doc["halt"] == "blocked" and doc["waiting"] == [[0, 0], [1, 1]]
        limited = run_model(prodcons_model, max_steps=1)
        doc = json.loads(render_final_state(limited, "structured"))
        assert doc["halt"] == "step-limit"


class TestTraceRecorder:
    """Every line is what ``render_action`` gives for the step's action,
    however often the recorder meets that action or an equal one."""

    def test_the_same_action_twice(self):
        records: list = []
        hook = trace_recorder(records)
        act = A.Call("b", smm.universe.OpSig("put", (INT,), INT), ("x",),
                     "r")
        hook(0, 0, 0, 0, act)
        hook(1, 1, 2, 3, act)
        assert [r.action for r in records] == [render_action(act)] * 2
        assert [(r.step, r.oid, r.tid, r.pc) for r in records] == \
            [(0, 0, 0, 0), (1, 1, 2, 3)]

    def test_equal_but_distinct_actions(self):
        records: list = []
        hook = trace_recorder(records)
        a, b = A.Jump(4), A.Jump(4)
        assert a == b and a is not b
        for t, act in enumerate((a, b, a, A.Jump(5))):
            hook(t, 0, 0, 0, act)
        assert [r.action for r in records] == ["goto 4"] * 3 + ["goto 5"]

    def test_actions_dropped_after_their_step(self):
        # Each action is freed once the hook returns unless the recorder
        # keeps it, so ids repeat; a line must never show an older text.
        records: list = []
        hook = trace_recorder(records)
        for t in range(200):
            hook(t, 0, 0, 0, A.BinOp("+", f"d{t}", "x", "y"))
        assert [r.action for r in records] == \
            [f"+ d{t} x y" for t in range(200)]

    def test_one_recorder_across_two_models(self, prodcons_model,
                                            deadlock_model):
        records: list = []
        hook = trace_recorder(records)
        seen: list = []

        def both(t, oid, tid, pc, action):
            seen.append(action)
            hook(t, oid, tid, pc, action)

        apart = []
        for model in (prodcons_model, deadlock_model, prodcons_model):
            run_model(model, on_step=both)
            alone: list = []
            run_model(model, on_step=trace_recorder(alone))
            apart += alone
        assert [r.action for r in records] == \
            [render_action(a) for a in seen]
        assert records == apart
