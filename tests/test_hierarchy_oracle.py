"""The class hierarchy against the per-class walks it replaced.

Before ``universe.Hierarchy``, ``validate_model`` walked every class's
chain, and the parser unioned every class's chain with every other's to
learn which attributes a method may touch. Those rules are kept here as
the oracle: on random hierarchies with cycles, unknown superclasses,
diamonds and redeclared attribute names, the hierarchy must give the same
problems, in the same order, and the parser the same located diagnostics.
The attribute-reference rule is the corrected one: a class may touch every
name in the layout of a class whose chain holds it, so code of ``C`` may
touch a name that only ``D`` declares when some class extends both.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from smm import (
    AttrDef, ClassDef, INT, IntVal, MethodDef, ModelError, validate_model,
)
from smm.actions import LocalFromAttr, SetAttr
from smm.frontend import _Parser
from smm.universe import Hierarchy, Problem

CLASSES = ("C0", "C1", "C2", "C3", "C4")
NAMES = ("a", "b", "c", "d")


def oracle_linearize(cls, scl):
    """The depth-first walk (preorder, postorder) that raises on a cycle."""
    pre, post, seen, path = [cls], [], {cls}, {cls}
    stack = [(cls, iter(scl.get(cls, ())))]
    while stack:
        c, sups = stack[-1]
        sup = next(sups, None)
        if sup is None:
            stack.pop()
            path.discard(c)
            post.append(c)
        elif sup in path:
            raise ModelError(f"inheritance cycle through class {sup!r}")
        elif sup not in seen:
            seen.add(sup)
            pre.append(sup)
            path.add(sup)
            stack.append((sup, iter(scl.get(sup, ()))))
    return pre, post


def oracle_problems(class_table, scl):
    """``validate_model``'s problems for a model whose attributes are all
    well-typed and whose methods are well-formed: duplicate attributes,
    unknown superclasses, then each class's walk in table order."""
    problems = []
    for name, cls in class_table.items():
        seen = set()
        for i, attr in enumerate(cls.attributes):
            if attr.name in seen:
                problems.append(Problem(("attr", name, i),
                                        f"class {name!r}: duplicate "
                                        f"attribute {attr.name!r}"))
            seen.add(attr.name)
    for name, supers in scl.items():
        for sup in supers:
            if sup not in class_table:
                problems.append(Problem(("extends", name, sup),
                                        f"class {name!r} extends unknown "
                                        f"class {sup!r}"))
    reported = set()
    for name in class_table:
        try:
            _, roots_first = oracle_linearize(name, scl)
        except ModelError as err:
            problems.append(Problem(("class", name), str(err)))
            continue
        if not class_table[name].attributes and len(scl.get(name, ())) < 2:
            continue
        declared_by = {}
        for c in roots_first:
            for i, attr in enumerate(class_table[c].attributes
                                     if c in class_table else ()):
                first = declared_by.setdefault(attr.name, c)
                if first == c or (c, i) in reported:
                    continue
                reported.add((c, i))
                if first in oracle_linearize(c, scl)[0]:
                    message = (f"class {c!r}: attribute {attr.name!r} is "
                               f"already declared by superclass {first!r}")
                else:
                    message = (f"class {name!r}: attribute {attr.name!r} "
                               f"is declared by both {first!r} and {c!r}")
                problems.append(Problem(("attr", c, i), message))
    return problems


def oracle_attr_refs(classes, scl, meth_map, links):
    """The attribute-reference problems: every class's layout, granted to
    each class on its chain."""
    chains = {}
    for name in classes:
        try:
            chains[name] = oracle_linearize(name, scl)[0]
        except ModelError:
            pass
    known = {name: set(links) for name in chains}
    for name, chain in chains.items():
        layout = {a.name for c in chain if c in classes
                  for a in classes[c].attributes}
        for sup in chain:
            if sup in known:
                known[sup] |= layout
    problems = []
    for cls_name, ops in meth_map.items():
        names = known.get(cls_name)
        if names is None:
            continue
        for sig, meth in ops.items():
            for pc, act in enumerate(meth.body):
                if isinstance(act, (LocalFromAttr, SetAttr)) and \
                        act.attr not in names:
                    problems.append(Problem(
                        ("action", cls_name, sig, pc),
                        f"unknown attribute {act.attr!r} for class "
                        f"{cls_name!r}"))
    return problems


@st.composite
def models(draw):
    """Model text with up to five classes, each extending up to three
    classes or an unknown ``Zed``, declaring names from a shared pool, and
    with methods that read or write names from that pool. Setup objects
    of an attribute-free class ``S`` make some names links."""
    n = draw(st.integers(1, len(CLASSES)))
    names = CLASSES[:n]
    # One model in four may have cycles; the others extend earlier
    # classes only, so diamonds and redeclarations show up often.
    cyclic = draw(st.integers(0, 3)) == 0
    attrs = st.lists(st.sampled_from(NAMES), max_size=3)
    lines = []
    for i, name in enumerate(names):
        pool = (names if cyclic else names[:i]) + ("Zed",)
        ext = draw(st.lists(st.sampled_from(pool), max_size=3))
        head = f"class {name}" + (f" extends {', '.join(ext)}" if ext else "")
        lines.append(head + " {")
        lines += [f"  attr {a}: Int = 0;" for a in draw(attrs)]
        lines.append("}")
    for name in draw(st.lists(st.sampled_from(names), max_size=4,
                              unique=True)):
        lines += [f"op {name}.m(): Void {{", "  let x: Int = 0;"]
        for attr, write in draw(st.lists(st.tuples(st.sampled_from(NAMES),
                                                   st.booleans()),
                                         min_size=1, max_size=3)):
            lines.append(f"  setattr {attr} x;" if write
                         else f"  loadattr x {attr};")
        lines += ["  return void;", "}"]
    links = draw(st.lists(st.sampled_from(NAMES), max_size=2, unique=True))
    lines.append("class S { }")
    lines.append("setup {")
    lines.append(f"  o: S passive links [{', '.join(links)}];")
    lines += [f"  {link}: S passive;" for link in links]
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse(text):
    """The parser after a run over ``text``, and its diagnostics."""
    parser = _Parser(text)
    try:
        parser.parse()
    except ModelError as err:
        return parser, [(d.line, d.column, d.message)
                        for d in err.diagnostics]
    return parser, []


def tables(parser):
    """The class table, subclass relation and method map the parser
    built."""
    meth_map = {}
    for raw in parser.ops.values():
        meth_map.setdefault(raw.class_name, {})[raw.sig] = MethodDef(
            raw.sig, tuple(raw.params), tuple(raw.body))
    return parser.classes, parser.scl, meth_map


ORACLE = settings(max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@ORACLE
@given(models())
def test_validate_model_matches_the_oracle(text):
    parser, _ = parse(text)
    classes, scl, _ = tables(parser)
    assert validate_model(Hierarchy(classes, scl), {}) == \
        oracle_problems(classes, scl)


@ORACLE
@given(models())
def test_parser_diagnostics_match_the_oracle(text):
    parser, got = parse(text)
    classes, scl, meth_map = tables(parser)
    links = {link for entry in parser.setup for link in entry.links}
    expected = []
    for where, message in (oracle_problems(classes, scl)
                           + oracle_attr_refs(classes, scl, meth_map, links)):
        expected.append((*parser.position(parser.loc(where)), message))
    expected.sort(key=lambda d: (d[0], d[1]))
    assert got == expected


@ORACLE
@given(st.dictionaries(st.sampled_from(CLASSES),
                       st.lists(st.sampled_from(CLASSES + ("Zed",)),
                                max_size=3).map(tuple)))
def test_walks_and_cycles_match_the_oracle(scl):
    table = {name: ClassDef(name, (AttrDef(name.lower(), INT, IntVal(0)),))
             for name in CLASSES}
    hierarchy = Hierarchy(table, scl)
    for name in CLASSES + ("Zed",):
        try:
            pre, post = oracle_linearize(name, scl)
        except ModelError as err:
            assert str(err) == ("inheritance cycle through class "
                                f"{hierarchy.cycles[name]!r}")
            with pytest.raises(ModelError, match=re.escape(str(err))):
                hierarchy.object_class(name)
            assert hierarchy.chain(name) is None
            assert hierarchy.above([name]) == set()
            continue
        assert name not in hierarchy.cycles
        assert hierarchy.chain(name) == (tuple(pre) if name in table
                                         else None)
        assert hierarchy.roots_first(name) == post
        assert hierarchy.object_class(name).attributes == tuple(
            attr for c in post if c in table for attr in table[c].attributes)
        below = {c for c in CLASSES + ("Zed",) if c not in hierarchy.cycles
                 and name in oracle_linearize(c, scl)[0]}
        assert hierarchy.below([name]) == below
        assert hierarchy.above([name]) == set(pre)
