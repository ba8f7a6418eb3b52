"""Structural universes: types, values, classes, operations, methods.

Model-level types and values are deeply embedded: an ``IntVal(2)`` is the
model's integer 2, not a host integer with extra meaning. Class identity is
by name; ``ClassType`` only wraps the name and stays valid exactly when the
name is a key of the model's class table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Union

from .errors import ModelError

if TYPE_CHECKING:
    from .actions import Action


# --- types -----------------------------------------------------------------

@dataclass(frozen=True)
class IntType:
    def __str__(self) -> str:
        return "Int"


@dataclass(frozen=True)
class BoolType:
    def __str__(self) -> str:
        return "Bool"


@dataclass(frozen=True)
class VoidType:
    def __str__(self) -> str:
        return "Void"


@dataclass(frozen=True)
class ClassType:
    name: str

    def __str__(self) -> str:
        return self.name


TypeRef = Union[IntType, BoolType, VoidType, ClassType]

INT = IntType()
BOOL = BoolType()
VOID = VoidType()


# --- values ----------------------------------------------------------------

# The values an ``Int`` holds: signed 64-bit. The parser rejects a
# literal outside it and arithmetic that leaves it is a runtime error.
INT_RANGE = range(-2**63, 2**63)


@dataclass(frozen=True)
class IntVal:
    value: int


@dataclass(frozen=True)
class BoolVal:
    value: bool


@dataclass(frozen=True)
class VoidVal:
    pass


@dataclass(frozen=True)
class NullOid:
    """The null object reference: distinct from every allocated id."""


@dataclass(frozen=True)
class OidVal:
    oid: int


@dataclass(frozen=True)
class RecordVal:
    """Ordered record of named values; field order is declaration order."""

    fields: tuple[tuple[str, "Value"], ...] = ()

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.fields)

    def get(self, name: str) -> "Value":
        for n, v in self.fields:
            if n == name:
                return v
        raise KeyError(name)

    def set(self, name: str, value: "Value") -> "RecordVal":
        """Replace an existing field, or append a new one at the end."""
        fields = self.fields
        for i, (n, _) in enumerate(fields):
            if n == name:
                return RecordVal(fields[:i] + ((name, value),)
                                 + fields[i + 1:])
        return RecordVal(fields + ((name, value),))


Value = Union[IntVal, BoolVal, VoidVal, NullOid, OidVal, RecordVal]

VOID_VAL = VoidVal()
NULL_OID = NullOid()


# --- class/operation/method definitions ------------------------------------

@dataclass(frozen=True)
class AttrDef:
    name: str
    type: TypeRef
    init: Value


@dataclass(frozen=True)
class ClassDef:
    name: str
    attributes: tuple[AttrDef, ...] = ()


@dataclass(frozen=True)
class OpSig:
    """Operation signature; identity is the full (name, params, return)."""

    name: str
    param_types: tuple[TypeRef, ...]
    return_type: TypeRef

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.param_types)
        return f"{self.name}({params}): {self.return_type}"


@dataclass(frozen=True)
class MethodDef:
    implements: OpSig
    params: tuple[tuple[str, TypeRef], ...]
    body: tuple["Action", ...]


# class name -> list of direct superclass names
SubclassRel = dict[str, tuple[str, ...]]
# class name -> (op sig -> implementing method)
MethMap = dict[str, dict[OpSig, MethodDef]]
ClassTable = dict[str, ClassDef]


# --- operations -------------------------------------------------------------

def _linearize(cls: str, scl: SubclassRel) -> tuple[list[str], list[str]]:
    """Walk ``cls`` and its superclasses depth-first over declaration order.

    Returns the classes in preorder (each class before its superclasses,
    for method lookup) and in postorder (each class after all of its
    superclasses, for attribute layout). Each class is met once; single
    inheritance yields the plain chain and its reverse. Cycles are a model
    defect and rejected. The walk keeps its own stack, so chain depth is
    bounded by memory, not by Python's recursion limit.
    """
    pre = [cls]
    post: list[str] = []
    seen = {cls}
    path = {cls}  # the classes on the stack: meeting one again is a cycle
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
            # A class seen before but off the stack is fully walked, and
            # its walk found no cycle; there is nothing new above it.
            seen.add(sup)
            pre.append(sup)
            path.add(sup)
            stack.append((sup, iter(scl.get(sup, ()))))
    return pre, post


def super_chain(cls: str, scl: SubclassRel) -> tuple[str, ...]:
    """Linearize a class and its superclasses for method lookup: ``cls``
    first, then depth-first over declaration order, keeping the first
    occurrence of each class."""
    return tuple(_linearize(cls, scl)[0])


class Hierarchy:
    """The class hierarchy of one model, and the one home of chain walks.

    ``cycles`` maps each class whose walk meets an inheritance cycle to the
    class ``super_chain`` names in its error; one pass finds them all.
    ``declarers`` maps each attribute name to the classes declaring it.
    Chains and object layouts are built when asked for, and kept; the
    layout of a class in ``cycles`` raises ``ModelError``, as
    ``super_chain`` does.
    """

    def __init__(self, class_table: ClassTable, scl: SubclassRel):
        self.class_table, self.scl = class_table, scl
        self._chains: dict[str, tuple[str, ...]] = {}
        self._classes: dict[str, ClassDef] = {}
        self.declarers: dict[str, set[str]] = {}
        for name, cls in class_table.items():
            for attr in cls.attributes:
                self.declarers.setdefault(attr.name, set()).add(name)
        self._subclasses: dict[str, list[str]] = {}
        for name, supers in scl.items():
            for sup in supers:
                self._subclasses.setdefault(sup, []).append(name)
        # A class is acyclic once all of its superclasses are; ``pending``
        # counts those not yet known to be.
        pending = {name: len(supers) for name, supers in scl.items()}
        ready = [c for c in self._subclasses if not pending.get(c)]
        while ready:
            for sub in self._subclasses.get(ready.pop(), ()):
                pending[sub] -= 1
                if not pending[sub]:
                    ready.append(sub)
        # At each class, the walk from a class left pending finishes the
        # acyclic superclasses and descends into the first other one. It
        # names the first class it meets twice.
        self.cycles: dict[str, str] = {}
        for c in [name for name, n in pending.items() if n]:
            path: dict[str, int] = {}
            while c not in self.cycles and c not in path:
                path[c] = len(path)
                c = next(sup for sup in scl[c] if pending.get(sup))
            k, through = path.get(c, len(path)), self.cycles.get(c, c)
            for i, p in enumerate(path):  # from k on, a cycle found just now
                self.cycles[p] = p if i >= k else through

    def chain(self, cls: str | None) -> tuple[str, ...] | None:
        """``super_chain(cls, scl)``, walked once; None for a class missing
        from the table or in ``cycles``, defects ``validate_model``
        reports."""
        if cls not in self.class_table or cls in self.cycles:
            return None
        if cls not in self._chains:
            self._chains[cls] = super_chain(cls, self.scl)
        return self._chains[cls]

    def roots_first(self, cls: str) -> list[str]:
        """The classes of the chain, each after all of its superclasses."""
        return _linearize(cls, self.scl)[1]

    def object_class(self, cls: str) -> ClassDef:
        """``cls`` as its objects hold it, with the attributes of its whole
        chain in ``roots_first`` order; built once."""
        if cls not in self._classes:
            self._classes[cls] = ClassDef(cls, tuple(
                attr for c in self.roots_first(cls) if c in self.class_table
                for attr in self.class_table[c].attributes))
        return self._classes[cls]

    def below(self, classes: Iterable[str]) -> set[str]:
        """``classes`` and every class whose chain holds one of them, but
        none in ``cycles``."""
        return self._closure(classes, self._subclasses)

    def above(self, classes: Iterable[str]) -> set[str]:
        """``classes`` and every class on the chain of one of them, but
        none in ``cycles``; a class outside ``cycles`` has none of them on
        its chain, so only classes given can be left out."""
        return self._closure(classes, self.scl)

    def _closure(self, classes: Iterable[str], edges: dict) -> set[str]:
        """``classes`` and all reachable along ``edges``, none in ``cycles``."""
        found = {c for c in classes if c not in self.cycles}
        todo = list(found)
        while todo:
            new = [c for c in edges.get(todo.pop(), ())
                   if c not in found and c not in self.cycles]
            found.update(new)
            todo += new
        return found


def value_fits(v: Value, t: TypeRef, ds=None,
               hierarchy: Hierarchy | None = None) -> bool:
    """Assignment compatibility of a value against a declared type.

    A reference of a subclass fits a superclass-typed slot; null fits any
    class type. When ``ds`` is absent, any non-null reference is accepted
    for a class type (the store is needed to learn its class). With ``ds``,
    the class's chain is read from ``hierarchy``; a class it has no chain
    for (missing from its table, or on a cycle) counts as its own chain.
    An ``IntVal`` fits ``Int`` only inside ``INT_RANGE``.
    """
    if isinstance(t, IntType):
        return isinstance(v, IntVal) and v.value in INT_RANGE
    if isinstance(t, BoolType):
        return isinstance(v, BoolVal)
    if isinstance(t, VoidType):
        return isinstance(v, VoidVal)
    if isinstance(t, ClassType):
        if isinstance(v, NullOid):
            return True
        if isinstance(v, OidVal):
            if ds is None or v.oid not in ds:
                return True
            cls = ds[v.oid].class_name
            return t.name in (hierarchy.chain(cls) or (cls,))
        return False
    return False


def same_kind(a: Value, b: Value) -> bool:
    """Whether two values belong to the same storage kind.

    Null and non-null references count as one kind; used when no declared
    type is available (locals, link attributes).
    """
    ref = (OidVal, NullOid)
    if isinstance(a, ref) and isinstance(b, ref):
        return True
    return type(a) is type(b)


class Problem(NamedTuple):
    """One model defect and the model element it is about.

    ``where`` names the element, so that a caller holding source positions
    can locate the problem: ``("class", C)``, ``("extends", C, S)``,
    ``("attr", C, i)``, ``("op", C, sig)``, ``("action", C, sig, pc)`` or,
    for the setup rules in ``smm.vm.check_setup``, ``("setup", i)``.
    """

    where: tuple
    message: str


def validate_model(hierarchy: Hierarchy, meth_map: MethMap) -> list[Problem]:
    """Check the structural invariants of a model; return its problems.

    This is the only home of every rule decidable from the three tables:
    the class table and subclass relation of ``hierarchy``, and the method
    map. A valid model has attribute names unique along each inheritance
    chain, with type-correct initial values, an acyclic subclass relation
    over known classes, and method entries of known classes whose
    signatures, parameters and bodies are internally consistent (unique
    parameters, non-empty bodies, jump targets in range, known parameters
    and classes, fitting initial values, ``Int`` literals inside
    ``INT_RANGE``, ``return`` literals fitting the return type). Chains
    are read from ``hierarchy`` and walked only where a rule needs them;
    the parser hands the same one to ``smm.vm.check_setup``. The setup
    rules live in ``smm.vm.check_setup``; the parser keeps only what needs
    its tokens or would be lost in these tables (syntax, duplicate classes
    and methods, labels, name resolution, config keys, attribute
    references).
    """
    from . import actions

    class_table, scl = hierarchy.class_table, hierarchy.scl
    problems: list[Problem] = []

    def report(where: tuple, message: str) -> None:
        problems.append(Problem(where, message))

    def unknown(t: TypeRef) -> bool:
        return isinstance(t, ClassType) and t.name not in class_table

    for name, cls in class_table.items():
        seen: set[str] = set()
        for i, attr in enumerate(cls.attributes):
            where = ("attr", name, i)
            if attr.name in seen:
                report(where, f"class {name!r}: duplicate attribute "
                              f"{attr.name!r}")
            seen.add(attr.name)
            if unknown(attr.type):
                report(where, f"class {name!r}: attribute {attr.name!r} has "
                              f"unknown class type {attr.type.name!r}")
            elif not value_fits(attr.init, attr.type):
                report(where, f"class {name!r}: attribute {attr.name!r} "
                              f"initial value does not fit type {attr.type}")

    for name, supers in scl.items():
        if name not in class_table:
            report(("class", name),
                   f"subclass relation names unknown class {name!r}")
        for sup in supers:
            if sup not in class_table:
                report(("extends", name, sup),
                       f"class {name!r} extends unknown class {sup!r}")
    # An object has the attributes of its whole chain, root classes
    # first, so a name is declared once along it; the later declaration
    # is reported. Only a class below two declarers of one name can hold
    # two, and only one with attributes of its own or several
    # superclasses can meet a redeclaration not reported at the class
    # that makes it.
    shared = hierarchy.below(c for cs in hierarchy.declarers.values()
                             if len(cs) > 1 for c in cs)
    reported: set[tuple[str, int]] = set()
    for name in class_table:
        if name in hierarchy.cycles:
            report(("class", name), f"inheritance cycle through class "
                                    f"{hierarchy.cycles[name]!r}")
            continue
        if name not in shared or (not class_table[name].attributes
                                  and len(scl.get(name, ())) < 2):
            continue
        declared_by: dict[str, str] = {}
        for c in hierarchy.roots_first(name):
            for i, attr in enumerate(class_table[c].attributes
                                     if c in class_table else ()):
                first = declared_by.setdefault(attr.name, c)
                if first == c or (c, i) in reported:
                    continue
                reported.add((c, i))
                if first in hierarchy.chain(c):
                    message = (f"class {c!r}: attribute {attr.name!r} is "
                               f"already declared by superclass {first!r}")
                else:  # two unrelated superclasses of ``name``
                    message = (f"class {name!r}: attribute {attr.name!r} "
                               f"is declared by both {first!r} and {c!r}")
                report(("attr", c, i), message)

    for cls_name, ops in meth_map.items():
        for sig, meth in ops.items():
            where = ("op", cls_name, sig)
            label = f"method {cls_name}.{sig.name}"
            if cls_name not in class_table:
                report(where, f"{label}: operation for unknown class "
                              f"{cls_name!r}")
            for t in sig.param_types + (sig.return_type,):
                if unknown(t):
                    report(where, f"{label}: signature uses unknown class "
                                  f"{t.name!r}")
            if meth.implements != sig:
                report(where, f"{label}: implements a different signature")
            names = [pname for pname, _ in meth.params]
            for i, pname in enumerate(names):
                if pname in names[:i]:
                    report(where, f"{label}: duplicate parameter {pname!r}")
            if len(meth.params) != len(sig.param_types):
                report(where, f"{label}: parameter count does not match "
                              f"signature")
            else:
                for (pname, ptype), want in zip(meth.params, sig.param_types):
                    if ptype != want:
                        report(where, f"{label}: parameter {pname!r} type "
                                      f"{ptype} does not match signature "
                                      f"type {want}")
            if not meth.body:
                report(where, f"{label}: empty body")
            for pc, act in enumerate(meth.body):
                at = ("action", cls_name, sig, pc)
                if isinstance(act, (actions.Jump, actions.BranchIfFalse)) and \
                        not 0 <= act.target < len(meth.body):
                    report(at, f"{label}: action {pc} jumps to {act.target}, "
                               f"outside the body of {len(meth.body)} actions")
                elif isinstance(act, actions.NewLocal):
                    if unknown(act.type):
                        report(at, f"{label}: action {pc} declares unknown "
                                   f"class type {act.type.name!r}")
                    elif not value_fits(act.init, act.type):
                        report(at, f"{label}: action {pc} initial value does "
                                   f"not fit type {act.type}")
                elif isinstance(act, (actions.LocalConst,
                                      actions.ReturnConst)) and \
                        isinstance(act.value, IntVal) and \
                        not value_fits(act.value, INT):
                    report(at, f"{label}: action {pc} uses an integer "
                               f"outside the signed 64-bit range")
                elif isinstance(act, actions.ReturnConst) and \
                        not value_fits(act.value, sig.return_type):
                    report(at, f"{label}: action {pc} returns a value that "
                               f"does not fit return type {sig.return_type}")
                elif isinstance(act, actions.NewObject) and \
                        act.class_name not in class_table:
                    report(at, f"{label}: action {pc} creates unknown class "
                               f"{act.class_name!r}")
                elif isinstance(act, actions.LocalFromParam) and \
                        act.param not in names:
                    report(at, f"{label}: action {pc} loads unknown "
                               f"parameter {act.param!r}")
    return problems
