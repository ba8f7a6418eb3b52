"""Structural universes: types, values, classes, operations, methods.

Model-level types and values are deeply embedded: an ``IntVal(2)`` is the
model's integer 2, not a host integer with extra meaning. Class identity is
by name; ``ClassType`` only wraps the name and stays valid exactly when the
name is a key of the model's class table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Union

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
        if self.has(name):
            return RecordVal(tuple(
                (n, value if n == name else v) for n, v in self.fields))
        return RecordVal(self.fields + ((name, value),))


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

def super_chain(cls: str, scl: SubclassRel) -> tuple[str, ...]:
    """Linearize a class and its superclasses for method lookup.

    Depth-first over declaration order, keeping the first occurrence of each
    class; single inheritance yields the plain chain. Cycles are a model
    defect and rejected. The walk keeps its own stack, so chain depth is
    bounded by memory, not by Python's recursion limit.
    """
    out = [cls]
    seen = {cls}
    path = {cls}  # the classes on the stack: meeting one again is a cycle
    stack = [(cls, iter(scl.get(cls, ())))]
    while stack:
        c, sups = stack[-1]
        sup = next(sups, None)
        if sup is None:
            stack.pop()
            path.discard(c)
        elif sup in path:
            raise ModelError(f"inheritance cycle through class {sup!r}")
        elif sup not in seen:
            # A class seen before but off the stack is fully walked, and
            # its walk found no cycle; there is nothing new above it.
            seen.add(sup)
            out.append(sup)
            path.add(sup)
            stack.append((sup, iter(scl.get(sup, ()))))
    return tuple(out)


def value_fits(v: Value, t: TypeRef, scl: SubclassRel, ds=None) -> bool:
    """Assignment compatibility of a value against a declared type.

    A reference of a subclass fits a superclass-typed slot; null fits any
    class type. When ``ds`` is absent, any non-null reference is accepted
    for a class type (the store is needed to learn its class).
    """
    if isinstance(t, IntType):
        return isinstance(v, IntVal)
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
            return t.name in super_chain(ds[v.oid].class_name, scl)
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


def validate_model(class_table: ClassTable, scl: SubclassRel,
                   meth_map: MethMap) -> list[Problem]:
    """Check the structural invariants of a model; return its problems.

    This is the only home of every rule decidable from the three tables: a
    valid model has unique attribute names with type-correct initial
    values, an acyclic subclass relation over known classes, and method
    entries of known classes whose signatures, parameters and bodies are
    internally consistent (unique parameters, non-empty bodies, jump
    targets in range, known parameters and classes, fitting initial
    values). The setup rules live in ``smm.vm.check_setup``; the parser
    keeps only what needs its tokens or would be lost in these tables
    (syntax, duplicate classes and methods, labels, name resolution, config
    keys, attribute references).
    """
    from . import actions

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
            elif not value_fits(attr.init, attr.type, scl):
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
    for name in class_table:
        try:
            super_chain(name, scl)
        except ModelError as err:
            report(("class", name), str(err))

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
                    elif not value_fits(act.init, act.type, scl):
                        report(at, f"{label}: action {pc} initial value does "
                                   f"not fit type {act.type}")
                elif isinstance(act, actions.NewObject) and \
                        act.class_name not in class_table:
                    report(at, f"{label}: action {pc} creates unknown class "
                               f"{act.class_name!r}")
                elif isinstance(act, actions.LocalFromParam) and \
                        act.param not in names:
                    report(at, f"{label}: action {pc} loads unknown "
                               f"parameter {act.param!r}")
    return problems
