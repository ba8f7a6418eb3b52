"""Structural universes: types, values, classes, operations, methods.

Model-level types and values are deeply embedded: an ``IntVal(2)`` is the
model's integer 2, not a host integer with extra meaning. Class identity is
by name; ``ClassType`` only wraps the name and stays valid exactly when the
name is a key of the model's class table.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import cache
from reprlib import recursive_repr
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Union

from .errors import ModelError

if TYPE_CHECKING:
    from .actions import Action


def value_class(cls):
    """A slotted frozen dataclass whose methods come from one generated
    source.

    ``dataclass`` is asked only for what a value keeps: its ``fields``,
    ``__slots__``, ``__match_args__`` and ``__dataclass_params__``, whose
    flags read as those of ``dataclass(frozen=True)``. It builds no method.
    ``__init__``, ``__repr__``, ``__eq__`` and ``__hash__`` are compiled
    from one source per class, named ``<Class>`` so that profiles tell
    classes apart; the class body must not define them.

    ``__init__`` takes the fields with their plain defaults
    (``default_factory`` is not supported) and stores each through its
    slot's descriptor: a frozen dataclass's ``__init__`` stores through
    ``object.__setattr__``, which is most of what building a value costs,
    and a step builds several. ``__repr__``, ``__eq__`` and ``__hash__``
    are a frozen dataclass's: every field, compared and hashed as a tuple,
    and ``__eq__`` only against the same class.

    Assigning or deleting any name raises ``FrozenInstanceError``; the
    frozen dataclass's own pair names, in ``super()``, the class before its
    slotted copy, so on Python 3.10 and 3.11 it raised ``TypeError`` for a
    name that is not a field. ``__getstate__`` and ``__setstate__`` keep
    ``copy``, ``deepcopy`` and ``pickle`` working. A class without a
    docstring gets its name and parameters, as in
    ``ClassDef(name, attributes=())``; ``dataclass`` would call
    ``inspect.signature`` to write one.
    """
    documented = bool(cls.__doc__)
    if not documented:
        cls.__doc__ = cls.__name__  # so that dataclass writes none
    cls = dataclass(init=False, repr=False, eq=False, slots=True)(cls)
    flags = cls.__dataclass_params__
    flags.init = flags.repr = flags.eq = flags.frozen = True
    env, params, doc, stores, shown, mine, theirs = {}, "", [], "", [], "", ""
    for f in fields(cls):
        n = f.name
        env[f"_set_{n}"] = cls.__dict__[n].__set__
        params += f", {n}"
        if f.default is MISSING:
            doc.append(n)
        else:
            env[f"_default_{n}"] = f.default
            params += f"=_default_{n}"
            doc.append(f"{n}={f.default!r}")
        stores += f"\n    _set_{n}(self, {n})"
        shown.append(f"{n}={{self.{n}!r}}")
        mine += f"self.{n},"
        theirs += f"other.{n},"
    source = (
        f"def __init__(self{params}):{stores or ' pass'}\n"
        f"def __repr__(self):\n"
        f"    return self.__class__.__qualname__ + f\"({', '.join(shown)})\"\n"
        f"def __eq__(self, other):\n"
        f"    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        f"    return NotImplemented\n"
        f"def __hash__(self):\n"
        f"    return hash(({mine}))\n")
    exec(compile(source, f"<{cls.__qualname__}>", "exec"), env)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        env[name].__qualname__ = f"{cls.__qualname__}.{name}"
    cls.__init__, cls.__eq__, cls.__hash__ = (
        env["__init__"], env["__eq__"], env["__hash__"])
    cls.__repr__ = recursive_repr()(env["__repr__"])
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__getstate__, cls.__setstate__ = _getstate, _setstate
    if not documented:
        cls.__doc__ = f"{cls.__name__}({', '.join(doc)})"
    return cls


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self):
    return [getattr(self, f.name) for f in fields(self)]


def _setstate(self, state):
    for f, value in zip(fields(self), state):
        object.__setattr__(self, f.name, value)


# --- types -----------------------------------------------------------------

@value_class
class IntType:
    def __str__(self) -> str:
        return "Int"


@value_class
class BoolType:
    def __str__(self) -> str:
        return "Bool"


@value_class
class VoidType:
    def __str__(self) -> str:
        return "Void"


@value_class
class ClassType:
    name: str

    def __str__(self) -> str:
        return self.name


TypeRef = Union[IntType, BoolType, VoidType, ClassType]

INT = IntType()
BOOL = BoolType()
VOID = VoidType()
# The built-in types by the names the source spells them; no class may
# take one, since each means its type wherever a type is named.
BASE_TYPES = {str(t): t for t in (INT, BOOL, VOID)}


# --- values ----------------------------------------------------------------

# The values an ``Int`` holds: signed 64-bit. The parser rejects a
# literal outside it and arithmetic that leaves it is a runtime error.
INT_RANGE = range(-2**63, 2**63)


@value_class
class IntVal:
    value: int


@value_class
class BoolVal:
    value: bool


@value_class
class VoidVal:
    pass


@value_class
class NullOid:
    """The null object reference: distinct from every allocated id."""


@value_class
class OidVal:
    oid: int


@value_class
class RecordVal:
    """Ordered record of named values; field order is declaration order."""

    fields: tuple[tuple[str, "Value"], ...] = ()

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

@value_class
class AttrDef:
    name: str
    type: TypeRef
    init: Value


@value_class
class ClassDef:
    name: str
    attributes: tuple[AttrDef, ...] = ()


@value_class
class OpSig:
    """Operation signature; identity is the full (name, params, return)."""

    name: str
    param_types: tuple[TypeRef, ...]
    return_type: TypeRef

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.param_types)
        return f"{self.name}({params}): {self.return_type}"


@value_class
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

def declared_ops(sigs: Iterable[OpSig]) -> Callable[[str, int], tuple]:
    """The distinct signatures among ``sigs`` by name and parameter count,
    as a call site finds its operation: grouped by name once, by count
    when asked. Several classes may implement one signature."""
    by_name: dict[str, list[OpSig]] = {}
    for sig in sigs:
        by_name.setdefault(sig.name, []).append(sig)

    @cache
    def declared(name: str, arity: int) -> tuple[OpSig, ...]:
        return tuple(dict.fromkeys(sig for sig in by_name.get(name, ())
                                   if len(sig.param_types) == arity))

    return declared


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
    class type. When ``ds`` is absent, no other reference fits, as no model
    text can spell one. With ``ds``, a reference's class is learnt from the
    store and its chain read from ``hierarchy``; a class it has no chain
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
        if isinstance(v, OidVal) and ds is not None:
            if v.oid not in ds:
                return True
            cls = ds[v.oid].class_name
            return t.name in (hierarchy.chain(cls) or (cls,))
        return False
    return False


_REFS = (OidVal, NullOid)


def same_kind(a: Value, b: Value) -> bool:
    """Whether two values belong to the same storage kind.

    Null and non-null references count as one kind; used when no declared
    type is available (locals, link attributes).
    """
    return type(a) is type(b) or isinstance(a, _REFS) and isinstance(b, _REFS)


class Problem(NamedTuple):
    """One model defect and the model element it is about.

    ``where`` names the element, so that a caller holding source positions
    can locate the problem: ``("class", C)``, ``("extends", C, S)``,
    ``("attr", C, i)``, ``("op", C, sig)``, ``("action", C, sig, pc)``,
    ``("call", C, sig, pc)`` for that action's operation or, for the setup
    rules in ``smm.vm.check_setup``, ``("setup", i)``.
    """

    where: tuple
    message: str


def validate_model(hierarchy: Hierarchy, meth_map: MethMap) -> list[Problem]:
    """Check the structural invariants of a model; return its problems.

    This is the only home of every rule decidable from the three tables:
    the class table and subclass relation of ``hierarchy``, and the method
    map. A valid model has no class named like a built-in type, attribute
    names unique along each inheritance chain, with type-correct initial
    values, an acyclic subclass relation over known classes, and method
    entries of known classes whose signatures, parameters and bodies are
    internally consistent (unique parameters, non-empty bodies, jump
    targets in range, known parameters and classes, fitting initial
    values, ``Int`` literals inside ``INT_RANGE``, ``set`` values that are
    literals, ``return`` literals fitting the return type, operators of
    ``BIN_OPS``, and as many call and signal arguments as the operation
    takes parameters, the one signature declared with its name and that
    count, to which the parser resolves it). An action is checked by the
    rules of its class alone. Chains are read from ``hierarchy`` and walked
    only where a rule needs them; the parser hands the same one to
    ``smm.vm.check_setup``. The setup rules live in ``smm.vm.check_setup``;
    the parser keeps only what needs its tokens or would be lost in these
    tables (syntax, duplicate classes and methods, labels, name resolution,
    config keys, attribute references).
    """
    from . import actions

    class_table, scl = hierarchy.class_table, hierarchy.scl
    problems: list[Problem] = []

    def report(where: tuple, message: str) -> None:
        problems.append(Problem(where, message))

    def unknown(t: TypeRef) -> bool:
        return isinstance(t, ClassType) and t.name not in class_table

    def wide(v: Value) -> str | None:  # such a value fits no type
        if isinstance(v, IntVal) and v.value not in INT_RANGE:
            return "uses an integer outside the signed 64-bit range"
        return None

    for name, cls in class_table.items():
        if name in BASE_TYPES:
            report(("class", name), f"class {name!r} has the name of a "
                                    f"built-in type")
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

    declared = declared_ops(sig for ops in meth_map.values() for sig in ops)
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
                # Its class's block finds one problem at most: the action's
                # or, at its ("call", ...) key, its call site's.
                at, found = "action", None
                match act:
                    case actions.Jump() | actions.BranchIfFalse():
                        if not 0 <= act.target < len(meth.body):
                            found = (f"jumps to {act.target}, outside the "
                                     f"body of {len(meth.body)} actions")
                    case actions.NewLocal():
                        if unknown(act.type):
                            found = (f"declares unknown class type "
                                     f"{act.type.name!r}")
                        elif not value_fits(act.init, act.type):
                            found = (f"initial value does not fit type "
                                     f"{act.type}")
                    case actions.LocalConst():
                        if isinstance(act.value, (IntVal, BoolVal, VoidVal,
                                                  NullOid)):
                            found = wide(act.value)
                        else:
                            found = "sets a value that is not a literal"
                    case actions.ReturnConst():
                        if not value_fits(act.value, sig.return_type):
                            found = wide(act.value) or (
                                f"returns a value that does not fit return "
                                f"type {sig.return_type}")
                    case actions.NewObject():
                        if act.class_name not in class_table:
                            found = (f"creates unknown class "
                                     f"{act.class_name!r}")
                    case actions.LocalFromParam():
                        if act.param not in names:
                            found = f"loads unknown parameter {act.param!r}"
                    case actions.BinOp():
                        if act.op not in actions.BIN_OPS:
                            found = f"uses unknown operator {act.op!r}"
                    case actions.Call() | actions.SendSignal():
                        op, n = act.op, len(act.args)
                        sigs = declared(op.name, n)
                        if n != len(op.param_types):
                            found = (f"passes {n} argument(s) to {op.name!r}, "
                                     f"which takes {len(op.param_types)}")
                        elif len(sigs) > 1:
                            at, found = "call", (f"operation {op.name!r} with "
                                                 f"{n} argument(s) is ambiguous")
                        elif not sigs:
                            at, found = "call", (f"no operation {op.name!r} "
                                                 f"taking {n} argument(s) is "
                                                 f"declared")
                        elif op not in sigs:
                            at, found = "call", (f"operation {op.name!r} with "
                                                 f"{n} argument(s) is declared "
                                                 f"as {sigs[0]}, not {op}")
                if found:
                    report((at, cls_name, sig, pc), found if at == "call"
                           else f"{label}: action {pc} {found}")
    return problems
