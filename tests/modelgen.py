"""Seeded random generation of valid models for round-trip testing."""

from __future__ import annotations

import random

from smm import (
    Active, AttrDef, BOOL, BoolVal, ClassDef, ClassType, INT, IntVal,
    MethodDef, ModelDef, NULL_OID, OpSig, Passive, SetupEntry, VOID, VOID_VAL,
    super_chain,
)
from smm.actions import (
    BinOp, BranchIfFalse, Call, Jump, LocalConst, LocalFromAttr,
    LocalFromParam, NewLocal, NewObject, ReturnConst, ReturnLocal, SendSignal,
    SetAttr,
)

_SCALARS = (INT, BOOL)


def _literal_for(rng: random.Random, t):
    if t == INT:
        return IntVal(rng.randint(-99, 99))
    if t == BOOL:
        return BoolVal(rng.random() < 0.5)
    return NULL_OID


def random_model(rng: random.Random, objects: int | None = None, *,
                 supers: int = 1, linked: bool = False) -> ModelDef:
    """A valid model drawn from ``rng``, with ``objects`` setup objects
    (by default zero to three, also drawn).

    Each class extends at most ``supers`` earlier classes. Beyond one,
    there are two to six classes, diamonds among them, and an operation
    may have a second method in another class, so that dispatch chooses
    along a chain; with the default, ``rng`` is drawn from as it always
    was, so a seed gives the same model as before.

    With ``linked``, events are delivered: every setup object links every
    setup object, itself too, and a call or signal goes to one of them
    whose class implements the operation, read from its link into a
    local of its own just before. Every body ends with one more such
    send, the first operation takes no parameters, every setup object
    that can start one is active, and an attribute is read into or
    written from only a local of its type. The setup objects' classes are
    then drawn before the method bodies, which name them. Without it,
    ``rng`` is drawn from as it always was.
    """
    n_classes = rng.randint(1, 4) if supers == 1 else rng.randint(2, 6)
    names = [f"C{i}" for i in range(n_classes)]
    scl = {}
    for i, name in enumerate(names[1:], start=1):
        if supers == 1:
            if rng.random() < 0.4:
                scl[name] = (names[rng.randrange(i)],)
        elif rng.random() < 0.7:
            k = rng.randint(1, min(supers, i))
            scl[name] = tuple(rng.sample(names[:i], k))

    classes = {}
    for name in names:
        attrs = []
        for j in range(rng.randint(0, 3)):
            if rng.random() < 0.25:
                t = ClassType(rng.choice(names))
            else:
                t = rng.choice(_SCALARS)
            # Named after the class, so no chain declares a name twice.
            attrs.append(AttrDef(f"{name.lower()}a{j}", t,
                                 _literal_for(rng, t)))
        classes[name] = ClassDef(name, tuple(attrs))

    n_ops = rng.randint(1, 4)
    op_defs = []
    for k in range(n_ops):
        params = tuple((f"p{i}", rng.choice(_SCALARS))
                       for i in range(0 if linked and k == 0
                                      else rng.randint(0, 2)))
        ret = rng.choice((INT, BOOL, VOID))
        sig = OpSig(f"op{k}", tuple(t for _, t in params), ret)
        op_defs.append((sig, params, rng.choice(names)))
    sigs = [sig for sig, _, _ in op_defs]
    if supers > 1:
        op_defs += [(sig, params, rng.choice(names))
                    for sig, params, _ in list(op_defs) if rng.random() < 0.5]

    entry_classes = receivers = None
    if linked:
        if objects is None:
            objects = rng.randint(0, 3)
        entry_classes = [rng.choice(names) for _ in range(objects)]
        # The setup objects each operation dispatches on, with their class.
        chains = [super_chain(cls, scl) for cls in entry_classes]
        receivers = {sig: [(f"o{i}", entry_classes[i], chain)
                           for i, chain in enumerate(chains)
                           if any(owner in chain for s, _, owner in op_defs
                                  if s == sig)]
                     for sig in sigs}

    meth_map: dict[str, dict[OpSig, MethodDef]] = {}
    for sig, params, owner in op_defs:
        body = _random_body(rng, classes[owner], params, sig.return_type,
                            names, sigs, receivers)
        meth_map.setdefault(owner, {})[sig] = MethodDef(sig, params, body)

    nullary_by_class = {}
    for name in names:
        chain = super_chain(name, scl)
        nullary_by_class[name] = sorted(
            {sig.name for cls in chain for sig in meth_map.get(cls, {})
             if not sig.param_types})

    setup = []
    if objects is None:
        objects = rng.randint(0, 3)
    entry_names = [f"o{i}" for i in range(objects)]
    for i, ename in enumerate(entry_names):
        cls = rng.choice(names) if entry_classes is None else \
            entry_classes[i]
        ops = nullary_by_class[cls]
        if ops and (linked or rng.random() < 0.6):
            # Resolve to the one signature of that name (names are unique).
            op_name = rng.choice(ops)
            sig = next(s for s in sigs if s.name == op_name)
            kind = Active(sig, rng.randint(0, 10))
        else:
            kind = Passive()
        links = tuple(entry_names) if linked else tuple(
            n for n in entry_names if n != ename and rng.random() < 0.3)
        setup.append(SetupEntry(ename, cls, kind, links))

    config = {"runnables": rng.choice(("rtc", "conc")),
              "scheduler": rng.choice(("rr", "prio")),
              "dispatch": "single", "medium": "reliable"}
    return ModelDef(classes, scl, meth_map, tuple(setup), config)


def _random_body(rng: random.Random, cls: ClassDef, params, ret, class_names,
                 sigs, receivers=None) -> tuple:
    """A method body; with ``receivers`` (see ``random_model``'s
    ``linked``), each call or signal goes to a linked setup object that
    its operation dispatches on, if one does."""
    body = []
    locals_: list[tuple[str, object]] = []

    def fresh_local():
        name = f"v{len(locals_)}"
        if rng.random() < 0.25:
            t = ClassType(rng.choice(class_names))
        else:
            t = rng.choice(_SCALARS)
        locals_.append((name, t))
        body.append(NewLocal(name, t, _literal_for(rng, t)))
        return name, t

    def locals_of(kind):
        return [n for n, t in locals_ if t == kind]

    def locals_for(attr):
        """The locals an attribute is read into or written from: any, or
        with ``receivers`` those declared with its type."""
        return [n for n, t in locals_ if receivers is None or t == attr.type]

    link_locals: set[str] = set()  # declared for ``receivers``

    def send(refs):
        """A call or signal through one of ``refs``, or with
        ``receivers`` through a link, if its arguments can be found."""
        if receivers is None:
            sig = rng.choice(sigs)
        else:
            call = rng.random() < 0.5
            # The links that dispatch each operation the locals can pass.
            # A call never goes to an object that may run this very body:
            # under rtc it would wait for itself.
            fit = {sig: pool for sig in sigs
                   if all(locals_of(pt) for pt in sig.param_types)
                   and (pool := [(link, link_cls)
                                 for link, link_cls, chain in receivers[sig]
                                 if not (call and cls.name in chain)])}
            if not fit:
                return
            sig = rng.choice(list(fit))
        args = []
        for pt in sig.param_types:
            pool = locals_of(pt)
            if not pool:
                return
            args.append(rng.choice(pool))
        if receivers is None:
            call = rng.random() < 0.5
            target = rng.choice(refs)
        else:
            link, link_cls = rng.choice(fit[sig])
            target = f"{link}ref"
            if target not in link_locals:
                link_locals.add(target)
                body.append(NewLocal(target, ClassType(link_cls), NULL_OID))
            body.append(LocalFromAttr(target, link))
        if call:
            body.append(Call(target, sig, tuple(args), "r"))
        else:
            body.append(SendSignal(target, sig, tuple(args),
                                   rng.randint(0, 5)))

    for _ in range(rng.randint(1, 3)):
        fresh_local()

    for _ in range(rng.randint(0, 6)):
        choice = rng.random()
        ints = locals_of(INT)
        bools = locals_of(BOOL)
        refs = [n for n, t in locals_ if isinstance(t, ClassType)]
        if choice < 0.15 and params:
            pname, pt = rng.choice(params)
            targets = locals_of(pt)
            if targets:
                body.append(LocalFromParam(rng.choice(targets), pname))
        elif choice < 0.3 and cls.attributes:
            attr = rng.choice(cls.attributes)
            pool = locals_for(attr)
            if pool:
                body.append(LocalFromAttr(rng.choice(pool), attr.name))
        elif choice < 0.45 and cls.attributes:
            attr = rng.choice(cls.attributes)
            pool = locals_for(attr)
            if pool:
                body.append(SetAttr(attr.name, rng.choice(pool)))
        elif choice < 0.6 and len(ints) >= 2 and (ints or bools):
            op = rng.choice(("add", "sub", "mul", "eq", "lt"))
            dst_pool = bools if op in ("eq", "lt") else ints
            if dst_pool:
                body.append(BinOp(op, rng.choice(dst_pool), rng.choice(ints),
                                  rng.choice(ints)))
        elif choice < 0.7:
            name, t = rng.choice(locals_)
            body.append(LocalConst(name, _literal_for(rng, t)))
        elif choice < 0.8 and refs:
            body.append(NewObject(rng.choice(refs), rng.choice(class_names)))
        elif choice < 0.9 and (refs or receivers is not None) and sigs:
            send(refs)
        else:
            fresh_local()
    if receivers is not None:
        send([])

    bools = locals_of(BOOL)
    if bools and rng.random() < 0.4:
        body.append(BranchIfFalse(rng.choice(bools),
                                  rng.randrange(len(body) + 2)))
    if rng.random() < 0.2:
        body.append(Jump(rng.randrange(len(body) + 2)))

    # A return literal fits the return type; a returned local is one
    # declared with it, which still may hold another class's object.
    fitting = locals_of(ret)
    if rng.random() < 0.3 and fitting:
        body.append(ReturnLocal(rng.choice(fitting)))
    else:
        body.append(ReturnConst(VOID_VAL if ret == VOID
                                else _literal_for(rng, ret)))
    return tuple(body)
