"""The action language and its single-step interpreter.

Method bodies are flat lists of actions addressed by a program counter.
All operands are locals; constants enter a thread through ``LocalConst`` or
``NewLocal``. Control flow is a structured pair of ``Jump`` and
``BranchIfFalse`` over label-free pc targets.

``interpret`` executes exactly one action of one thread and returns the
successor state. Inter-object effects travel exclusively as events handed
to the configured medium: a synchronous ``Call`` parks the sender until the
matching return event is consumed, an asynchronous ``SendSignal`` does not
block, and ``Return`` answers the caller (if any) and ends the thread.
"""

from __future__ import annotations

from typing import Callable, Union

from .errors import ExecError
from .state import (
    CallPayload, Message, RecordVal, ReturnPayload, SignalPayload,
    SimState, Thread, ThreadStatus, _Owned, alloc_object, end_thread,
    make_event, update_thread, write_attr,
)
from .universe import (
    BoolVal, INT_RANGE, IntVal, NullOid, OidVal, OpSig, TypeRef, Value,
    same_kind, value_class, value_fits,
)

# Each binary operator's name, as the source spells it, and what it
# computes from its two integer operands.
BIN_OPS: dict[str, Callable[[int, int], Value]] = {
    "add": lambda a, b: IntVal(a + b),
    "sub": lambda a, b: IntVal(a - b),
    "mul": lambda a, b: IntVal(a * b),
    "eq": lambda a, b: BoolVal(a == b),
    "lt": lambda a, b: BoolVal(a < b),
}


@value_class
class NewLocal:
    name: str
    type: TypeRef
    init: Value


@value_class
class LocalFromParam:
    local: str
    param: str


@value_class
class LocalFromAttr:
    local: str
    attr: str


@value_class
class LocalConst:
    local: str
    value: Value


@value_class
class SetAttr:
    attr: str
    local: str


@value_class
class BinOp:
    op: str  # one of BIN_OPS
    dst: str
    lhs: str
    rhs: str


@value_class
class Jump:
    target: int


@value_class
class BranchIfFalse:
    cond: str
    target: int


@value_class
class NewObject:
    dst: str
    class_name: str


@value_class
class Call:
    target: str
    op: OpSig
    args: tuple[str, ...]
    result_local: str


@value_class
class SendSignal:
    target: str
    op: OpSig
    args: tuple[str, ...]
    prio: int


@value_class
class ReturnConst:
    value: Value


@value_class
class ReturnLocal:
    name: str


Action = Union[
    NewLocal, LocalFromParam, LocalFromAttr, LocalConst, SetAttr, BinOp,
    Jump, BranchIfFalse, NewObject, Call, SendSignal, ReturnConst, ReturnLocal,
]


def _local(thr, name: str) -> Value:
    try:
        return thr.locals.get(name)
    except KeyError:
        raise ExecError(f"unknown local {name!r}") from None


def _int_local(thr, name: str) -> int:
    v = _local(thr, name)
    if not isinstance(v, IntVal):
        raise ExecError(f"local {name!r} is not an integer")
    return v.value


def store_local(thr, name: str, v: Value, *,
                create: bool = False) -> RecordVal:
    """The thread's locals with ``name`` set to ``v``, in one scan.

    An existing local keeps its kind. A missing one is an error, or with
    ``create`` is appended.
    """
    fields = thr.locals.fields
    for i, (n, old) in enumerate(fields):
        if n == name:
            if not same_kind(old, v):
                raise ExecError(f"type error assigning local {name!r}")
            return RecordVal(fields[:i] + ((name, v),) + fields[i + 1:])
    if not create:
        raise ExecError(f"unknown local {name!r}")
    return RecordVal(fields + ((name, v),))


def _arg_record(thr, arg_names, sig: OpSig, cfg, ds) -> RecordVal:
    if len(arg_names) != len(sig.param_types):
        raise ExecError(f"call to {sig.name!r} with {len(arg_names)} arguments, "
                        f"expected {len(sig.param_types)}")
    fields = []
    for i, name in enumerate(arg_names):
        v = _local(thr, name)
        if not value_fits(v, sig.param_types[i], ds, cfg.hierarchy):
            raise ExecError(f"argument {i} of {sig.name!r} does not fit "
                            f"type {sig.param_types[i]}")
        fields.append((str(i), v))
    return RecordVal(tuple(fields))


def _target_oid(thr, action: Call | SendSignal, s: SimState) -> int:
    v = _local(thr, action.target)
    if isinstance(v, NullOid):
        verb = "call" if isinstance(action, Call) else "send"
        raise ExecError(f"{verb} through null reference {action.target!r}")
    if not isinstance(v, OidVal):
        raise ExecError(f"local {action.target!r} is not an object reference")
    if v.oid not in s.ds:
        raise ExecError(f"dangling reference to object {v.oid}")
    return v.oid


def _jump(thr, target: int) -> int:
    body = thr.meth.body
    if not 0 <= target < len(body):
        raise ExecError(f"action {thr.pc} jumps to {target}, outside the "
                        f"body of {len(body)} actions")
    return target


def _emit(s: SimState, cfg, msg: Message) -> SimState:
    """``s`` with ``msg`` handed to the medium as the next event."""
    es = cfg.medium(s.es, make_event(msg, s.next_seq))
    return SimState(s.ds, s.cs, es, s.next_tid, s.next_seq + 1)


# The slot descriptors ``advance`` writes a thread a run owns through, as
# ``value_class``'s ``__init__`` stores a field.
_set_status, _set_locals, _set_pc = (
    Thread.__dict__[name].__set__ for name in ("status", "locals", "pc"))


def advance(s: SimState, oid: int, tid: int, thr: Thread,
            locals: RecordVal | None = None, pc: int | None = None,
            status: ThreadStatus = ThreadStatus.READY) -> SimState:
    """``s`` with ``thr``, thread ``tid`` of ``oid``, moved on: at ``pc``
    (by default its next action), with ``locals`` (by default its own), in
    ``status``. The one writer of a running thread.

    On a plain thread map it builds one new thread and writes neither
    ``s`` nor ``thr``. On a thread map a run owns, whose threads the run
    owns too, it writes ``thr`` in place and builds nothing; it stores
    ``thr`` only when the map does not hold it yet, as for a handler or
    resumed thread fresh from ``vm.consume_event``."""
    threads = s.cs.get(oid)
    if type(threads) is not _Owned:
        return update_thread(s, oid, tid, Thread(
            thr.base_prio, status, thr.meth, thr.params,
            thr.locals if locals is None else locals,
            thr.pc + 1 if pc is None else pc, thr.caller))
    _set_pc(thr, thr.pc + 1 if pc is None else pc)
    if locals is not None:
        _set_locals(thr, locals)
    _set_status(thr, status)
    if threads.get(tid) is thr:
        return s
    return update_thread(s, oid, tid, thr)


def interpret(action: Action, s: SimState, oid: int, tid: int, thr: Thread,
              cfg) -> SimState:
    """Execute one action of ``thr``, thread ``tid`` of object ``oid``.

    ``thr`` must be that thread, ready, with its pc addressing ``action``
    in the dispatched method body; ``s`` may hold an older version of it,
    or none. On stores a run owns, ``s`` holds that very thread or none,
    and the action writes ``thr`` in place (see ``advance``). ``vm.step``
    fetches or builds it, and adds the (oid, tid, pc) context to any
    ``ExecError`` raised here.
    Unless the action says otherwise, the pc advances by one.
    """
    if isinstance(action, NewLocal):
        fields = thr.locals.fields
        for n, _ in fields:
            if n == action.name:
                raise ExecError(f"local {action.name!r} already exists")
        if not value_fits(action.init, action.type, s.ds, cfg.hierarchy):
            raise ExecError(f"initial value for {action.name!r} does not fit "
                            f"type {action.type}")
        return advance(s, oid, tid, thr,
                       RecordVal(fields + ((action.name, action.init),)))

    if isinstance(action, LocalFromParam):
        try:
            v = thr.params.get(action.param)
        except KeyError:
            raise ExecError(f"unknown parameter {action.param!r}") from None
        return advance(s, oid, tid, thr, store_local(thr, action.local, v))

    if isinstance(action, LocalFromAttr):
        obj = s.ds[oid]
        try:
            v = obj.attrs.get(action.attr)
        except KeyError:
            raise ExecError(f"object {oid} ({obj.class_name}) has no "
                            f"attribute {action.attr!r}") from None
        return advance(s, oid, tid, thr, store_local(thr, action.local, v))

    if isinstance(action, LocalConst):
        return advance(s, oid, tid, thr,
                       store_local(thr, action.local, action.value))

    if isinstance(action, SetAttr):
        v = _local(thr, action.local)
        cls_name = s.ds[oid].class_name
        if cls_name in cfg.class_table:
            for attr in cfg.hierarchy.object_class(cls_name).attributes:
                if attr.name == action.attr and not value_fits(
                        v, attr.type, s.ds, cfg.hierarchy):
                    raise ExecError(
                        f"type error writing attribute {action.attr!r}")
        return advance(write_attr(s, oid, action.attr, v), oid, tid, thr)

    if isinstance(action, BinOp):
        compute = BIN_OPS.get(action.op)
        if compute is None:
            raise ExecError(f"unknown operator {action.op!r}")
        out = compute(_int_local(thr, action.lhs),
                      _int_local(thr, action.rhs))
        if isinstance(out, IntVal) and out.value not in INT_RANGE:
            raise ExecError(f"integer overflow in {action.op!r}")
        return advance(s, oid, tid, thr,
                       store_local(thr, action.dst, out))

    if isinstance(action, Jump):
        return advance(s, oid, tid, thr, pc=_jump(thr, action.target))

    if isinstance(action, BranchIfFalse):
        cond = _local(thr, action.cond)
        if not isinstance(cond, BoolVal):
            raise ExecError(f"branch condition {action.cond!r} is not a boolean")
        if cond.value:
            return advance(s, oid, tid, thr)
        return advance(s, oid, tid, thr, pc=_jump(thr, action.target))

    if isinstance(action, NewObject):
        if action.class_name not in cfg.class_table:
            raise ExecError(f"unknown class {action.class_name!r}")
        s2, new_oid = alloc_object(s, cfg.hierarchy.object_class(
            action.class_name))
        return advance(s2, oid, tid, thr,
                       store_local(thr, action.dst, OidVal(new_oid)))

    if isinstance(action, (Call, SendSignal)):
        dst = _target_oid(thr, action, s)
        args = _arg_record(thr, action.args, action.op, cfg, s.ds)
        if isinstance(action, Call):
            payload = CallPayload(action.op, args, action.result_local,
                                  thr.base_prio)
            # The thread now waits at pc+1 for the return value to land in
            # the result local; it is offered again only once it arrives.
            status = ThreadStatus.WAITING
        else:
            payload = SignalPayload(action.op, args, action.prio)
            status = ThreadStatus.READY
        s2 = _emit(s, cfg, Message(sender=oid, sender_thread=tid,
                                   receiver=dst, payload=payload))
        return advance(s2, oid, tid, thr, status=status)

    if isinstance(action, (ReturnConst, ReturnLocal)):
        if isinstance(action, ReturnLocal):
            value = _local(thr, action.name)
            sig = thr.meth.implements
            if not value_fits(value, sig.return_type, s.ds, cfg.hierarchy):
                raise ExecError(f"{sig.name!r} returns a value that does not "
                                f"fit its return type {sig.return_type}")
        else:
            value = action.value
        s2 = s
        if thr.caller is not None:
            s2 = _emit(s, cfg, Message(
                sender=oid,
                # Routing slot: the thread to resume at the caller.
                sender_thread=thr.caller.tid,
                receiver=thr.caller.oid,
                payload=ReturnPayload(value, thr.caller.result_local)))
        return end_thread(s2, oid, tid)

    raise ExecError(f"unknown action {action!r}")
