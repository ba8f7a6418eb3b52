"""The action language and its single-step interpreter.

Method bodies are flat lists of actions addressed by a program counter.
All operands are locals; constants enter a frame through ``LocalConst`` or
``NewLocal``. Control flow is a structured pair of ``Jump`` and
``BranchIfFalse`` over label-free pc targets.

``interpret`` executes exactly one action of one thread and returns the
successor state. Inter-object effects travel exclusively as events handed
to the configured medium: a synchronous ``Call`` parks the sender until the
matching return event is consumed, an asynchronous ``SendSignal`` does not
block, and ``Return`` answers the caller (if any) and pops the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from .errors import ExecError
from .state import (
    CallPayload, Message, RecordVal, ReturnPayload, SignalPayload,
    SimState, ThreadStatus, make_event, pop_frame, update_thread, write_attr,
)
from .universe import (
    BoolVal, IntVal, NullOid, OidVal, OpSig, TypeRef, Value, same_kind,
    value_fits,
)

BIN_OPS = ("add", "sub", "mul", "eq", "lt")
ARITH_OPS = ("add", "sub", "mul")


@dataclass(frozen=True)
class NewLocal:
    name: str
    type: TypeRef
    init: Value


@dataclass(frozen=True)
class LocalFromParam:
    local: str
    param: str


@dataclass(frozen=True)
class LocalFromAttr:
    local: str
    attr: str


@dataclass(frozen=True)
class LocalConst:
    local: str
    value: Value


@dataclass(frozen=True)
class SetAttr:
    attr: str
    local: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of BIN_OPS
    dst: str
    lhs: str
    rhs: str


@dataclass(frozen=True)
class Jump:
    target: int


@dataclass(frozen=True)
class BranchIfFalse:
    cond: str
    target: int


@dataclass(frozen=True)
class NewObject:
    dst: str
    class_name: str


@dataclass(frozen=True)
class Call:
    target: str
    op: OpSig
    args: tuple[str, ...]
    result_local: str


@dataclass(frozen=True)
class SendSignal:
    target: str
    op: OpSig
    args: tuple[str, ...]
    prio: int


@dataclass(frozen=True)
class ReturnConst:
    value: Value


@dataclass(frozen=True)
class ReturnLocal:
    name: str


Action = Union[
    NewLocal, LocalFromParam, LocalFromAttr, LocalConst, SetAttr, BinOp,
    Jump, BranchIfFalse, NewObject, Call, SendSignal, ReturnConst, ReturnLocal,
]


def _local(frame, name: str, *, oid: int, tid: int) -> Value:
    if not frame.locals.has(name):
        raise ExecError(f"unknown local {name!r}", oid=oid, tid=tid, pc=frame.pc)
    return frame.locals.get(name)


def _int_local(frame, name: str, *, oid: int, tid: int) -> int:
    v = _local(frame, name, oid=oid, tid=tid)
    if not isinstance(v, IntVal):
        raise ExecError(f"local {name!r} is not an integer",
                        oid=oid, tid=tid, pc=frame.pc)
    return v.value


def _store_local(frame, name: str, v: Value, *, oid: int, tid: int):
    old = _local(frame, name, oid=oid, tid=tid)
    if not same_kind(old, v):
        raise ExecError(f"type error assigning local {name!r}",
                        oid=oid, tid=tid, pc=frame.pc)
    return replace(frame, locals=frame.locals.set(name, v))


def _arg_record(frame, arg_names, sig: OpSig, cfg, ds, *, oid, tid) -> RecordVal:
    if len(arg_names) != len(sig.param_types):
        raise ExecError(f"call to {sig.name!r} with {len(arg_names)} arguments, "
                        f"expected {len(sig.param_types)}",
                        oid=oid, tid=tid, pc=frame.pc)
    fields = []
    for i, name in enumerate(arg_names):
        v = _local(frame, name, oid=oid, tid=tid)
        if not value_fits(v, sig.param_types[i], cfg.subclass_rel, ds):
            raise ExecError(f"argument {i} of {sig.name!r} does not fit "
                            f"type {sig.param_types[i]}",
                            oid=oid, tid=tid, pc=frame.pc)
        fields.append((str(i), v))
    return RecordVal(tuple(fields))


def _target_oid(frame, name: str, s: SimState, *, oid: int, tid: int) -> int:
    v = _local(frame, name, oid=oid, tid=tid)
    if isinstance(v, NullOid):
        raise ExecError(f"call through null reference {name!r}",
                        oid=oid, tid=tid, pc=frame.pc)
    if not isinstance(v, OidVal):
        raise ExecError(f"local {name!r} is not an object reference",
                        oid=oid, tid=tid, pc=frame.pc)
    if v.oid not in s.ds:
        raise ExecError(f"dangling reference to object {v.oid}",
                        oid=oid, tid=tid, pc=frame.pc)
    return v.oid


def interpret(action: Action, s: SimState, oid: int, tid: int, cfg) -> SimState:
    """Execute one action of thread ``tid`` of object ``oid``.

    The thread must exist and be ready, with its top frame's pc addressing
    ``action`` in the dispatched method body. Unless the action says
    otherwise, the pc advances by one.
    """
    thr = s.thread(oid, tid)
    if thr is None:
        raise ExecError(f"no thread {tid} on object {oid}", oid=oid, tid=tid)
    if thr.status is not ThreadStatus.READY:
        raise ExecError(f"thread {tid} of object {oid} is not ready",
                        oid=oid, tid=tid, pc=thr.top.pc)
    frame = thr.top
    pc = frame.pc

    def commit(new_frame, new_state: SimState | None = None,
               status: ThreadStatus = ThreadStatus.READY) -> SimState:
        base = s if new_state is None else new_state
        new_thr = replace(thr, status=status,
                          frames=thr.frames[:-1] + (new_frame,))
        return update_thread(base, oid, tid, new_thr)

    if isinstance(action, NewLocal):
        if frame.locals.has(action.name):
            raise ExecError(f"local {action.name!r} already exists",
                            oid=oid, tid=tid, pc=pc)
        if not value_fits(action.init, action.type, cfg.subclass_rel, s.ds):
            raise ExecError(f"initial value for {action.name!r} does not fit "
                            f"type {action.type}", oid=oid, tid=tid, pc=pc)
        new = replace(frame, locals=frame.locals.set(action.name, action.init),
                      pc=pc + 1)
        return commit(new)

    if isinstance(action, LocalFromParam):
        if not frame.params.has(action.param):
            raise ExecError(f"unknown parameter {action.param!r}",
                            oid=oid, tid=tid, pc=pc)
        new = _store_local(frame, action.local, frame.params.get(action.param),
                           oid=oid, tid=tid)
        return commit(replace(new, pc=pc + 1))

    if isinstance(action, LocalFromAttr):
        obj = s.ds[oid]
        if not obj.attrs.has(action.attr):
            raise ExecError(f"object {oid} ({obj.class_name}) has no attribute "
                            f"{action.attr!r}", oid=oid, tid=tid, pc=pc)
        new = _store_local(frame, action.local, obj.attrs.get(action.attr),
                           oid=oid, tid=tid)
        return commit(replace(new, pc=pc + 1))

    if isinstance(action, LocalConst):
        new = _store_local(frame, action.local, action.value, oid=oid, tid=tid)
        return commit(replace(new, pc=pc + 1))

    if isinstance(action, SetAttr):
        v = _local(frame, action.local, oid=oid, tid=tid)
        cls = cfg.class_table.get(s.ds[oid].class_name)
        if cls is not None:
            for attr in cls.attributes:
                if attr.name == action.attr and not value_fits(
                        v, attr.type, cfg.subclass_rel, s.ds):
                    raise ExecError(
                        f"type error writing attribute {action.attr!r}",
                        oid=oid, tid=tid, pc=pc)
        try:
            s2 = write_attr(s, oid, action.attr, v)
        except ExecError as err:
            raise ExecError(err.message, oid=oid, tid=tid, pc=pc) from None
        return commit(replace(frame, pc=pc + 1), s2)

    if isinstance(action, BinOp):
        if action.op not in BIN_OPS:
            raise ExecError(f"unknown operator {action.op!r}",
                            oid=oid, tid=tid, pc=pc)
        lhs = _int_local(frame, action.lhs, oid=oid, tid=tid)
        rhs = _int_local(frame, action.rhs, oid=oid, tid=tid)
        if action.op == "add":
            out: Value = IntVal(lhs + rhs)
        elif action.op == "sub":
            out = IntVal(lhs - rhs)
        elif action.op == "mul":
            out = IntVal(lhs * rhs)
        elif action.op == "eq":
            out = BoolVal(lhs == rhs)
        else:
            out = BoolVal(lhs < rhs)
        new = _store_local(frame, action.dst, out, oid=oid, tid=tid)
        return commit(replace(new, pc=pc + 1))

    if isinstance(action, Jump):
        return commit(replace(frame, pc=action.target))

    if isinstance(action, BranchIfFalse):
        cond = _local(frame, action.cond, oid=oid, tid=tid)
        if not isinstance(cond, BoolVal):
            raise ExecError(f"branch condition {action.cond!r} is not a boolean",
                            oid=oid, tid=tid, pc=pc)
        return commit(replace(frame, pc=action.target if not cond.value else pc + 1))

    if isinstance(action, NewObject):
        from .state import alloc_object
        cls = cfg.class_table.get(action.class_name)
        if cls is None:
            raise ExecError(f"unknown class {action.class_name!r}",
                            oid=oid, tid=tid, pc=pc)
        s2, new_oid = alloc_object(s, cls)
        new = _store_local(frame, action.dst, OidVal(new_oid), oid=oid, tid=tid)
        return commit(replace(new, pc=pc + 1), s2)

    if isinstance(action, Call):
        dst = _target_oid(frame, action.target, s, oid=oid, tid=tid)
        args = _arg_record(frame, action.args, action.op, cfg, s.ds,
                           oid=oid, tid=tid)
        msg = Message(sender=oid, sender_thread=tid, receiver=dst,
                      payload=CallPayload(action.op, args, action.result_local,
                                          thr.base_prio))
        event = make_event(msg, s.next_seq)
        es = cfg.medium(s.es, event)
        s2 = replace(s, es=es, next_seq=s.next_seq + 1)
        # The frame now waits at pc+1 for the return value to land in the
        # result local; the thread is offered again only once it arrives.
        return commit(replace(frame, pc=pc + 1), s2, status=ThreadStatus.WAITING)

    if isinstance(action, SendSignal):
        dst = _target_oid(frame, action.target, s, oid=oid, tid=tid)
        args = _arg_record(frame, action.args, action.op, cfg, s.ds,
                           oid=oid, tid=tid)
        msg = Message(sender=oid, sender_thread=tid, receiver=dst,
                      payload=SignalPayload(action.op, args, action.prio))
        event = make_event(msg, s.next_seq)
        es = cfg.medium(s.es, event)
        s2 = replace(s, es=es, next_seq=s.next_seq + 1)
        return commit(replace(frame, pc=pc + 1), s2)

    if isinstance(action, (ReturnConst, ReturnLocal)):
        if isinstance(action, ReturnLocal):
            value = _local(frame, action.name, oid=oid, tid=tid)
        else:
            value = action.value
        s2 = s
        if frame.caller is not None:
            back = Message(
                sender=oid,
                # Routing slot: the thread to resume at the caller.
                sender_thread=frame.caller.tid,
                receiver=frame.caller.oid,
                payload=ReturnPayload(value, frame.caller.result_local))
            event = make_event(back, s.next_seq)
            es = cfg.medium(s.es, event)
            s2 = replace(s, es=es, next_seq=s.next_seq + 1)
        s3, _ = pop_frame(s2, oid, tid)
        return s3

    raise ExecError(f"unknown action {action!r}", oid=oid, tid=tid, pc=pc)
