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
    CallPayload, Frame, Message, RecordVal, ReturnPayload, SignalPayload,
    SimState, Thread, ThreadStatus, alloc_object, make_event, pop_frame,
    update_thread, write_attr,
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


def _local(frame, name: str) -> Value:
    if not frame.locals.has(name):
        raise ExecError(f"unknown local {name!r}")
    return frame.locals.get(name)


def _int_local(frame, name: str) -> int:
    v = _local(frame, name)
    if not isinstance(v, IntVal):
        raise ExecError(f"local {name!r} is not an integer")
    return v.value


def _store_local(frame, name: str, v: Value):
    if not same_kind(_local(frame, name), v):
        raise ExecError(f"type error assigning local {name!r}")
    return replace(frame, locals=frame.locals.set(name, v))


def _arg_record(frame, arg_names, sig: OpSig, cfg, ds) -> RecordVal:
    if len(arg_names) != len(sig.param_types):
        raise ExecError(f"call to {sig.name!r} with {len(arg_names)} arguments, "
                        f"expected {len(sig.param_types)}")
    fields = []
    for i, name in enumerate(arg_names):
        v = _local(frame, name)
        if not value_fits(v, sig.param_types[i], cfg.subclass_rel, ds):
            raise ExecError(f"argument {i} of {sig.name!r} does not fit "
                            f"type {sig.param_types[i]}")
        fields.append((str(i), v))
    return RecordVal(tuple(fields))


def _target_oid(frame, name: str, s: SimState) -> int:
    v = _local(frame, name)
    if isinstance(v, NullOid):
        raise ExecError(f"call through null reference {name!r}")
    if not isinstance(v, OidVal):
        raise ExecError(f"local {name!r} is not an object reference")
    if v.oid not in s.ds:
        raise ExecError(f"dangling reference to object {v.oid}")
    return v.oid


def _jump(frame, target: int):
    body = frame.meth.body
    if not 0 <= target < len(body):
        raise ExecError(f"action {frame.pc} jumps to {target}, outside the "
                        f"body of {len(body)} actions")
    return replace(frame, pc=target)


def _emit(s: SimState, cfg, msg: Message) -> SimState:
    """``s`` with ``msg`` handed to the medium as the next event."""
    es = cfg.medium(s.es, make_event(msg, s.next_seq))
    return replace(s, es=es, next_seq=s.next_seq + 1)


def replace_top(s: SimState, thr: Thread, frame: Frame,
                status: ThreadStatus = ThreadStatus.READY) -> SimState:
    """``s`` with ``thr``'s top frame replaced by ``frame``, in ``status``.

    The thread is stored under its own id at the frame's object.
    """
    new_thr = replace(thr, status=status, frames=thr.frames[:-1] + (frame,))
    return update_thread(s, frame.self_oid, thr.tid, new_thr)


def interpret(action: Action, s: SimState, oid: int, tid: int, cfg) -> SimState:
    """Execute one action of thread ``tid`` of object ``oid``.

    The thread must exist and be ready, with its top frame's pc addressing
    ``action`` in the dispatched method body; ``vm.step`` checks that and
    adds the (oid, tid, pc) context to any ``ExecError`` raised here.
    Unless the action says otherwise, the pc advances by one.
    """
    thr = s.thread(oid, tid)
    frame = thr.top
    pc = frame.pc

    def commit(new_frame: Frame, base: SimState = s,
               status: ThreadStatus = ThreadStatus.READY) -> SimState:
        return replace_top(base, thr, new_frame, status)

    if isinstance(action, NewLocal):
        if frame.locals.has(action.name):
            raise ExecError(f"local {action.name!r} already exists")
        if not value_fits(action.init, action.type, cfg.subclass_rel, s.ds):
            raise ExecError(f"initial value for {action.name!r} does not fit "
                            f"type {action.type}")
        new = replace(frame, locals=frame.locals.set(action.name, action.init),
                      pc=pc + 1)
        return commit(new)

    if isinstance(action, LocalFromParam):
        if not frame.params.has(action.param):
            raise ExecError(f"unknown parameter {action.param!r}")
        new = _store_local(frame, action.local, frame.params.get(action.param))
        return commit(replace(new, pc=pc + 1))

    if isinstance(action, LocalFromAttr):
        obj = s.ds[oid]
        if not obj.attrs.has(action.attr):
            raise ExecError(f"object {oid} ({obj.class_name}) has no attribute "
                            f"{action.attr!r}")
        new = _store_local(frame, action.local, obj.attrs.get(action.attr))
        return commit(replace(new, pc=pc + 1))

    if isinstance(action, LocalConst):
        new = _store_local(frame, action.local, action.value)
        return commit(replace(new, pc=pc + 1))

    if isinstance(action, SetAttr):
        v = _local(frame, action.local)
        cls = cfg.class_table.get(s.ds[oid].class_name)
        if cls is not None:
            for attr in cls.attributes:
                if attr.name == action.attr and not value_fits(
                        v, attr.type, cfg.subclass_rel, s.ds):
                    raise ExecError(
                        f"type error writing attribute {action.attr!r}")
        return commit(replace(frame, pc=pc + 1),
                      write_attr(s, oid, action.attr, v))

    if isinstance(action, BinOp):
        if action.op not in BIN_OPS:
            raise ExecError(f"unknown operator {action.op!r}")
        lhs = _int_local(frame, action.lhs)
        rhs = _int_local(frame, action.rhs)
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
        new = _store_local(frame, action.dst, out)
        return commit(replace(new, pc=pc + 1))

    if isinstance(action, Jump):
        return commit(_jump(frame, action.target))

    if isinstance(action, BranchIfFalse):
        cond = _local(frame, action.cond)
        if not isinstance(cond, BoolVal):
            raise ExecError(f"branch condition {action.cond!r} is not a boolean")
        if cond.value:
            return commit(replace(frame, pc=pc + 1))
        return commit(_jump(frame, action.target))

    if isinstance(action, NewObject):
        cls = cfg.class_table.get(action.class_name)
        if cls is None:
            raise ExecError(f"unknown class {action.class_name!r}")
        s2, new_oid = alloc_object(s, cls)
        new = _store_local(frame, action.dst, OidVal(new_oid))
        return commit(replace(new, pc=pc + 1), s2)

    if isinstance(action, (Call, SendSignal)):
        dst = _target_oid(frame, action.target, s)
        args = _arg_record(frame, action.args, action.op, cfg, s.ds)
        if isinstance(action, Call):
            payload = CallPayload(action.op, args, action.result_local,
                                  thr.base_prio)
            # The frame now waits at pc+1 for the return value to land in
            # the result local; the thread is offered again only once it
            # arrives.
            status = ThreadStatus.WAITING
        else:
            payload = SignalPayload(action.op, args, action.prio)
            status = ThreadStatus.READY
        s2 = _emit(s, cfg, Message(sender=oid, sender_thread=tid,
                                   receiver=dst, payload=payload))
        return commit(replace(frame, pc=pc + 1), s2, status)

    if isinstance(action, (ReturnConst, ReturnLocal)):
        if isinstance(action, ReturnLocal):
            value = _local(frame, action.name)
        else:
            value = action.value
        s2 = s
        if frame.caller is not None:
            s2 = _emit(s, cfg, Message(
                sender=oid,
                # Routing slot: the thread to resume at the caller.
                sender_thread=frame.caller.tid,
                receiver=frame.caller.oid,
                payload=ReturnPayload(value, frame.caller.result_local)))
        s3, _ = pop_frame(s2, oid, tid)
        return s3

    raise ExecError(f"unknown action {action!r}")
