"""The three-store simulation state and its primitive operations.

A ``SimState`` is a value: every operation returns a new state and never
mutates its argument, so a state can be kept, compared, or replayed. The
data store holds each object's class tag and attribute record, the control
store holds per-object thread frame stacks, and the event store holds one
FIFO queue of incoming events per object.

Thread ids and event sequence numbers are drawn from monotone counters kept
inside the state, which is what makes whole runs reproducible values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Union

from .errors import ExecError, InternalError
from .universe import (
    ClassDef, ClassTable, MethodDef, NullOid, OidVal, OpSig, RecordVal, Value,
    same_kind,
)


# --- objects and threads -----------------------------------------------------

@dataclass(frozen=True)
class StoredObject:
    class_name: str
    attrs: RecordVal


@dataclass(frozen=True)
class CallerRef:
    """Where a synchronous call came from and where its result must land."""

    oid: int
    tid: int
    result_local: str


@dataclass(frozen=True)
class Frame:
    """One activation: the method it runs, dispatched when it was created."""

    self_oid: int
    meth: MethodDef
    params: RecordVal
    locals: RecordVal
    pc: int
    caller: CallerRef | None


class ThreadStatus(enum.Enum):
    READY = "ready"
    WAITING = "waiting"


@dataclass(frozen=True)
class Thread:
    tid: int
    base_prio: int
    status: ThreadStatus
    frames: tuple[Frame, ...]

    @property
    def top(self) -> Frame:
        return self.frames[-1]


# --- messages and events ------------------------------------------------------

@dataclass(frozen=True)
class CallPayload:
    op: OpSig
    args: RecordVal
    result_local: str
    prio: int


@dataclass(frozen=True)
class ReturnPayload:
    value: Value
    result_local: str


@dataclass(frozen=True)
class SignalPayload:
    op: OpSig
    args: RecordVal
    prio: int


Payload = Union[CallPayload, ReturnPayload, SignalPayload]


@dataclass(frozen=True)
class Message:
    """One unit of inter-object traffic.

    For call and signal messages ``sender_thread`` is the sending thread.
    For return messages it names the thread being resumed: returns are
    routed back to the thread that issued the call.
    """

    sender: int
    sender_thread: int
    receiver: int
    payload: Payload


class EventKind(enum.Enum):
    CALL = "call"
    RETURN = "return"
    SIGNAL = "signal"


_KIND_FOR_PAYLOAD = {
    CallPayload: EventKind.CALL,
    ReturnPayload: EventKind.RETURN,
    SignalPayload: EventKind.SIGNAL,
}


@dataclass(frozen=True)
class Event:
    kind: EventKind
    msg: Message
    seq: int


def make_event(msg: Message, seq: int) -> Event:
    """Wrap a message as an event; the kind follows the payload variant."""
    return Event(_KIND_FOR_PAYLOAD[type(msg.payload)], msg, seq)


# --- the composite state ------------------------------------------------------

DataStore = dict[int, StoredObject]
ControlStore = dict[int, dict[int, Thread]]
EventStore = dict[int, tuple[Event, ...]]
EventPred = Callable[[Event], bool]


@dataclass(frozen=True)
class SimState:
    ds: DataStore
    cs: ControlStore
    es: EventStore
    next_tid: int = 0
    next_seq: int = 0

    def threads_of(self, oid: int) -> dict[int, Thread]:
        return self.cs.get(oid, {})

    def thread(self, oid: int, tid: int) -> Thread | None:
        return self.cs.get(oid, {}).get(tid)


def empty_state() -> SimState:
    return SimState(ds={}, cs={}, es={})


def alloc_object(s: SimState, cls: ClassDef) -> tuple[SimState, int]:
    """Create an object of ``cls``; ids are assigned in allocation order.

    Attributes start at their declared initial values; the new object gets
    an empty thread map and an empty event queue.
    """
    oid = len(s.ds)
    attrs = RecordVal(tuple((a.name, a.init) for a in cls.attributes))
    return replace(
        s,
        ds={**s.ds, oid: StoredObject(cls.name, attrs)},
        cs={**s.cs, oid: {}},
        es={**s.es, oid: ()},
    ), oid


def write_attr(s: SimState, oid: int, name: str, v: Value) -> SimState:
    """Overwrite one attribute; the stored value kind must be preserved."""
    obj = s.ds.get(oid)
    if obj is None:
        raise ExecError(f"no object with id {oid}", oid=oid)
    if not obj.attrs.has(name):
        raise ExecError(f"object {oid} ({obj.class_name}) has no attribute "
                        f"{name!r}", oid=oid)
    if not same_kind(obj.attrs.get(name), v):
        raise ExecError(
            f"type error writing attribute {name!r} of object {oid}: "
            f"{v!r} does not match the stored kind", oid=oid)
    new_obj = StoredObject(obj.class_name, obj.attrs.set(name, v))
    return replace(s, ds={**s.ds, oid: new_obj})


def add_link_attr(s: SimState, oid: int, name: str, target: Value) -> SimState:
    """Add or overwrite a link attribute (a reference slot set up externally)."""
    if not isinstance(target, (OidVal, NullOid)):
        raise ExecError(f"link attribute {name!r} must hold a reference", oid=oid)
    obj = s.ds[oid]
    return replace(s, ds={**s.ds, oid: StoredObject(obj.class_name,
                                                    obj.attrs.set(name, target))})


def enqueue_event(es: EventStore, e: Event) -> EventStore:
    """Append an event to its receiver's queue; other queues are untouched."""
    dst = e.msg.receiver
    if dst not in es:
        raise ExecError(f"event delivery to unknown object {dst}", oid=dst)
    return {**es, dst: es[dst] + (e,)}


def take_matching_event(es: EventStore, oid: int,
                        pred: EventPred) -> tuple[EventStore, Event | None]:
    """Remove and return the oldest event of ``oid`` satisfying ``pred``.

    The relative order of the remaining events is preserved; no match is a
    normal result, not an error.
    """
    queue = es.get(oid)
    if queue is None:
        raise ExecError(f"no object with id {oid}", oid=oid)
    for i, e in enumerate(queue):
        if pred(e):
            return {**es, oid: queue[:i] + queue[i + 1:]}, e
    return es, None


def pop_frame(s: SimState, oid: int, tid: int) -> tuple[SimState, Frame]:
    """Pop the top frame; a thread whose stack empties is removed."""
    thr = s.thread(oid, tid)
    if thr is None or not thr.frames:
        raise InternalError(f"pop on missing or empty thread {tid} of object {oid}")
    frame = thr.frames[-1]
    rest = thr.frames[:-1]
    threads = dict(s.cs[oid])
    if rest:
        threads[tid] = replace(thr, frames=rest)
    else:
        del threads[tid]
    return replace(s, cs={**s.cs, oid: threads}), frame


def update_thread(s: SimState, oid: int, tid: int, thr: Thread) -> SimState:
    if oid not in s.cs:
        raise ExecError(f"no object with id {oid}", oid=oid)
    return replace(s, cs={**s.cs, oid: {**s.cs[oid], tid: thr}})


def validate_state(s: SimState, class_table: ClassTable | None = None) -> list[str]:
    """Cross-store consistency check; returns problem messages (empty = ok).

    Used by property tests and debug assertions, not on the hot path.
    """
    problems: list[str] = []

    def check_refs(v: Value, where: str) -> None:
        if isinstance(v, OidVal) and v.oid not in s.ds:
            problems.append(f"{where}: dangling reference to {v.oid}")
        if isinstance(v, RecordVal):
            for n, inner in v.fields:
                check_refs(inner, f"{where}.{n}")

    for oid, obj in s.ds.items():
        check_refs(obj.attrs, f"object {oid}")
        if class_table is not None:
            cls = class_table.get(obj.class_name)
            if cls is None:
                problems.append(f"object {oid} has unknown class {obj.class_name!r}")
            else:
                declared = obj.attrs.fields[:len(cls.attributes)]
                for attr, (name, value) in zip(cls.attributes, declared):
                    if name != attr.name:
                        problems.append(
                            f"object {oid}: attribute order differs from "
                            f"class {cls.name!r} at {name!r}")
                    elif not same_kind(value, attr.init):
                        problems.append(
                            f"object {oid}: attribute {name!r} kind differs "
                            f"from declaration")
                for name, value in obj.attrs.fields[len(cls.attributes):]:
                    if not isinstance(value, (OidVal, NullOid)):
                        problems.append(
                            f"object {oid}: undeclared attribute {name!r} is "
                            f"not a link")

    for oid, threads in s.cs.items():
        if oid not in s.ds:
            problems.append(f"control store entry {oid} has no object")
        for tid, thr in threads.items():
            if thr.tid != tid:
                problems.append(f"thread {tid} of object {oid} carries id {thr.tid}")
            if tid >= s.next_tid:
                problems.append(f"thread {tid} not covered by the id counter")
            if not thr.frames:
                problems.append(f"thread {tid} of object {oid} has no frames")
            for f in thr.frames:
                if f.self_oid != oid:
                    problems.append(
                        f"thread {tid}: frame executes object {f.self_oid}, "
                        f"stored under {oid}")
                check_refs(f.params, f"thread {tid} params")
                check_refs(f.locals, f"thread {tid} locals")

    for oid, queue in s.es.items():
        if oid not in s.ds:
            problems.append(f"event queue for unknown object {oid}")
        seqs = [e.seq for e in queue]
        if seqs != sorted(seqs):
            problems.append(f"event queue of {oid} out of sequence order")
        for e in queue:
            if e.seq >= s.next_seq:
                problems.append(f"event seq {e.seq} not covered by the counter")
            if _KIND_FOR_PAYLOAD[type(e.msg.payload)] is not e.kind:
                problems.append(f"event seq {e.seq} kind disagrees with payload")
            if e.msg.receiver != oid:
                problems.append(f"event seq {e.seq} queued at {oid} but "
                                f"addressed to {e.msg.receiver}")
    return problems
