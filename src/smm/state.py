"""The three-store simulation state and its primitive operations.

A ``SimState`` is a value: on plain stores every operation returns a new
state and never mutates its argument. A store that only a running ``vm.run``
holds (an ``_Owned`` one: the transient pattern) is written in place, and an
operation that moves no counter then returns the very state it was given:
inside a run a new state is built only where ``next_tid`` or ``next_seq``
moves or the event store is replaced. The threads of an owned thread map
belong to the run too, and ``actions.advance`` writes the running one in
place, so a step builds a ``Thread`` only where it consumes an event; a
strategy must not keep a thread it was handed.

The data store holds each object's class tag and attribute record, the
control store holds each object's threads, each one method activation
kept as ``cs[oid][tid]`` (the ids live only in those keys), and the event
store holds one FIFO queue of incoming events per object.

Thread ids and event sequence numbers are drawn from monotone counters kept
inside the state, which is what makes whole runs reproducible values. Every
value here is a ``value_class`` (a slotted frozen dataclass), cheap to build
because a step builds several.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Union

from .errors import ExecError, InternalError
from .universe import (
    ClassDef, MethodDef, NullOid, OidVal, OpSig, RecordVal, Value, same_kind,
    value_class,
)

if TYPE_CHECKING:
    from .variation import Config


# --- objects and threads -----------------------------------------------------

@value_class
class StoredObject:
    class_name: str
    attrs: RecordVal


@value_class
class CallerRef:
    """Where a synchronous call came from and where its result must land."""

    oid: int
    tid: int
    result_local: str


class ThreadStatus(enum.Enum):
    READY = "ready"
    WAITING = "waiting"


@value_class
class Thread:
    """One method activation, stored as ``s.cs[oid][tid]``: the method it
    runs, dispatched when the thread was created, its parameters and
    locals, its program counter, and whom it answers if it was called.

    A value outside a run. Inside one, the threads of the run's own thread
    maps are copies that ``actions.advance`` writes in place, its
    ``status``, ``locals`` and ``pc``, through their slot descriptors; no
    other code writes a thread."""

    base_prio: int
    status: ThreadStatus
    meth: MethodDef
    params: RecordVal = RecordVal()
    locals: RecordVal = RecordVal()
    pc: int = 0
    caller: CallerRef | None = None


# --- messages and events ------------------------------------------------------

class EventKind(enum.Enum):
    CALL = "call"
    RETURN = "return"
    SIGNAL = "signal"


@value_class
class CallPayload:
    op: OpSig
    args: RecordVal
    result_local: str
    prio: int

    kind = EventKind.CALL


@value_class
class ReturnPayload:
    value: Value
    result_local: str

    kind = EventKind.RETURN


@value_class
class SignalPayload:
    op: OpSig
    args: RecordVal
    prio: int

    kind = EventKind.SIGNAL


Payload = Union[CallPayload, ReturnPayload, SignalPayload]


@value_class
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


@value_class
class Event:
    msg: Message
    seq: int

    @property
    def kind(self) -> EventKind:
        """The payload variant's kind; an event stores no copy of it."""
        return self.msg.payload.kind


def make_event(msg: Message, seq: int) -> Event:
    """Wrap a message as an event."""
    return Event(msg, seq)


# --- the composite state ------------------------------------------------------

DataStore = dict[int, StoredObject]
ControlStore = dict[int, dict[int, Thread]]
EventStore = dict[int, tuple[Event, ...]]
EventPred = Callable[[Event], bool]


def returns_to(tid: int) -> EventPred:
    """The events a waiting thread ``tid`` resumes with: returns routed to
    it (a return's ``sender_thread`` names the thread it resumes)."""
    return lambda e: e.msg.sender_thread == tid and e.kind is EventKind.RETURN


@value_class
class SimState:
    ds: DataStore
    cs: ControlStore
    es: EventStore
    next_tid: int = 0
    next_seq: int = 0

    def thread(self, oid: int, tid: int) -> Thread | None:
        threads = self.cs.get(oid)
        return None if threads is None else threads.get(tid)


def empty_state() -> SimState:
    return SimState(ds={}, cs={}, es={})


class _Owned(dict):  # a store or thread map only a running vm.run holds
    __slots__ = ()


def _with(store: dict, key, value) -> dict:
    """``store`` with ``key`` set to ``value``, in place if it is owned."""
    if type(store) is not _Owned:
        return {**store, key: value}
    store[key] = value
    return store


def copy_stores(s: SimState, kind: type = _Owned) -> SimState:
    """``s`` with new stores, thread maps too, of type ``kind``. Owned
    stores also get a copy of each thread, which the run then owns."""
    cs = kind((oid, kind(threads)) for oid, threads in s.cs.items())
    if kind is _Owned:  # ``actions.advance`` writes these in place
        for threads in cs.values():
            for tid, t in threads.items():
                threads[tid] = Thread(t.base_prio, t.status, t.meth,
                                      t.params, t.locals, t.pc, t.caller)
    return SimState(kind(s.ds), cs, kind(s.es), s.next_tid, s.next_seq)


def alloc_object(s: SimState, cls: ClassDef) -> tuple[SimState, int]:
    """Create an object of ``cls``; ids are assigned in allocation order.

    Attributes start at their declared initial values; the new object gets
    an empty thread map and an empty event queue. The engine passes
    ``Hierarchy.object_class``, whose attributes are the whole chain's.
    Ids are dense, ``0..n-1``, so the new id is ``len(s.ds)``; a store
    whose ids are not raises ``InternalError`` rather than losing the
    object that holds that id.
    """
    oid = len(s.ds)
    if oid in s.ds:
        raise InternalError(f"cannot allocate object id {oid}: it is taken, "
                            f"so the data store's ids are not 0..{oid - 1}")
    attrs = RecordVal(tuple((a.name, a.init) for a in cls.attributes))
    ds = _with(s.ds, oid, StoredObject(cls.name, attrs))
    cs = _with(s.cs, oid, type(s.cs)())
    es = _with(s.es, oid, ())
    if ds is s.ds and cs is s.cs and es is s.es:  # all three owned
        return s, oid
    return SimState(ds, cs, es, s.next_tid, s.next_seq), oid


def write_attr(s: SimState, oid: int, name: str, v: Value) -> SimState:
    """Overwrite one attribute; the stored value kind must be preserved."""
    obj = s.ds.get(oid)
    if obj is None:
        raise ExecError(f"no object with id {oid}", oid=oid)
    try:
        old = obj.attrs.get(name)
    except KeyError:
        raise ExecError(f"object {oid} ({obj.class_name}) has no attribute "
                        f"{name!r}", oid=oid) from None
    if not same_kind(old, v):
        raise ExecError(
            f"type error writing attribute {name!r} of object {oid}: "
            f"{v!r} does not match the stored kind", oid=oid)
    new_obj = StoredObject(obj.class_name, obj.attrs.set(name, v))
    if type(s.ds) is _Owned:
        s.ds[oid] = new_obj
        return s
    return SimState({**s.ds, oid: new_obj}, s.cs, s.es, s.next_tid,
                    s.next_seq)


def enqueue_event(es: EventStore, e: Event) -> EventStore:
    """Append an event to its receiver's queue; other queues are untouched."""
    dst = e.msg.receiver
    if dst not in es:
        raise ExecError(f"event delivery to unknown object {dst}", oid=dst)
    return _with(es, dst, es[dst] + (e,))


def take_matching_event(es: EventStore, oid: int,
                        pred: EventPred) -> tuple[EventStore, Event | None]:
    """Remove and return the oldest event of ``oid`` satisfying ``pred``.

    The relative order of the remaining events is preserved; no match is a
    normal result, not an error. ``es`` is never written, even if owned:
    the traced pass reads it after the call to find the event taken.
    """
    queue = es.get(oid)
    if queue is None:
        raise ExecError(f"no object with id {oid}", oid=oid)
    for i, e in enumerate(queue):
        if pred(e):
            rest = type(es)(es)
            rest[oid] = queue[:i] + queue[i + 1:]
            return rest, e
    return es, None


def end_thread(s: SimState, oid: int, tid: int) -> SimState:
    """``s`` without thread ``tid`` of ``oid``, whose activation returned;
    ``s`` itself when it does not hold the thread, as for a handler that
    returns at its first action, which is never stored."""
    threads = s.cs.get(oid)
    if threads is None or tid not in threads:
        return s
    if type(threads) is _Owned:
        del threads[tid]
        return s
    threads = dict(threads)
    del threads[tid]
    return SimState(s.ds, _with(s.cs, oid, threads), s.es, s.next_tid,
                    s.next_seq)


def update_thread(s: SimState, oid: int, tid: int, thr: Thread) -> SimState:
    threads = s.cs.get(oid)
    if threads is None:
        raise ExecError(f"no object with id {oid}", oid=oid)
    if type(threads) is _Owned:  # ``s.cs[oid]`` already holds it
        threads[tid] = thr
        return s
    return SimState(s.ds, _with(s.cs, oid, {**threads, tid: thr}), s.es,
                    s.next_tid, s.next_seq)


def validate_state(s: SimState, cfg: Config | None = None) -> list[str]:
    """Cross-store consistency check; returns problem messages (empty = ok).

    With a config, each object's class must be in its class table, and the
    object's record must start with the attributes of
    ``cfg.hierarchy.object_class``, in order and of the declared kinds.
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
        if not 0 <= oid < len(s.ds):
            problems.append(f"object id {oid} is outside 0..{len(s.ds) - 1}")
        check_refs(obj.attrs, f"object {oid}")
        if cfg is not None:
            if obj.class_name not in cfg.class_table:
                problems.append(f"object {oid} has unknown class {obj.class_name!r}")
            else:
                cls = cfg.hierarchy.object_class(obj.class_name)
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
            if tid >= s.next_tid:
                problems.append(f"thread {tid} not covered by the id counter")
            check_refs(thr.params, f"thread {tid} params")
            check_refs(thr.locals, f"thread {tid} locals")

    for oid, queue in s.es.items():
        if oid not in s.ds:
            problems.append(f"event queue for unknown object {oid}")
        seqs = [e.seq for e in queue]
        if seqs != sorted(seqs):
            problems.append(f"event queue of {oid} out of sequence order")
        for e in queue:
            if e.seq >= s.next_seq:
                problems.append(f"event seq {e.seq} not covered by the counter")
            if e.msg.receiver != oid:
                problems.append(f"event seq {e.seq} queued at {oid} but "
                                f"addressed to {e.msg.receiver}")
    return problems
