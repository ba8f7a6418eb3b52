"""Semantic variation points as exchangeable strategies.

Four knobs are pluggable and bundled into a ``Config``: which threads an
object offers for execution (run-to-completion vs concurrent), how one
offered thread is picked (round-robin vs priority with aging), how an
operation resolves to a method (single-inheritance lookup), and how events
travel between objects (reliable in-order delivery).

Every strategy is a pure function of its inputs; swapping strategies is the
only sanctioned way to change the machine's observable behavior.

A runnables selector reports, for one object, its offered live threads
and the buffered call and signal events it is willing to handle. Ids for
the handler threads those events would start are reserved above the
state's thread counter by ``vm.collect_runnables``, in its single walk
over objects in ascending id and each object's offered events in queue
order, so every pending handler gets a distinct, reproducible id. The
executor materializes the thread under the reserved id when the entry is
scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ExecError
from .state import (
    DataStore, Event, EventKind, EventStore, SimState, ThreadStatus,
    enqueue_event,
)
from .universe import ClassTable, MethMap, MethodDef, OpSig, SubclassRel, super_chain


@dataclass(frozen=True)
class RunnableEntry:
    """One schedulable (object, thread) offer, enriched with its last run time."""

    oid: int
    tid: int
    prio: int
    last_exec: int


Scheduler = Callable[[int, list[RunnableEntry]], tuple[int, int]]
Medium = Callable[[EventStore, Event], EventStore]
MethodDispatcher = Callable[[SubclassRel, MethMap, DataStore, int, OpSig], MethodDef]

_HANDLER_KINDS = (EventKind.CALL, EventKind.SIGNAL)


def _has_matching_return(s: SimState, oid: int, tid: int) -> bool:
    return any(e.kind is EventKind.RETURN and e.msg.sender_thread == tid
               for e in s.es.get(oid, ()))


class RunnablesSelector:
    """Base selector: offers live threads plus pending event handlers.

    Subclasses decide which buffered events are offered via
    ``pending_handler_events``. Ready threads are always offered; a waiting
    thread is offered as soon as its return event is buffered, whatever
    else the object is doing, so a synchronous call can always complete.

    The class is the strategy type ``Config.runnables_sel`` holds. It
    stays a class, not a plain function, because wrappers of the strategy
    (the traced pass in ``perfbench/tracing.py``) rely on its ``name``,
    on ``pending_handler_events(s, oid)`` as a separate method and on
    ``__call__(s, oid)``.
    """

    name = "base"

    def pending_handler_events(self, s: SimState, oid: int) -> list[Event]:
        raise NotImplementedError

    def __call__(self, s: SimState,
                 oid: int) -> tuple[list[tuple[int, int]], list[Event]]:
        """This object's (tid, prio) live-thread offers and offered events."""
        live = [(tid, thr.base_prio)
                for tid, thr in sorted(s.threads_of(oid).items())
                if thr.status is ThreadStatus.READY
                or _has_matching_return(s, oid, tid)]
        return live, self.pending_handler_events(s, oid)


class RtcRunnables(RunnablesSelector):
    """Run-to-completion: new events wait until the object is idle.

    While any thread lives in the object (ready or blocked in a nested
    call), no buffered call or signal is offered; once the object is idle
    only the oldest one is.
    """

    name = "rtc"

    def pending_handler_events(self, s: SimState, oid: int) -> list[Event]:
        if not s.threads_of(oid):
            for e in s.es.get(oid, ()):
                if e.kind in _HANDLER_KINDS:
                    return [e]
        return []


class ConcRunnables(RunnablesSelector):
    """Concurrent: every buffered call or signal is offered immediately,
    so multiple handler threads can be live in one object at once."""

    name = "conc"

    def pending_handler_events(self, s: SimState, oid: int) -> list[Event]:
        return [e for e in s.es.get(oid, ()) if e.kind in _HANDLER_KINDS]


def schedule_rr(t: int, entries: list[RunnableEntry]) -> tuple[int, int]:
    """Least-recently-executed selection; exact alternation on a stable set.

    Ties go to the smallest (oid, tid), so runs are reproducible.
    """
    if not entries:
        raise ExecError("scheduler invoked with no runnable entries")
    best = min(entries, key=lambda e: (e.last_exec, e.oid, e.tid))
    return best.oid, best.tid


def schedule_prio(t: int, entries: list[RunnableEntry]) -> tuple[int, int]:
    """Highest effective priority, where waiting time counts as priority.

    The effective priority is the base priority plus the steps since the
    entry last executed (aging), so a runnable entry can starve only for a
    bounded time. Ties go to the longest-waiting entry, then to the
    smallest (oid, tid).
    """
    if not entries:
        raise ExecError("scheduler invoked with no runnable entries")
    best = min(entries,
               key=lambda e: (-(e.prio + (t - e.last_exec)), e.last_exec,
                              e.oid, e.tid))
    return best.oid, best.tid


def dispatch_single(scl: SubclassRel, mm: MethMap, ds: DataStore,
                    oid: int, op: OpSig) -> MethodDef:
    """Single-inheritance dispatch: first implementing class along the chain."""
    obj = ds.get(oid)
    if obj is None:
        raise ExecError(f"dispatch on unknown object {oid}", oid=oid)
    for cls in super_chain(obj.class_name, scl):
        meth = mm.get(cls, {}).get(op)
        if meth is not None:
            return meth
    raise ExecError(f"no class of {obj.class_name!r} implements {op}", oid=oid)


def deliver_reliable(es: EventStore, e: Event) -> EventStore:
    """Loss-free, order-preserving, zero-latency delivery."""
    return enqueue_event(es, e)


RUNNABLES: dict[str, RunnablesSelector] = {
    "rtc": RtcRunnables(),
    "conc": ConcRunnables(),
}
SCHEDULERS: dict[str, Scheduler] = {
    "rr": schedule_rr,
    "prio": schedule_prio,
}
DISPATCHERS: dict[str, MethodDispatcher] = {
    "single": dispatch_single,
}
MEDIA: dict[str, Medium] = {
    "reliable": deliver_reliable,
}


@dataclass(frozen=True)
class Config:
    """Variation-point selections plus the model's static tables."""

    dispatcher: MethodDispatcher
    runnables_sel: RunnablesSelector
    scheduler: Scheduler
    medium: Medium
    subclass_rel: SubclassRel
    meth_map: MethMap
    class_table: ClassTable


def make_config(class_table: ClassTable, subclass_rel: SubclassRel,
                meth_map: MethMap, *, runnables: str = "rtc",
                scheduler: str = "rr", dispatch: str = "single",
                medium: str = "reliable") -> Config:
    """Build a Config from strategy names (the CLI/DSL-facing spellings)."""
    for value, table, what in ((runnables, RUNNABLES, "runnables"),
                               (scheduler, SCHEDULERS, "scheduler"),
                               (dispatch, DISPATCHERS, "dispatch"),
                               (medium, MEDIA, "medium")):
        if value not in table:
            raise ExecError(f"unknown {what} strategy {value!r}; "
                            f"choose from {sorted(table)}")
    return Config(
        dispatcher=DISPATCHERS[dispatch],
        runnables_sel=RUNNABLES[runnables],
        scheduler=SCHEDULERS[scheduler],
        medium=MEDIA[medium],
        subclass_rel=subclass_rel,
        meth_map=meth_map,
        class_table=class_table,
    )
