"""Semantic variation points as exchangeable strategies.

Four knobs are pluggable and bundled into a ``Config``: which threads an
object offers for execution (run-to-completion vs concurrent), how one
offered thread is picked (round-robin vs priority with aging), how an
operation resolves to a method (lookup along the receiver's class, then its
superclasses depth-first in declaration order), and how events travel
between objects (reliable in-order delivery).

Every strategy is a function of its inputs alone; swapping strategies is
the only sanctioned way to change the machine's observable behavior.

A runnables selector reports, for one object, its offered live threads
and the buffered call and signal events it is willing to handle. Ids for
the handler threads those events would start are reserved above the
state's thread counter, in ascending object id and each object's offered
events in queue order, so every pending handler gets a distinct,
reproducible id. The executor materializes the thread under the reserved
id when the entry is scheduled.

Which live threads an object offers is one rule for every selector,
``is_live``: a thread is offered when it is ready, or waiting with its
return buffered. A strategy varies only ``pending_handler_events``.

A scheduler picks one entry of all offered. A ``Least`` scheduler, as
both bundled ones are, carries a static order, a key of an entry's
priority and last execution time that does not depend on the current
time (``rr_order``, ``prio_order``), and picks the least entry by that
key, ties to the smallest (oid, tid). ``vm.run`` uses the key in its
place: it keeps each offered thread, and each object's least offered
event, by that key in a heap and never calls the scheduler. There it
applies ``is_live`` itself and asks the selector only for
``pending_handler_events``, so it requires a ``RunnablesSelector`` that
does not override ``__call__``. Any other scheduler, a function or a
wrapped ``Least``, is asked with every entry on every step, and its
selector is called.

The selector contract: what ``sel(s, oid)`` and
``sel.pending_handler_events(s, oid)`` return depend only on the
object's own thread map ``s.cs[oid]`` and its own queue ``s.es[oid]``.
``base``, ``rtc`` and ``conc`` all keep it, and the engine relies on it to
skip untouched objects: after a step it asks again only the objects whose
thread map or queue the step may have replaced, and keeps the others'
offers. By the medium contract those are the acting object, the objects
the step allocated and the receiver of the event it emitted, known
without looking at any other queue. Of their threads only the acting
one can change status, so the heap re-applies ``is_live`` to the acting
thread and to the waiting threads of the objects whose queue changed.

The medium contract: the store ``medium(es, e)`` returns may differ from
``es`` only at ``e.msg.receiver``. It has the same object ids, and every
other id keeps the very queue object it had. ``deliver_reliable`` keeps
it, and so does a wrapper that returns its result. The engine relies on
it for the footprint above; a medium that writes another queue leaves
that object's offers stale. A medium may return a plain dict. And as
``vm.run`` writes the stores of the states it hands a strategy in place,
and the threads in them, and a step there may hand back the very state it
was given, no strategy may keep a store, a state, or a thread after it
returns, nor tell states apart by identity.

The dispatcher contract: the method ``dispatcher(scl, mm, ds, oid, op)``
returns depends only on the class of object ``oid`` and on ``op``. The
engine relies on it to ask once per (class, op) pair per ``Config``,
through ``Config.method``; a dispatch that raises is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .errors import ExecError
from .state import (
    DataStore, Event, EventKind, EventStore, SimState, Thread, ThreadStatus,
    enqueue_event, returns_to,
)
from .universe import (
    ClassTable, Hierarchy, MethMap, MethodDef, OpSig, SubclassRel,
    super_chain, value_class,
)


@value_class
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
_READY = ThreadStatus.READY


def is_live(thr: Thread, tid: int, queue: tuple[Event, ...]) -> bool:
    """Whether thread ``tid``, with its object's ``queue``, is offered:
    it is ready, or waiting with its return buffered. Every selector
    offers its live threads by this rule, whatever else the object is
    doing, so a synchronous call can always complete."""
    return thr.status is _READY or any(map(returns_to(tid), queue))


class RunnablesSelector:
    """Base selector: offers live threads plus pending event handlers.

    Subclasses decide which buffered events are offered via
    ``pending_handler_events``; the live threads are those ``is_live``
    admits, for every subclass alike.

    The class is the strategy type ``Config.runnables_sel`` holds. It
    stays a class, not a plain function, because ``vm.run`` asks a
    ``Least`` scheduler's selector only for ``pending_handler_events(s,
    oid)``, and because wrappers of the strategy (the traced pass in
    ``perfbench/tracing.py``) rely on its ``name``, on that method and on
    ``__call__(s, oid)``.
    """

    name = "base"

    def __copy__(self):
        """A shallow copy, made without the pickle protocol that
        ``copy.copy`` otherwise goes through."""
        clone = object.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        return clone

    def pending_handler_events(self, s: SimState, oid: int) -> list[Event]:
        raise NotImplementedError

    def __call__(self, s: SimState,
                 oid: int) -> tuple[list[tuple[int, int]], list[Event]]:
        """This object's (tid, prio) live-thread offers and offered events."""
        live = []
        threads = s.cs.get(oid)
        if threads:
            queue = s.es.get(oid, ())
            for tid in sorted(threads) if len(threads) > 1 else threads:
                thr = threads[tid]
                if is_live(thr, tid, queue):
                    live.append((tid, thr.base_prio))
        return live, self.pending_handler_events(s, oid)


class RtcRunnables(RunnablesSelector):
    """Run-to-completion: new events wait until the object is idle.

    While any thread lives in the object (ready or blocked in a nested
    call), no buffered call or signal is offered; once the object is idle
    only the oldest one is.
    """

    name = "rtc"

    def pending_handler_events(self, s: SimState, oid: int) -> list[Event]:
        if not s.cs.get(oid):
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


StaticOrder = Callable[[int, int], tuple[int, ...]]


def rr_order(prio: int, last_exec: int) -> tuple[int, ...]:
    """Round-robin's rank of an offer: least recently executed first, so a
    stable set alternates exactly. Of ``n`` offers that stay the same on
    every step, each waits at most ``n - 1`` steps for its next run."""
    return (last_exec,)


def prio_order(prio: int, last_exec: int) -> tuple[int, ...]:
    """Priority-with-aging's rank of an offer: highest effective priority
    first, where the effective priority is the base priority plus the
    steps since the offer last executed, ties to the longest-waiting one.

    At any fixed time ``t`` the effective priority ``prio + (t -
    last_exec)`` is highest exactly where ``last_exec - prio`` is lowest,
    so the rank needs no ``t``. Of ``n`` offers that stay the same on
    every step, with highest priority ``P``, an offer of priority ``p``
    waits at most ``n - 1`` steps for its next run if ``p == P``, and at
    most ``n - 2 + (P - p)`` if ``p < P``."""
    return (last_exec - prio, last_exec)


@value_class
class Least:
    """A scheduler that picks the entry first by a static ``order``, ties
    to the smallest (oid, tid). ``vm.run`` picks by ``order`` itself and
    never calls it."""

    order: StaticOrder

    def __call__(self, t: int,
                 entries: list[RunnableEntry]) -> tuple[int, int]:
        if not entries:
            raise ExecError("scheduler invoked with no runnable entries")
        best = min(entries, key=lambda e: (self.order(e.prio, e.last_exec),
                                           e.oid, e.tid))
        return best.oid, best.tid


schedule_rr = Least(rr_order)
schedule_prio = Least(prio_order)


def dispatch_single(scl: SubclassRel, mm: MethMap, ds: DataStore,
                    oid: int, op: OpSig) -> MethodDef:
    """Dispatch to the first implementing class along ``super_chain``: the
    receiver's class, then its superclasses depth-first in declaration
    order (``extends C, D`` searches C and C's superclasses before D)."""
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


# Each variation point, named as config blocks, ``make_config`` keywords
# and ``smm run`` flags spell it, and its strategies by name.
VARIATION_POINTS: dict[str, dict] = {
    "runnables": {"rtc": RtcRunnables(), "conc": ConcRunnables()},
    "scheduler": {"rr": schedule_rr, "prio": schedule_prio},
    "dispatch": {"single": dispatch_single},
    "medium": {"reliable": deliver_reliable},
}


def strategy(point: str, name: str):
    """The strategy called ``name`` at variation point ``point``."""
    table = VARIATION_POINTS[point]
    if name not in table:
        raise ExecError(f"unknown {point} strategy {name!r}; "
                        f"choose from {sorted(table)}")
    return table[name]


@dataclass(frozen=True, init=False)
class Config:
    """Variation-point selections plus the model's static tables."""

    dispatcher: MethodDispatcher
    runnables_sel: RunnablesSelector
    scheduler: Scheduler
    medium: Medium
    subclass_rel: SubclassRel
    meth_map: MethMap
    class_table: ClassTable

    def __init__(self, dispatcher, runnables_sel, scheduler, medium,
                 subclass_rel, meth_map, class_table):
        # The frozen dataclass's own __init__ would store each field
        # through object.__setattr__; the instance dict takes them as is.
        d = self.__dict__
        d["dispatcher"] = dispatcher
        d["runnables_sel"] = runnables_sel
        d["scheduler"] = scheduler
        d["medium"] = medium
        d["subclass_rel"] = subclass_rel
        d["meth_map"] = meth_map
        d["class_table"] = class_table

    @cached_property
    def hierarchy(self) -> Hierarchy:
        """The class hierarchy of the tables, built once per config."""
        return Hierarchy(self.class_table, self.subclass_rel)

    @cached_property
    def methods(self) -> dict[tuple[str, OpSig], MethodDef]:
        """The dispatcher's answers so far, by (class name, op)."""
        return {}

    def method(self, ds: DataStore, oid: int, op: OpSig) -> MethodDef:
        """The method ``dispatcher`` resolves ``op`` to on object ``oid``,
        asked once per (class, op) of this config. A dispatch that fails
        is not kept, so it raises again on the next ask."""
        obj = ds.get(oid)
        if obj is None:
            return self.dispatcher(self.subclass_rel, self.meth_map, ds, oid,
                                   op)
        key = (obj.class_name, op)
        meth = self.methods.get(key)
        if meth is None:
            meth = self.methods[key] = self.dispatcher(
                self.subclass_rel, self.meth_map, ds, oid, op)
        return meth


def complete_choices(**chosen: str | None) -> dict[str, str]:
    """``chosen`` with each variation point it leaves out or None set to
    its default, the first strategy in its table, in table order. A key
    that is no point raises ``TypeError``, as a misspelled keyword does."""
    unknown = chosen.keys() - VARIATION_POINTS.keys()
    if unknown:
        raise TypeError(f"unexpected variation point {min(unknown)!r}")
    return {point: next(iter(table)) if chosen.get(point) is None
            else chosen[point] for point, table in VARIATION_POINTS.items()}


def make_config(class_table: ClassTable, subclass_rel: SubclassRel,
                meth_map: MethMap, **choices: str | None) -> Config:
    """Build a Config from strategy names (the CLI/DSL-facing spellings)
    by variation point; see ``complete_choices``."""
    return config_of(complete_choices(**choices), class_table, subclass_rel,
                     meth_map)


def config_of(names: dict[str, str], class_table: ClassTable,
              subclass_rel: SubclassRel, meth_map: MethMap) -> Config:
    """The Config of the strategies ``names`` names, one for every
    variation point, as ``complete_choices`` returns them. Of the names
    that are no strategy, the first in the order of the points raises."""
    points = VARIATION_POINTS
    runnables = points["runnables"].get(names["runnables"])
    scheduler = points["scheduler"].get(names["scheduler"])
    dispatcher = points["dispatch"].get(names["dispatch"])
    medium = points["medium"].get(names["medium"])
    if None in (runnables, scheduler, dispatcher, medium):
        for point in points:
            strategy(point, names[point])
    return Config(dispatcher, runnables, scheduler, medium, subclass_rel,
                  meth_map, class_table)
