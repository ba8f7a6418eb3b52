"""The simulation engine: initial-state construction and the step loop.

A run repeats a two-stage schedule: collect every thread each object is
willing to run, enriched with the time each thread last executed, pick one
(object, thread) pair, and perform exactly one atomic step on it. Offers
are kept between steps: the first step asks every object, and each later
step asks again only the objects the previous step touched: the acting
object, the objects it allocated, and the receiver of the one event it
emitted. A medium writes only its event's receiver queue (the medium
contract in ``variation``), so that is the step's whole footprint:
``step`` reports the receiver, and new objects are the ids from the old
object count on, so finding them costs no scan whatever the medium. For a
``Least`` scheduler the pick comes from a heap ordered by the scheduler's
static order that holds one item per offered thread and one per object
for its least offered event. A step re-applies the live-thread rule only
to the thread that acted and to the waiting threads of the objects whose
queue it changed, so an object's other threads cost it nothing; the
handler thread of an offered event gets its reserved id only once picked.
Any other scheduler is handed all offers laid out in object order, with
ids reserved for the handler threads of every offered event.

A step first consumes a pending event when there is one to consume
(building a handler thread for a call or signal, or resuming a caller
with its return value), then interprets the single action the thread's
program counter addresses, which writes the thread once. A ready thread
consumes nothing. Methods are dispatched only where a thread is created,
and the thread keeps its method; the config asks its dispatcher once per
(class, op).

The engine is single-threaded and deterministic: with equal configuration
and setup, two runs produce equal results. All concurrency is model-level.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, Iterable, Union

from .actions import Action, Call, SendSignal, interpret, store_local
from .errors import Diagnostic, ExecError, InternalError, ModelError
from .state import (
    CallerRef, CallPayload, ControlStore, DataStore, Event, RecordVal,
    SimState, StoredObject, Thread, ThreadStatus, _Owned, copy_stores,
    returns_to, take_matching_event,
)
# perfbench's tracer times thread stores by rebinding this name here; the
# engine stores a thread only through ``actions.advance``, and inside a run
# only a thread the map does not hold yet.
from .state import update_thread  # noqa: F401
from .universe import (
    ClassType, Hierarchy, OidVal, OpSig, Problem, value_class,
)
from .variation import (
    Config, Least, RunnableEntry, RunnablesSelector, StaticOrder, is_live,
)

StepHook = Callable[[int, int, int, int, Action], None]


# --- setup -------------------------------------------------------------------

@value_class
class Active:
    op: OpSig
    prio: int


@value_class
class Passive:
    pass


OKind = Union[Active, Passive]


@value_class
class SetupEntry:
    name: str
    class_name: str
    kind: OKind
    links: tuple[str, ...] = ()


Setup = tuple[SetupEntry, ...]
TimesMap = dict[int, int]


# --- results -------------------------------------------------------------------

@value_class
class AllDone:
    pass


@value_class
class Blocked:
    waiting: tuple[tuple[int, int], ...]


@value_class
class StepLimit:
    pass


HaltReason = Union[AllDone, Blocked, StepLimit]


@value_class
class RunResult:
    final: SimState
    time: int
    halt: HaltReason


# --- scheduling plumbing --------------------------------------------------------

# Each object's cached offers: the entries of its offered live threads, in
# the order its selector reported them, and its offered events.
Offers = dict[int, tuple[list[RunnableEntry], list[Event]]]


def collect_runnables(
        sel: RunnablesSelector, s: SimState, times: TimesMap, offers: Offers,
        dirty: Iterable[int]) -> tuple[list[RunnableEntry], dict[int, Event]]:
    """Refresh the ``dirty`` objects' offers, then flatten every object's.

    Only the ``dirty`` objects' selectors are asked; ``offers`` keeps the
    others' entry lists and events from earlier steps and is updated in
    place, a dirty object's list replaced by a new one. An entry of an
    object that is not dirty keeps its last execution time, which stays
    right because a step records a time only for the thread it ran, and
    that thread's object is always dirty. Objects come in ascending id
    order, each with its live threads first. Every offered event gets the
    next id above ``s.next_tid``, in object order and then queue order, and
    is offered at its own priority. Returns the entries for the scheduler
    and the event each reserved id stands for.
    """
    known = len(offers)
    for oid in dirty:
        live, events = sel(s, oid)
        offers[oid] = add_last_exec_info(times, oid, live), events
    if len(offers) != known:  # new objects: keep ascending id order
        ordered = sorted(offers.items())
        offers.clear()
        offers.update(ordered)
    entries: list[RunnableEntry] = []
    reserved: dict[int, Event] = {}
    tid = s.next_tid
    for oid, (live, events) in offers.items():
        entries += live
        for event in events:
            entries.append(RunnableEntry(oid, tid, event.msg.payload.prio,
                                         times.get(tid, -1)))
            reserved[tid] = event
            tid += 1
    return entries, reserved


def add_last_exec_info(times: TimesMap, oid: int,
                       live: list[tuple[int, int]]) -> list[RunnableEntry]:
    """A new entry for each of one object's (tid, prio) offers, with its
    last execution time, in order: the object's entry list in ``Offers``.

    A thread materialized during a run records its creation step as its
    first execution time, so its entry is never missing afterwards. Ids
    with no recorded time (threads built during setup, reserved handler
    ids) read as -1: created before the first step, hence least recent.
    """
    return [RunnableEntry(oid, tid, prio, times.get(tid, -1))
            for tid, prio in live]


class _Rescan:
    """Selection by the config's scheduler, asked with every entry.

    Each step lays out all offers with ``collect_runnables``, whose
    entries are every offered thread and event, not just each object's
    least. The run loop uses it for a scheduler that is not a ``Least``.
    """

    def __init__(self, cfg: Config, times: TimesMap):
        self.cfg, self.times, self.offers = cfg, times, {}

    def refresh(self, s: SimState, dirty: Iterable[int]) -> bool:
        """Take in the ``dirty`` objects' offers; whether any is left."""
        self.entries, self.reserved = collect_runnables(
            self.cfg.runnables_sel, s, self.times, self.offers, dirty)
        return bool(self.entries)

    def choose(self, s: SimState, t: int) -> tuple[int, int, Event | None]:
        """The scheduler's pick as (oid, tid, event its reserved id stands
        for, or None)."""
        oid, tid = self.cfg.scheduler(t, self.entries)
        return oid, tid, self.reserved.get(tid)


_WAITING = ThreadStatus.WAITING


class _OfferHeap:
    """Selection by a static order, from a heap of every offered thread and
    each object's least offered event.

    An offered live thread is the item ``(key, oid, 0, tid)``, and the
    least of an object's offered events, at position ``q`` of them, is
    ``(key, oid, 1, q)``: items order exactly as the entries would by
    (key, oid, tid), because every live tid is below ``s.next_tid`` and
    every reserved one at or above it, in queue order, and an object's
    other events rank after its least. An item holds no entry or event,
    so no two are ever compared.

    An item counts only while it is current, ``threads[tid]`` for a thread
    and ``least[oid]`` for an event; any other is stale. The picked item
    stays at the top until the refresh after its step, where the acting
    thread's new item, if it is offered, takes its place; other new items
    are pushed. A stale item is dropped when it reaches the top or when
    the heap, grown well past the number of current items, is rebuilt.

    The first refresh of a run applies ``is_live`` to every thread and
    asks every object for its ``pending_handler_events``. A later one
    takes in the footprint of the step it follows, and only that: a step
    changes the status of its acting thread alone, and the key of no
    other thread, so ``is_live`` is applied again to the acting thread
    and to the waiting threads, kept in ``waiting[oid]``, of each object
    whose queue the step may have changed: the acting object when its
    queue is not the one it had at the pick, and the receiver. Each
    object ``dirty`` names is asked for its events again.

    The reserved id of the event picked is computed from per-object counts
    of offered events, kept in a Fenwick tree (Fenwick 1994), which no
    other offer needs; only an object that offers events, or offered them
    at its last refresh, touches the counts.
    """

    def __init__(self, sel: RunnablesSelector, order: StaticOrder,
                 times: TimesMap):
        self.pending, self.order, self.last = (
            sel.pending_handler_events, order, times.get)
        self.threads: dict[int, tuple] = {}  # current item by offered tid
        self.least: dict[int, tuple] = {}  # current event item by object
        self.waiting: dict[int, set[int]] = {}  # waiting tids by object
        self.events: dict[int, list[Event]] = {}
        self.heap: list[tuple] = []
        self.limit = 64  # a longer heap is rebuilt from the current items
        self.counts = [0, 0]  # Fenwick tree; index oid + 1, power-of-2 size
        # The last pick: its item, its tid and its object's queue then.
        self.picked: tuple | None = None

    def _count(self, oid: int, delta: int) -> None:
        """Add ``delta`` to the offered events of ``oid``."""
        tree = self.counts
        while oid >= len(tree) - 1:
            # Doubling keeps every node; the new root holds the old total.
            n = len(tree) - 1
            tree += [0] * n
            tree[2 * n] = tree[n]
        i = oid + 1
        while i < len(tree):
            tree[i] += delta
            i += i & -i

    def _below(self, oid: int) -> int:
        """Offered events of all objects with a lower id."""
        total, tree, i = 0, self.counts, oid
        while i:
            total += tree[i]
            i &= i - 1
        return total

    def _live(self, oid: int, threads: dict[int, Thread], tids: Iterable[int],
              queue: tuple[Event, ...]) -> None:
        """Apply ``is_live`` to the threads ``tids`` of ``oid``, which did
        not act: a live one with no current item gets one, and any other
        loses its item."""
        current, order, last, heap = (
            self.threads, self.order, self.last, self.heap)
        for tid in tids:
            thr = threads[tid]
            if is_live(thr, tid, queue):
                if tid not in current:
                    current[tid] = item = (
                        order(thr.base_prio, last(tid, -1)), oid, 0, tid)
                    heappush(heap, item)
            else:
                current.pop(tid, None)

    def refresh(self, s: SimState, dirty: Iterable[int]) -> bool:
        """Take in the offers of a step's footprint, ``dirty`` naming the
        objects it touched, the acting object first; whether any offer is
        left."""
        cs, es, waiting, current, least, order, heap, pending, offered = (
            s.cs, s.es, self.waiting, self.threads, self.least, self.order,
            self.heap, self.pending, self.events)
        if self.picked is None:  # the first refresh: every thread
            for oid in dirty:
                threads = cs.get(oid)
                if threads:
                    tids = {tid for tid, thr in threads.items()
                            if thr.status is _WAITING}
                    if tids:
                        waiting[oid] = tids
                    self._live(oid, threads, threads, es.get(oid, ()))
        else:
            item, tid, before = self.picked
            oid = item[1]
            if item[2]:
                del least[oid]
            else:
                del current[tid]
            # The acting thread: its status, and its time, may be new.
            queue = es[oid]
            thr = cs[oid].get(tid)  # None once it ended
            if thr is not None and thr.status is _WAITING:
                waiting.setdefault(oid, set()).add(tid)
            elif oid in waiting:
                waiting[oid].discard(tid)
            if thr is not None and is_live(thr, tid, queue):
                current[tid] = item = (
                    order(thr.base_prio, self.last(tid, -1)), oid, 0, tid)
                # In place of the picked item, at the top since the pick.
                heapreplace(heap, item)
            # The waiting threads of each object whose queue changed.
            for other in dirty:
                tids = waiting.get(other)
                if tids and (other != oid or queue is not before):
                    self._live(other, cs[other], tids, es[other])
        for oid in dirty:
            events = pending(s, oid)
            if events:
                # The least event; a reserved id has no recorded time (see
                # ``run``).
                key = None
                for q, event in enumerate(events):
                    k = order(event.msg.payload.prio, -1)
                    if key is None or k < key:
                        key, pos = k, q
                n = len(offered.get(oid, ()))
                if len(events) != n:
                    self._count(oid, len(events) - n)
                offered[oid] = events
                item = (key, oid, 1, pos)
                if least.get(oid) != item:
                    least[oid] = item
                    heappush(heap, item)
            elif oid in offered:  # it offered events before
                self._count(oid, -len(offered.pop(oid)))
                least.pop(oid, None)
        if len(heap) > self.limit:
            heap = self.heap = [*current.values(), *least.values()]
            heapify(heap)
            self.limit = 4 * len(heap) + 64
        while heap:
            top = heap[0]
            if (least.get(top[1]) if top[2] else current.get(top[3])) is top:
                return True
            heappop(heap)
        return False

    def choose(self, s: SimState, t: int) -> tuple[int, int, Event | None]:
        """The least offer as (oid, tid, event its reserved id stands for,
        or None). Its item stays at the top: the refresh after the step
        withdraws it and offers the acting thread afresh."""
        item = self.heap[0]
        _, oid, reserved, pos = item
        if not reserved:
            self.picked = item, pos, s.es[oid]
            return oid, pos, None
        tid = s.next_tid + self._below(oid) + pos
        self.picked = item, tid, s.es[oid]
        return oid, tid, self.events[oid][pos]


# --- the atomic step -------------------------------------------------------------

def consume_event(s: SimState, cfg: Config, oid: int, tid: int,
                  event: Event | None = None) -> tuple[SimState, Thread]:
    """Consume the event that makes thread ``tid`` of ``oid`` ready.

    Returns the state without that event, and the ready thread, which the
    state does not store: the action that runs next writes it. Two cases:
    - ``tid`` is waiting and its return event is buffered: remove it and
      bind the value to the thread's result local. A result local that
      exists keeps its kind; a missing one is created.
    - ``tid`` is a reserved handler id and ``event`` the pending call or
      signal it stands for: remove that very event object from the queue
      (not one merely equal to it) and build the thread under that id,
      whose ``next_tid`` it passes, running the dispatched method with
      the message arguments bound to its parameters. A call records who
      to answer; a signal has no caller to answer.
    Anything else, a ready thread among them, raises ``InternalError``.
    """
    thr = s.thread(oid, tid)
    if thr is not None:
        es, answer = take_matching_event(s.es, oid, returns_to(tid))
        if answer is None or thr.status is not ThreadStatus.WAITING:
            raise InternalError(
                f"thread {tid} of object {oid} was scheduled but is not "
                f"ready (selector contract violation)")
        payload = answer.msg.payload
        bound = store_local(thr, payload.result_local, payload.value,
                            create=True)
        return SimState(s.ds, s.cs, es, s.next_tid, s.next_seq), Thread(
            thr.base_prio, ThreadStatus.READY, thr.meth, thr.params, bound,
            thr.pc, thr.caller)

    taken = None
    if event is not None:
        es, taken = take_matching_event(s.es, oid, lambda e: e is event)
    if taken is None:
        raise InternalError(
            f"scheduled thread {tid} of object {oid} neither exists nor "
            f"names a pending event")
    payload = taken.msg.payload
    meth = cfg.method(s.ds, oid, payload.op)
    if len(meth.params) != len(payload.args.fields):
        raise ExecError(
            f"{payload.op.name!r} was sent {len(payload.args.fields)} "
            f"argument(s) but its method takes {len(meth.params)}", oid=oid)
    params = RecordVal(tuple(
        (pname, payload.args.fields[i][1])
        for i, (pname, _ptype) in enumerate(meth.params)))
    if isinstance(payload, CallPayload):
        caller = CallerRef(taken.msg.sender, taken.msg.sender_thread,
                           payload.result_local)
    else:
        caller = None
    return (SimState(s.ds, s.cs, es, max(s.next_tid, tid + 1), s.next_seq),
            Thread(payload.prio, ThreadStatus.READY, meth, params,
                   caller=caller))


def step(s: SimState, cfg: Config, oid: int, tid: int,
         event: Event | None = None
         ) -> tuple[SimState, int, Action, int | None]:
    """One atomic step: consume an event if due, then interpret one action.

    ``event`` is the pending event a reserved ``tid`` stands for, as
    ``collect_runnables`` or the offer heap reported it. A reserved id
    names no thread yet; otherwise the thread is fetched once, and
    ``consume_event`` is called only when it is not ready. The action gets
    the ready thread in hand and writes it once. Returns the successor
    state, the pc and action that ran, and the receiver of the one event
    the action emitted: the target of a call or signal, the caller of a
    return that has one, otherwise None. The target is read from the
    thread after consumption, which may have rebound its local. On owned
    stores, inside ``run``, the successor may be ``s`` itself, written in
    place: a step builds a new state only where it moves a counter or
    consumes an event. The running thread is written in place there too,
    so a step builds a thread only where it consumes an event. On plain
    stores neither ``s`` nor any of its threads is ever written.
    This is the one place that attaches the running (oid, tid, pc) to an
    ``ExecError``; an error raised while the event is consumed names no
    pc, because no action ran.
    """
    pc = None
    try:
        thr = None if event is not None else s.thread(oid, tid)
        if thr is None or thr.status is not ThreadStatus.READY:
            s, thr = consume_event(s, cfg, oid, tid, event)
        pc, body = thr.pc, thr.meth.body
        if pc >= len(body):
            raise ExecError(f"fell off the end of "
                            f"{thr.meth.implements.name!r} without a return")
        action = body[pc]
        s2 = interpret(action, s, oid, tid, thr, cfg)
    except ExecError as err:
        raise ExecError(err.message, oid=oid, tid=tid, pc=pc) from None
    if s2.next_seq == s.next_seq:  # no event emitted
        return s2, pc, action, None
    if isinstance(action, (Call, SendSignal)):
        return s2, pc, action, thr.locals.get(action.target).oid
    return s2, pc, action, thr.caller.oid  # a return answering its caller


# --- the run loop -------------------------------------------------------------------

def _waiting_threads(s: SimState) -> tuple[tuple[int, int], ...]:
    out = []
    for oid in sorted(s.cs):
        for tid in sorted(s.cs[oid]):
            if s.cs[oid][tid].status is ThreadStatus.WAITING:
                out.append((oid, tid))
    return tuple(out)


def run(times: TimesMap, t: int, cfg: Config, s: SimState, *,
        max_steps: int | None = None, on_step: StepHook | None = None) -> RunResult:
    """The main loop: schedule and execute steps until nothing is runnable.

    Returns once no object offers any thread: with ``AllDone`` when nothing
    is waiting, or ``Blocked`` naming the threads stuck in calls whose
    returns can never arrive. ``max_steps`` bounds the number of steps for
    non-terminating models, must not be negative and yields ``StepLimit``
    when exhausted. The optional ``on_step`` hook observes every step as
    ``(t, oid, tid, pc, action)``. The run writes copies of the stores of
    ``s``, and of its threads, in place (see ``smm.variation`` for what
    that asks of a strategy); ``s``, the final state, of plain dicts, and
    their threads stay unwritten.

    ``times`` maps thread ids to the step each last ran at. A thread's
    time is dropped once it ends, since ids are never reused. It must name
    only ids below ``s.next_tid``, which is all a run records; one that
    names a later id, which an offered event would take, raises
    ``ValueError``. A ``Least`` scheduler is not called: its static order
    picks from a heap of every offered thread and each object's least
    offered event (see ``_OfferHeap``), so a pick costs time logarithmic
    in the offers, not linear. The heap applies ``variation.is_live``
    itself and asks the selector only for ``pending_handler_events``, so
    with a ``Least`` scheduler the selector must be a ``RunnablesSelector``
    that does not override ``__call__``; any other raises ``TypeError``.
    Any other scheduler gets every entry on every step, from the selector
    called on each object asked.

    The objects asked again after a step are its footprint: the acting
    object, the objects it allocated, and the receiver ``step`` reports.
    That holds for any medium that keeps the medium contract (see
    ``smm.variation``): it writes only its event's receiver queue. Of
    their threads, the heap re-applies the live rule only to the acting
    thread and to the waiting threads of the acting object, when it
    consumed an event, and of the receiver.
    """
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps {max_steps} is negative")
    if times and max(times) >= s.next_tid:
        raise ValueError(f"times names thread id {max(times)}, but ids "
                         f"from {s.next_tid} on are not handed out yet")
    times = dict(times)
    sel = cfg.runnables_sel
    if not isinstance(cfg.scheduler, Least):
        offered: _Rescan | _OfferHeap = _Rescan(cfg, times)
    elif isinstance(sel, RunnablesSelector) and \
            type(sel).__call__ is RunnablesSelector.__call__:
        offered = _OfferHeap(sel, cfg.scheduler.order, times)
    else:
        raise TypeError(
            f"a Least scheduler needs a RunnablesSelector that does not "
            f"override __call__, as run applies the live-thread rule "
            f"itself; got {sel!r}")
    s = copy_stores(s)
    dirty: Iterable[int] = s.ds  # the first step asks every object
    steps = 0
    while True:
        if not offered.refresh(s, dirty):
            waiting = _waiting_threads(s)
            halt: HaltReason = Blocked(waiting) if waiting else AllDone()
            return RunResult(copy_stores(s, dict), t, halt)
        if max_steps is not None and steps >= max_steps:
            return RunResult(copy_stores(s, dict), t, StepLimit())
        oid, tid, event = offered.choose(s, t)
        objects = len(s.ds)
        s, pc, action, receiver = step(s, cfg, oid, tid, event)
        if type(s.es) is not _Owned:  # a medium returned a plain dict
            s = SimState(s.ds, s.cs, _Owned(s.es), s.next_tid, s.next_seq)
        if on_step is not None:
            on_step(t, oid, tid, pc, action)
        if tid in s.cs[oid]:
            times[tid] = t
        else:
            times.pop(tid, None)
        t += 1
        steps += 1
        # The acting object first: its stale least is the heap's top.
        dirty = (oid,) if receiver is None or receiver == oid \
            else (oid, receiver)
        if len(s.ds) != objects:
            dirty += tuple(range(objects, len(s.ds)))


def check_setup(hierarchy: Hierarchy, setup: Setup) -> list[Problem]:
    """The setup rules, checked here and nowhere else.

    Object names are unique, classes are known, priorities are not
    negative, start operations take no parameters (the parser resolves a
    start operation only among those that take none), and every link
    names a setup object. A link into an attribute, declared or inherited,
    must not replace one of a non-class type, and may fill one of a class
    type only with an object of that class or a subclass. Both the parser,
    which reports each problem at its entry, and ``build_initial_state``
    call it. Each problem names its entry as ``("setup", index)``. Whether
    an active entry's start operation dispatches depends on the chosen
    dispatcher, so ``build_initial_state`` checks that itself.
    """
    problems: list[Problem] = []
    class_of = {entry.name: entry.class_name for entry in setup}
    seen: set[str] = set()
    for i, entry in enumerate(setup):
        found: list[str] = []
        if entry.name in seen:
            found.append(f"duplicate setup object {entry.name!r}")
        seen.add(entry.name)
        cls = hierarchy.class_table.get(entry.class_name)
        if cls is None:
            found.append(f"setup object {entry.name!r} has unknown class "
                         f"{entry.class_name!r}")
        elif entry.links:
            # A class on a cycle, which validate_model reports, has no
            # chain; its own attributes are checked.
            attributes = (cls.attributes if cls.name in hierarchy.cycles
                          else hierarchy.object_class(cls.name).attributes)
            for attr in attributes:
                if attr.name not in entry.links:
                    continue
                linked = class_of.get(attr.name)
                chain = hierarchy.chain(linked)
                if not isinstance(attr.type, ClassType):
                    found.append(f"link {attr.name!r} of {entry.name!r} "
                                 f"would overwrite a non-reference attribute")
                elif chain is not None and attr.type.name not in chain:
                    found.append(f"link {attr.name!r} of {entry.name!r} "
                                 f"would store a {linked!r} in an attribute "
                                 f"of type {attr.type}")
        if isinstance(entry.kind, Active) and entry.kind.prio < 0:
            found.append(f"setup object {entry.name!r} has a negative "
                         f"priority")
        if isinstance(entry.kind, Active) and entry.kind.op.param_types:
            found.append(f"start operation {entry.kind.op.name!r} of setup "
                         f"object {entry.name!r} must take no parameters")
        found.extend(f"setup object {entry.name!r} links unknown object "
                     f"{link!r}" for link in entry.links
                     if link not in class_of)
        problems.extend(Problem(("setup", i), msg) for msg in found)
    return problems


def build_initial_state(cfg: Config, setup: Setup) -> SimState:
    """Objects, links and start threads for a setup, ready to hand to run.

    Objects are numbered in list order, so the first entry gets id 0. Link
    names add a reference attribute named after the linked entry. Each
    active entry starts one ready thread at pc 0 of its operation, thread
    ids in list order too. The stores are filled as plain dicts and wrapped
    in one state. A setup that breaks a ``check_setup`` rule raises
    ``ModelError`` with one diagnostic per problem.
    """
    problems = check_setup(cfg.hierarchy, setup)
    if problems:
        raise ModelError([Diagnostic(p.message) for p in problems])

    by_name = {entry.name: oid for oid, entry in enumerate(setup)}
    ds: DataStore = {}
    cs: ControlStore = {}
    for oid, entry in enumerate(setup):
        cls = cfg.hierarchy.object_class(entry.class_name)
        attrs = RecordVal(tuple((a.name, a.init) for a in cls.attributes))
        for link in entry.links:
            attrs = attrs.set(link, OidVal(by_name[link]))
        ds[oid] = StoredObject(cls.name, attrs)
        cs[oid] = {}
    tid = 0
    for oid, entry in enumerate(setup):
        if not isinstance(entry.kind, Active):
            continue
        try:
            meth = cfg.method(ds, oid, entry.kind.op)
        except ExecError as err:
            raise ModelError(f"setup: {entry.name!r} cannot start "
                             f"{entry.kind.op.name!r}: {err}") from None
        cs[oid][tid] = Thread(entry.kind.prio, ThreadStatus.READY, meth)
        tid += 1
    return SimState(ds, cs, dict.fromkeys(ds, ()), tid)


def run_main(cfg: Config, setup: Setup, *, max_steps: int | None = None,
             on_step: StepHook | None = None) -> RunResult:
    """Construct the initial state from a setup and run it to completion."""
    s = build_initial_state(cfg, setup)
    return run({}, 0, cfg, s, max_steps=max_steps, on_step=on_step)
