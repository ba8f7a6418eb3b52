"""The simulation engine: initial-state construction and the step loop.

A run repeats a two-stage schedule: collect every thread each object is
willing to run (one walk over the objects, which also reserves ids for the
handler threads of offered events), enrich the offers with the time each
thread last executed, let the scheduler pick one (object, thread) pair,
and perform exactly one atomic step on it. A step first consumes a
pending event when there is one to consume (materializing a handler thread
for a call or signal, or resuming a caller with its return value), then
interprets the single action the thread's program counter addresses.
Methods are dispatched only where a frame is created, and the frame keeps
its method.

The engine is single-threaded and deterministic: with equal configuration
and setup, two runs produce equal results. All concurrency is model-level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Union

from .actions import Action, interpret, replace_top
from .errors import Diagnostic, ExecError, InternalError, ModelError
from .state import (
    CallerRef, CallPayload, Event, EventKind, Frame, RecordVal,
    SimState, Thread, ThreadStatus, alloc_object, add_link_attr, empty_state,
    take_matching_event, update_thread,
)
from .universe import ClassTable, ClassType, OidVal, OpSig, Problem
from .variation import Config, RunnableEntry, RunnablesSelector

StepHook = Callable[[int, int, int, int, Action], None]


# --- setup -------------------------------------------------------------------

@dataclass(frozen=True)
class Active:
    op: OpSig
    prio: int


@dataclass(frozen=True)
class Passive:
    pass


OKind = Union[Active, Passive]


@dataclass(frozen=True)
class SetupEntry:
    name: str
    class_name: str
    kind: OKind
    links: tuple[str, ...] = ()


Setup = tuple[SetupEntry, ...]
TimesMap = dict[int, int]


# --- results -------------------------------------------------------------------

@dataclass(frozen=True)
class AllDone:
    pass


@dataclass(frozen=True)
class Blocked:
    waiting: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class StepLimit:
    pass


HaltReason = Union[AllDone, Blocked, StepLimit]


@dataclass(frozen=True)
class RunResult:
    final: SimState
    time: int
    halt: HaltReason


# --- scheduling plumbing --------------------------------------------------------

def collect_runnables(
        sel: RunnablesSelector,
        s: SimState) -> tuple[list[tuple[int, int, int]], dict[int, Event]]:
    """All (oid, tid, prio) offers and the event each reserved id stands for.

    Objects come in ascending id order, each with its live threads first.
    Every offered event gets the next id above ``s.next_tid``, in object
    order and then queue order, and is offered at its own priority.
    """
    offers: list[tuple[int, int, int]] = []
    reserved: dict[int, Event] = {}
    tid = s.next_tid
    for oid in sorted(s.ds):
        live, events = sel(s, oid)
        offers.extend((oid, live_tid, prio) for live_tid, prio in live)
        for event in events:
            offers.append((oid, tid, event.msg.payload.prio))
            reserved[tid] = event
            tid += 1
    return offers, reserved


def add_last_exec_info(times: TimesMap,
                       rs: list[tuple[int, int, int]]) -> list[RunnableEntry]:
    """Attach each entry's last execution time, preserving order.

    A thread materialized during a run records its creation step as its
    first execution time, so its entry is never missing afterwards. Ids
    with no recorded time (threads built during setup, reserved handler
    ids) read as -1: created before the first step, hence least recent.
    """
    return [RunnableEntry(oid, tid, prio, times.get(tid, -1))
            for oid, tid, prio in rs]


# --- the atomic step -------------------------------------------------------------

def consume_event(s: SimState, cfg: Config, oid: int, tid: int,
                  event: Event | None = None) -> SimState:
    """Prepare thread ``tid`` of ``oid`` for execution, consuming one event.

    Three cases:
    - ``tid`` is a reserved handler id and ``event`` the pending call or
      signal it stands for: remove the event and materialize the thread
      under that id, running the dispatched method with the message
      arguments bound to its parameters. A call records who to answer; a
      signal has no caller to answer.
    - ``tid`` is waiting and its return event is buffered: remove it, bind
      the value to the frame's result local (creating it), mark ready.
    - otherwise the state is returned unchanged.
    """
    thr = s.thread(oid, tid)
    if thr is not None:
        if thr.status is not ThreadStatus.WAITING:
            return s
        es, answer = take_matching_event(
            s.es, oid,
            lambda e: e.kind is EventKind.RETURN and e.msg.sender_thread == tid)
        if answer is None:
            return s
        payload = answer.msg.payload
        frame = thr.top
        frame = replace(frame, locals=frame.locals.set(payload.result_local,
                                                       payload.value))
        return replace_top(replace(s, es=es), thr, frame)

    es, taken = take_matching_event(
        s.es, oid, lambda e: event is not None and e.seq == event.seq)
    if taken is None:
        raise InternalError(
            f"scheduled thread {tid} of object {oid} neither exists nor "
            f"names a pending event")
    payload = taken.msg.payload
    meth = cfg.dispatcher(cfg.subclass_rel, cfg.meth_map, s.ds, oid, payload.op)
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
    frame = Frame(self_oid=oid, meth=meth, params=params,
                  locals=RecordVal(), pc=0, caller=caller)
    thread = Thread(tid, payload.prio, ThreadStatus.READY, (frame,))
    s2 = replace(s, es=es, next_tid=max(s.next_tid, tid + 1))
    return update_thread(s2, oid, tid, thread)


def step(s: SimState, cfg: Config, oid: int, tid: int,
         event: Event | None = None) -> tuple[SimState, int, Action]:
    """One atomic step: consume an event if due, then interpret one action.

    ``event`` is the pending event a reserved ``tid`` stands for, as
    ``collect_runnables`` reported it. Returns the successor state and the
    pc and action that ran. This is the one place that attaches the
    running (oid, tid, pc) to an ``ExecError``.
    """
    s1 = consume_event(s, cfg, oid, tid, event)
    thr = s1.thread(oid, tid)
    if thr is None:
        raise InternalError(f"thread {tid} of object {oid} missing after "
                            f"event consumption")
    if thr.status is not ThreadStatus.READY:
        raise InternalError(f"thread {tid} of object {oid} was scheduled "
                            f"but is not ready (selector contract violation)")
    frame = thr.top
    body = frame.meth.body
    try:
        if frame.pc >= len(body):
            raise ExecError(f"fell off the end of "
                            f"{frame.meth.implements.name!r} without a return")
        action = body[frame.pc]
        return interpret(action, s1, oid, tid, cfg), frame.pc, action
    except ExecError as err:
        raise ExecError(err.message, oid=oid, tid=tid, pc=frame.pc) from None


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
    non-terminating models and yields ``StepLimit`` when exhausted. The
    optional ``on_step`` hook observes every step as
    ``(t, oid, tid, pc, action)``.
    """
    times = dict(times)
    steps = 0
    while True:
        runnables, reserved = collect_runnables(cfg.runnables_sel, s)
        if not runnables:
            waiting = _waiting_threads(s)
            halt: HaltReason = Blocked(waiting) if waiting else AllDone()
            return RunResult(s, t, halt)
        if max_steps is not None and steps >= max_steps:
            return RunResult(s, t, StepLimit())
        entries = add_last_exec_info(times, runnables)
        oid, tid = cfg.scheduler(t, entries)
        s, pc, action = step(s, cfg, oid, tid, reserved.get(tid))
        if on_step is not None:
            on_step(t, oid, tid, pc, action)
        times[tid] = t
        t += 1
        steps += 1


def check_setup(class_table: ClassTable, setup: Setup) -> list[Problem]:
    """The setup rules, checked here and nowhere else.

    Object names are unique, classes are known, priorities are not
    negative, and every link names a setup object and does not replace a
    declared attribute of a non-class type. Both the parser, which reports
    each problem at its entry, and ``build_initial_state`` call it. Each
    problem names its entry as ``("setup", index)``. Whether an active
    entry's start operation dispatches depends on the chosen dispatcher,
    so ``build_initial_state`` checks that itself.
    """
    problems: list[Problem] = []
    names = {entry.name for entry in setup}
    seen: set[str] = set()
    for i, entry in enumerate(setup):
        found: list[str] = []
        if entry.name in seen:
            found.append(f"duplicate setup object {entry.name!r}")
        seen.add(entry.name)
        cls = class_table.get(entry.class_name)
        if cls is None:
            found.append(f"setup object {entry.name!r} has unknown class "
                         f"{entry.class_name!r}")
        else:
            found.extend(f"link {attr.name!r} of {entry.name!r} would "
                         f"overwrite a non-reference attribute"
                         for attr in cls.attributes
                         if attr.name in entry.links
                         and not isinstance(attr.type, ClassType))
        if isinstance(entry.kind, Active) and entry.kind.prio < 0:
            found.append(f"setup object {entry.name!r} has a negative "
                         f"priority")
        found.extend(f"setup object {entry.name!r} links unknown object "
                     f"{link!r}" for link in entry.links if link not in names)
        problems.extend(Problem(("setup", i), msg) for msg in found)
    return problems


def build_initial_state(cfg: Config, setup: Setup) -> SimState:
    """Objects, links and start threads for a setup, ready to hand to run.

    Objects are allocated in list order, so the first entry gets id 0.
    Link names add a reference attribute named after the linked entry.
    Each active entry starts one ready thread at pc 0 of its operation.
    A setup that breaks a ``check_setup`` rule raises ``ModelError`` with
    one diagnostic per problem.
    """
    problems = check_setup(cfg.class_table, setup)
    if problems:
        raise ModelError([Diagnostic(p.message) for p in problems])

    by_name: dict[str, int] = {}
    s = empty_state()
    for entry in setup:
        s, oid = alloc_object(s, cfg.class_table[entry.class_name])
        by_name[entry.name] = oid
    for entry in setup:
        oid = by_name[entry.name]
        for link in entry.links:
            s = add_link_attr(s, oid, link, OidVal(by_name[link]))
    for entry in setup:
        if not isinstance(entry.kind, Active):
            continue
        oid = by_name[entry.name]
        try:
            meth = cfg.dispatcher(cfg.subclass_rel, cfg.meth_map, s.ds, oid,
                                  entry.kind.op)
        except ExecError as err:
            raise ModelError(f"setup: {entry.name!r} cannot start "
                             f"{entry.kind.op.name!r}: {err}") from None
        frame = Frame(self_oid=oid, meth=meth, params=RecordVal(),
                      locals=RecordVal(), pc=0, caller=None)
        thread = Thread(s.next_tid, entry.kind.prio, ThreadStatus.READY,
                        (frame,))
        s = update_thread(replace(s, next_tid=s.next_tid + 1), oid,
                          thread.tid, thread)
    return s


def run_main(cfg: Config, setup: Setup, *, max_steps: int | None = None,
             on_step: StepHook | None = None) -> RunResult:
    """Construct the initial state from a setup and run it to completion."""
    s = build_initial_state(cfg, setup)
    return run({}, 0, cfg, s, max_steps=max_steps, on_step=on_step)
