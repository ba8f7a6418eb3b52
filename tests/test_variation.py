from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from smm import (
    ClassDef, ExecError, Frame, IntVal, Message, MethodDef,
    OpSig, RecordVal, ReturnPayload, RunnableEntry, Thread, ThreadStatus,
    VOID, VOID_VAL, alloc_object, collect_runnables, deliver_reliable,
    dispatch_single, empty_state, schedule_prio, schedule_rr, super_chain,
)
from smm.actions import ReturnConst
from smm.state import CallPayload, make_event, update_thread
from smm.variation import ConcRunnables, RtcRunnables

from conftest import (
    GET_OP, PUT_OP, buffer_class, buffer_tables, get_method, put_method,
)

RTC = RtcRunnables()
CONC = ConcRunnables()


def _call_event(seq: int, receiver: int, prio: int = 1):
    msg = Message(9, 0, receiver,
                  CallPayload(GET_OP, RecordVal(), "r", prio))
    return make_event(msg, seq)


def _return_event(seq: int, receiver: int, tid: int):
    msg = Message(9, tid, receiver, ReturnPayload(IntVal(-1), "v"))
    return make_event(msg, seq)


def _buffer_state():
    s, oid = alloc_object(empty_state(), buffer_class())
    return s, oid


def _with_thread(s, oid, tid, status=ThreadStatus.READY, prio=1):
    frame = Frame(self_oid=oid, meth=get_method(), params=RecordVal(),
                  locals=RecordVal(), pc=0, caller=None)
    s = update_thread(s, oid, tid, Thread(tid, prio, status, (frame,)))
    return replace(s, next_tid=max(s.next_tid, tid + 1))


class TestRtcSelection:
    def test_live_thread_hides_buffered_events(self):
        s, oid = _buffer_state()
        s = _with_thread(s, oid, 0)
        s = replace(s, es={oid: (_call_event(0, oid),)}, next_seq=1)
        assert RTC(s, oid) == ([(0, 1)], [])

    def test_idle_object_offers_oldest_event(self):
        s, oid = _buffer_state()
        oldest = _call_event(0, oid, prio=1)
        s = replace(s, es={oid: (oldest, _call_event(1, oid, prio=9))},
                    next_seq=2)
        # The reserved entry carries the event's own priority.
        assert collect_runnables(RTC, s) == ([(oid, s.next_tid, 1)],
                                             {s.next_tid: oldest})

    def test_idle_object_skips_returns_before_the_first_call(self):
        s, oid = _buffer_state()
        call = _call_event(1, oid)
        s = replace(s, es={oid: (_return_event(0, oid, tid=5), call,
                                 _call_event(2, oid))}, next_seq=3)
        assert RTC(s, oid) == ([], [call])

    def test_waiting_thread_with_return_is_offered(self):
        s, oid = _buffer_state()
        s = _with_thread(s, oid, 0, status=ThreadStatus.WAITING, prio=4)
        s = replace(s, es={oid: (_return_event(0, oid, tid=0),)}, next_seq=1)
        assert RTC(s, oid) == ([(0, 4)], [])

    def test_waiting_thread_without_return_is_not_offered(self):
        s, oid = _buffer_state()
        s = _with_thread(s, oid, 0, status=ThreadStatus.WAITING)
        assert RTC(s, oid) == ([], [])

    def test_waiting_thread_still_gates_new_events(self):
        s, oid = _buffer_state()
        s = _with_thread(s, oid, 0, status=ThreadStatus.WAITING)
        s = replace(s, es={oid: (_call_event(0, oid),)}, next_seq=1)
        assert RTC(s, oid) == ([], [])


class TestConcSelection:
    def test_ready_thread_and_event_both_offered(self):
        s, oid = _buffer_state()
        s = _with_thread(s, oid, 0, prio=2)
        call = _call_event(0, oid, prio=1)
        s = replace(s, es={oid: (call,)}, next_seq=1)
        assert collect_runnables(CONC, s) == (
            [(oid, 0, 2), (oid, s.next_tid, 1)], {s.next_tid: call})

    def test_empty_object_offers_nothing(self):
        s, oid = _buffer_state()
        assert CONC(s, oid) == ([], [])

    def test_one_pseudo_per_buffered_event(self):
        s, oid = _buffer_state()
        e0, e1 = _call_event(0, oid, prio=1), _call_event(1, oid, prio=9)
        s = replace(s, es={oid: (e0, e1)}, next_seq=2)
        base = s.next_tid
        assert collect_runnables(CONC, s) == (
            [(oid, base, 1), (oid, base + 1, 9)], {base: e0, base + 1: e1})

    def test_reserved_ids_distinct_across_objects(self):
        s, a = alloc_object(empty_state(), buffer_class())
        s, b = alloc_object(s, buffer_class())
        ea, eb = _call_event(0, a), _call_event(1, b)
        s = replace(s, es={a: (ea,), b: (eb,)}, next_seq=2)
        base = s.next_tid
        assert collect_runnables(CONC, s) == (
            [(a, base, 1), (b, base + 1, 1)], {base: ea, base + 1: eb})

    def test_return_events_never_spawn_handlers(self):
        s, oid = _buffer_state()
        s = replace(s, es={oid: (_return_event(0, oid, tid=5),)}, next_seq=1)
        assert CONC(s, oid) == ([], [])


def E(oid, tid, prio, last):
    return RunnableEntry(oid, tid, prio, last)


class TestRoundRobin:
    def test_least_recently_executed_wins(self):
        assert schedule_rr(9, [E(0, 0, 1, 5), E(1, 1, 1, 3)]) == (1, 1)

    def test_tie_breaks_lexicographically(self):
        assert schedule_rr(9, [E(0, 0, 1, 2), E(1, 1, 1, 2)]) == (0, 0)

    def test_singleton(self):
        assert schedule_rr(0, [E(3, 7, 2, 0)]) == (3, 7)

    def test_empty_is_a_contract_violation(self):
        with pytest.raises(ExecError):
            schedule_rr(0, [])

    def test_exact_alternation_on_stable_set(self):
        times = {}
        picks = []
        for t in range(30):
            entries = [E(0, tid, 1, times.get(tid, -1)) for tid in range(3)]
            oid, tid = schedule_rr(t, entries)
            times[tid] = t
            picks.append(tid)
        assert picks == [0, 1, 2] * 10

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(0, 10), st.integers(-1, 50)),
                    min_size=1, max_size=10))
    def test_membership(self, raw):
        entries = [E(*e) for e in raw]
        pick = schedule_rr(60, entries)
        assert pick in [(e.oid, e.tid) for e in entries]


class TestPriorityScheduling:
    def test_effective_priority_includes_waiting_time(self):
        # At t=6: 10 + (6-4) = 12 beats 1 + (6-0) = 7.
        assert schedule_prio(6, [E(0, 0, 10, 4), E(1, 1, 1, 0)]) == (0, 0)

    def test_aging_eventually_wins(self):
        # The same pair far in the future: the starved entry has aged past
        # the high-priority one.
        assert schedule_prio(30, [E(0, 0, 10, 28), E(1, 1, 1, 0)]) == (1, 1)

    def test_tie_breaks_by_last_exec_then_id(self):
        # Equal effective priority: 5+(10-5)=10 vs 8+(10-8)=10; the older
        # last-exec wins.
        assert schedule_prio(10, [E(0, 0, 5, 5), E(1, 1, 8, 8)]) == (0, 0)
        # Fully tied entries fall back to the smallest (oid, tid).
        assert schedule_prio(10, [E(1, 1, 5, 5), E(0, 0, 5, 5)]) == (0, 0)

    def test_empty_is_a_contract_violation(self):
        with pytest.raises(ExecError):
            schedule_prio(0, [])

    def test_non_starvation_with_aging(self):
        # Three always-runnable entries, priorities {1, 1, 10}: every entry
        # is selected within any 30-step window.
        times = {}
        picks = []
        prios = {0: 1, 1: 1, 2: 10}
        for t in range(90):
            entries = [E(0, tid, prios[tid], times.get(tid, -1))
                       for tid in range(3)]
            _, tid = schedule_prio(t, entries)
            times[tid] = t
            picks.append(tid)
        for start in range(len(picks) - 30):
            assert set(picks[start:start + 30]) == {0, 1, 2}

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(0, 10), st.integers(-1, 50)),
                    min_size=1, max_size=10))
    def test_membership(self, raw):
        entries = [E(*e) for e in raw]
        pick = schedule_prio(60, entries)
        assert pick in [(e.oid, e.tid) for e in entries]


class TestStrategyPurity:
    def test_equal_inputs_equal_outputs(self):
        entries = [E(0, 0, 3, 1), E(1, 1, 5, 0)]
        assert schedule_rr(7, list(entries)) == schedule_rr(7, list(entries))
        assert schedule_prio(7, list(entries)) == schedule_prio(7, list(entries))
        s, oid = _buffer_state()
        s = replace(s, es={oid: (_call_event(0, oid),)}, next_seq=1)
        assert RTC(s, oid) == RTC(s, oid)
        assert CONC(s, oid) == CONC(s, oid)


class TestDispatch:
    def test_buffer_put_resolves_to_its_method(self):
        classes, scl, mm = buffer_tables()
        s, oid = _buffer_state()
        meth = dispatch_single(scl, mm, s.ds, oid, PUT_OP)
        assert meth == put_method()

    def test_superclass_fallback(self):
        sig = OpSig("speak", (), VOID)
        meth = MethodDef(sig, (), (ReturnConst(VOID_VAL),))
        classes = {"A": ClassDef("A", ()), "B": ClassDef("B", ())}
        scl = {"B": ("A",)}
        mm = {"A": {sig: meth}}
        s, oid = alloc_object(empty_state(), classes["B"])
        assert dispatch_single(scl, mm, s.ds, oid, sig) == meth

    def test_override_shadows_superclass(self):
        sig = OpSig("speak", (), VOID)
        base = MethodDef(sig, (), (ReturnConst(VOID_VAL),))
        derived = MethodDef(sig, (), (ReturnConst(VOID_VAL), ReturnConst(VOID_VAL)))
        scl = {"B": ("A",)}
        mm = {"A": {sig: base}, "B": {sig: derived}}
        s, oid = alloc_object(empty_state(), ClassDef("B", ()))
        assert dispatch_single(scl, mm, s.ds, oid, sig) == derived

    def test_method_not_found(self):
        classes, scl, mm = buffer_tables()
        s, oid = _buffer_state()
        with pytest.raises(ExecError):
            dispatch_single(scl, mm, s.ds, oid, OpSig("ghost", (), VOID))

    def test_random_hierarchies_match_brute_force(self):
        rng = random.Random(20260809)
        for _ in range(200):
            _dispatch_oracle_case(rng)


def _dispatch_oracle_case(rng: random.Random):
    """One randomized dispatch check against a naive chain walk."""
    n_classes = rng.randint(1, 6)
    names = [f"K{i}" for i in range(n_classes)]
    classes = {n: ClassDef(n, ()) for n in names}
    scl = {}
    for i, name in enumerate(names[1:], start=1):
        if rng.random() < 0.7:
            scl[name] = (names[rng.randrange(i)],)
    sigs = [OpSig(f"op{i}", (), VOID) for i in range(rng.randint(1, 8))]
    mm = {}
    for name in names:
        table = {}
        for sig in sigs:
            if rng.random() < 0.4:
                table[sig] = MethodDef(sig, (), (ReturnConst(VOID_VAL),))
        if table:
            mm[name] = table
    s = empty_state()
    oids = {}
    for name in names:
        s, oid = alloc_object(s, classes[name])
        oids[name] = oid

    for name in names:
        for sig in sigs:
            expected = None
            for cls in super_chain(name, scl):
                if sig in mm.get(cls, {}):
                    expected = mm[cls][sig]
                    break
            if expected is None:
                with pytest.raises(ExecError):
                    dispatch_single(scl, mm, s.ds, oids[name], sig)
            else:
                assert dispatch_single(scl, mm, s.ds, oids[name], sig) == expected


class TestReliableMedium:
    def test_grows_receiver_queue_by_one(self):
        s, oid = _buffer_state()
        e = _call_event(0, oid)
        es = deliver_reliable(s.es, e)
        assert es[oid] == (e,)

    def test_preserves_send_order(self):
        s, oid = _buffer_state()
        e1, e2 = _call_event(0, oid), _call_event(1, oid)
        es = deliver_reliable(deliver_reliable(s.es, e1), e2)
        assert es[oid] == (e1, e2)

    def test_unknown_receiver(self):
        s, _ = _buffer_state()
        with pytest.raises(ExecError):
            deliver_reliable(s.es, _call_event(0, receiver=9))
