from __future__ import annotations

import dataclasses
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from smm import (
    AttrDef, BOOL, INT, CallPayload, ClassDef, EventKind, ExecError,
    IntVal, InternalError, OidVal, RecordVal, ReturnPayload, BoolVal, Message,
    StoredObject, Thread, ThreadStatus, alloc_object, empty_state,
    enqueue_event, make_config, end_thread, take_matching_event,
    validate_state, write_attr,
)
from smm.state import (
    SignalPayload, SimState, _Owned, copy_stores, make_event, update_thread,
)

from conftest import PUT_OP, buffer_class, buffer_tables, get_method


def _call_event(seq: int, *, receiver: int = 0, sender: int = 0,
                tid: int = 0, prio: int = 1):
    msg = Message(sender, tid, receiver,
                  CallPayload(PUT_OP, RecordVal((("0", IntVal(1)),)), "r", prio))
    return make_event(msg, seq)


def _return_event(seq: int, *, receiver: int = 0, tid: int = 0):
    msg = Message(1, tid, receiver, ReturnPayload(IntVal(-1), "v"))
    return make_event(msg, seq)


def _state_with_buffer():
    s = empty_state()
    s, oid = alloc_object(s, buffer_class())
    return s, oid


class TestEmptyState:
    def test_everything_empty(self):
        s = empty_state()
        assert s.ds == {} and s.cs == {} and s.es == {}

    def test_first_allocation_gets_id_zero(self):
        s, oid = alloc_object(empty_state(), buffer_class())
        assert oid == 0


class TestAllocObject:
    def test_attributes_start_at_declared_inits(self):
        s, oid = _state_with_buffer()
        assert s.ds[oid].attrs.fields == (("data", IntVal(-1)),)
        assert s.cs[oid] == {} and s.es[oid] == ()

    def test_fourth_allocation_gets_id_three(self):
        s = empty_state()
        for expected in range(4):
            s, oid = alloc_object(s, buffer_class())
        assert oid == 3

    def test_ids_are_monotone(self):
        s = empty_state()
        ids = []
        for _ in range(5):
            s, oid = alloc_object(s, buffer_class())
            ids.append(oid)
        assert ids == sorted(set(ids)) == [0, 1, 2, 3, 4]

    def test_an_id_that_is_taken_is_not_overwritten(self):
        # Ids are 0..n-1, so the new one is n. A store that breaks that
        # holds an object at n, which allocation must not replace.
        s = SimState({1: StoredObject("A", RecordVal())}, {1: {}}, {1: ()})
        assert validate_state(s) == ["object id 1 is outside 0..0"]
        with pytest.raises(InternalError, match="object id 1"):
            alloc_object(s, ClassDef("B", ()))


class TestAttrAccess:
    def test_read_after_write(self):
        s, oid = _state_with_buffer()
        s = write_attr(s, oid, "data", IntVal(20))
        assert s.ds[oid].attrs.get("data") == IntVal(20)

    def test_write_does_not_mutate_the_old_state(self):
        s, oid = _state_with_buffer()
        s2 = write_attr(s, oid, "data", IntVal(10))
        assert s.ds[oid].attrs.get("data") == IntVal(-1)
        assert s2.ds[oid].attrs.get("data") == IntVal(10)

    def test_last_write_wins(self):
        s, oid = _state_with_buffer()
        s = write_attr(s, oid, "data", IntVal(10))
        s = write_attr(s, oid, "data", IntVal(20))
        assert s.ds[oid].attrs.get("data") == IntVal(20)

    def test_kind_mismatch_is_a_type_error(self):
        s, oid = _state_with_buffer()
        with pytest.raises(ExecError):
            write_attr(s, oid, "data", BoolVal(True))

    def test_unknown_attribute(self):
        s, oid = _state_with_buffer()
        with pytest.raises(ExecError):
            write_attr(s, oid, "x", IntVal(1))

    def test_class_tag_never_changes(self):
        s, oid = _state_with_buffer()
        s = write_attr(s, oid, "data", IntVal(7))
        assert s.ds[oid].class_name == "Buffer"

    @given(st.integers(min_value=-10**9, max_value=10**9))
    def test_read_write_identity(self, n):
        s, oid = _state_with_buffer()
        s2 = write_attr(s, oid, "data", IntVal(n))
        assert s2.ds[oid].attrs.get("data") == IntVal(n)


class TestEventKind:
    @pytest.mark.parametrize("payload, kind", [
        (CallPayload(PUT_OP, RecordVal(()), "r", 1), EventKind.CALL),
        (ReturnPayload(IntVal(0), "v"), EventKind.RETURN),
        (SignalPayload(PUT_OP, RecordVal(()), 1), EventKind.SIGNAL),
    ])
    def test_kind_follows_the_payload(self, payload, kind):
        assert make_event(Message(0, 0, 0, payload), 0).kind is kind

    def test_an_event_stores_no_kind(self):
        e = _call_event(0)
        with pytest.raises(TypeError):
            replace(e, kind=EventKind.SIGNAL)
        with pytest.raises(AttributeError):
            e.kind = EventKind.SIGNAL
        assert e.kind is EventKind.CALL


class TestEnqueueEvent:
    def test_append_to_empty_queue(self):
        s, oid = _state_with_buffer()
        e = _call_event(0, receiver=oid)
        es = enqueue_event(s.es, e)
        assert es[oid] == (e,)

    def test_fifo_order(self):
        s, oid = _state_with_buffer()
        e1, e2 = _call_event(5, receiver=oid), _call_event(6, receiver=oid)
        es = enqueue_event(enqueue_event(s.es, e1), e2)
        assert es[oid] == (e1, e2)

    def test_unknown_receiver_is_a_delivery_error(self):
        s, _ = _state_with_buffer()
        with pytest.raises(ExecError):
            enqueue_event(s.es, _call_event(0, receiver=9))


def _brute_force_take(queue, pred):
    """Independent reference for take_matching_event: scan the queue in
    order and delete the first satisfying element."""
    for i, e in enumerate(queue):
        if pred(e):
            return queue[:i] + queue[i + 1:], e
    return queue, None


class TestTakeMatchingEvent:
    def test_oldest_matching_event_is_taken(self):
        s, oid = _state_with_buffer()
        r1 = _return_event(0, receiver=oid)
        c1 = _call_event(1, receiver=oid)
        es = enqueue_event(enqueue_event(s.es, r1), c1)
        es2, taken = take_matching_event(es, oid,
                                         lambda e: e.kind is EventKind.RETURN)
        assert taken == r1
        assert es2[oid] == (c1,)

    def test_all_two_event_queues_match_brute_force(self):
        # Enumerate every 2-event queue over {call, return} and both
        # kind filters; the oldest-match rule must agree with a scan.
        s, oid = _state_with_buffer()
        makers = (_call_event, _return_event)
        kinds = (EventKind.CALL, EventKind.RETURN)
        for first, second in itertools.product(makers, repeat=2):
            queue = (first(0, receiver=oid), second(1, receiver=oid))
            es = {oid: queue}
            for want in kinds:
                pred = lambda e, want=want: e.kind is want
                expect_queue, expect_event = _brute_force_take(queue, pred)
                got_es, got_event = take_matching_event(es, oid, pred)
                assert got_event == expect_event
                assert got_es[oid] == expect_queue

    def test_empty_queue_returns_nothing(self):
        s, oid = _state_with_buffer()
        es, taken = take_matching_event(s.es, oid, lambda e: True)
        assert taken is None and es[oid] == ()

    def test_fifo_among_same_kind(self):
        s, oid = _state_with_buffer()
        c1, c2 = _call_event(0, receiver=oid), _call_event(1, receiver=oid)
        es = {oid: (c1, c2)}
        _, taken = take_matching_event(es, oid,
                                       lambda e: e.kind is EventKind.CALL)
        assert taken == c1

    @pytest.mark.parametrize("kind", [dict, _Owned])
    def test_the_store_is_never_written_even_when_a_run_owns_it(self, kind):
        # A tracer reads the argument after the call to find the event
        # taken, so even a store a run owns is copied, not written.
        s, oid = _state_with_buffer()
        queue = (_call_event(0, receiver=oid), _call_event(1, receiver=oid))
        es = kind({oid: queue})
        rest, taken = take_matching_event(es, oid, lambda e: True)
        assert taken is queue[0] and rest[oid] == queue[1:]
        assert es[oid] is queue
        assert rest is not es and type(rest) is kind


def _with_thread(s, oid):
    """``s`` with thread 0 of ``oid`` at the start of ``get``."""
    return update_thread(s, oid, 0,
                         Thread(1, ThreadStatus.READY, get_method()))


class TestEndThread:
    def test_ending_a_thread_removes_it(self):
        s, oid = _state_with_buffer()
        s = _with_thread(s, oid)
        s2 = end_thread(s, oid, 0)
        assert 0 not in s2.cs[oid]

    def test_ending_a_thread_the_state_does_not_hold_returns_it_unchanged(
            self):
        # A handler whose first action returns was never stored.
        s, oid = _state_with_buffer()
        assert end_thread(s, oid, 42) is s
        assert end_thread(s, oid + 1, 0) is s


def _writes(s, oid):
    """Each primitive that writes a store, applied once in turn from ``s``,
    as (name, the stores it writes as they were, the stores it returns)."""
    thr = Thread(1, ThreadStatus.READY, get_method())
    out = []
    t, _ = alloc_object(s, buffer_class())
    out.append(("alloc_object", (s.ds, s.cs, s.es), (t.ds, t.cs, t.es)))
    s, t = t, write_attr(t, oid, "data", IntVal(7))
    out.append(("write_attr", (s.ds,), (t.ds,)))
    es = enqueue_event(t.es, _call_event(0, receiver=oid))
    out.append(("enqueue_event", (t.es,), (es,)))
    s, t = t, update_thread(t, oid, 0, thr)
    out.append(("update_thread", (s.cs, s.cs[oid]), (t.cs, t.cs[oid])))
    s, t = t, end_thread(t, oid, 0)
    out.append(("end_thread", (s.cs, s.cs[oid]), (t.cs, t.cs[oid])))
    return out


def _counterless_writes(oid):
    """The primitives that move no counter, each as (name, a call of it on
    a state holding thread 0 of ``oid``)."""
    thr = Thread(1, ThreadStatus.READY, get_method())
    return [
        ("alloc_object", lambda s: alloc_object(s, buffer_class())[0]),
        ("write_attr", lambda s: write_attr(s, oid, "data", IntVal(7))),
        ("update_thread", lambda s: update_thread(s, oid, 0, thr)),
        ("end_thread", lambda s: end_thread(s, oid, 0)),
    ]


def _holds(owned, s) -> bool:
    """Whether ``owned``, a state a run owns, holds what the plain ``s``
    does: the stores and counters are equal, and so is each thread, field
    by field, except that a thread the run copied keeps its locals as a
    dict, equal to the fields of the record ``s`` holds."""
    if (owned.ds, owned.es, owned.next_tid, owned.next_seq) != (
            s.ds, s.es, s.next_tid, s.next_seq) \
            or owned.cs.keys() != s.cs.keys():
        return False
    for oid, threads in s.cs.items():
        if owned.cs[oid].keys() != threads.keys():
            return False
        for tid, thr in threads.items():
            mine = owned.cs[oid][tid]
            for f in dataclasses.fields(Thread):
                a, b = getattr(mine, f.name), getattr(thr, f.name)
                if f.name == "locals" and type(a) is dict:
                    b = dict(b.fields)
                if a != b:
                    return False
    return True


class TestOwnedStores:
    def test_an_owned_write_hands_back_the_state_it_was_given(self):
        s, oid = _state_with_buffer()
        for name, write in _counterless_writes(oid):
            owned = copy_stores(_with_thread(s, oid))
            assert write(owned) is owned, name
            assert _holds(owned, write(_with_thread(s, oid))), name

    def test_a_plain_write_builds_a_new_state(self):
        s, oid = _state_with_buffer()
        held = _with_thread(s, oid)
        for name, write in _counterless_writes(oid):
            assert write(held) is not held, name
            assert held == _with_thread(*_state_with_buffer()), name
        assert s == _state_with_buffer()[0]

    def test_a_plain_store_is_never_written(self):
        s, oid = _state_with_buffer()
        for name, before, after in _writes(s, oid):
            for old, new in zip(before, after):
                assert new is not old and type(new) is dict, name
        assert s == _state_with_buffer()[0]

    def test_a_store_a_run_owns_is_written_in_place(self):
        s, oid = _state_with_buffer()
        for name, before, after in _writes(copy_stores(s), oid):
            for old, new in zip(before, after):
                assert new is old and type(new) is _Owned, name

    def test_stores_are_copied_at_every_level(self):
        s = _with_thread(*_state_with_buffer())
        owned = copy_stores(s)
        assert _holds(owned, s)
        assert type(owned.cs[0]) is _Owned and owned.cs[0] is not s.cs[0]
        plain = copy_stores(owned, dict)
        assert plain == s and type(plain.cs[0]) is dict

    def test_a_run_keeps_a_threads_locals_as_a_dict_it_hands_back_as_a_record(
            self):
        s, oid = _state_with_buffer()
        record = RecordVal((("a", IntVal(1)), ("b", OidVal(oid))))
        s = update_thread(s, oid, 0, Thread(1, ThreadStatus.READY,
                                            get_method(), locals=record))
        owned = copy_stores(s)
        thr = owned.cs[oid][0]
        assert thr.locals == {"a": IntVal(1), "b": OidVal(oid)}
        thr.locals["a"] = IntVal(2)
        assert s.cs[oid][0].locals is record
        plain = copy_stores(owned, dict)
        # The same thread, its locals a record again, in their order.
        assert plain.cs[oid][0] is thr
        assert thr.locals == record.set("a", IntVal(2))


class TestValidateState:
    def test_fresh_states_validate(self):
        s, oid = _state_with_buffer()
        s = _with_thread(s, oid)
        from dataclasses import replace
        s = replace(s, next_tid=1)
        assert validate_state(s, make_config(*buffer_tables())) == []

    def test_inherited_attributes_validate_against_the_chain(self):
        base = ClassDef("B", (AttrDef("n", INT, IntVal(0)),))
        sub = ClassDef("C", (AttrDef("k", BOOL, BoolVal(False)),))
        cfg = make_config({"B": base, "C": sub}, {"C": ("B",)}, {})
        layout = cfg.hierarchy.object_class("C")
        assert layout.attributes == base.attributes + sub.attributes
        assert cfg.hierarchy.object_class("C") is layout
        s, _ = alloc_object(empty_state(), layout)
        assert validate_state(s, cfg) == []
        # C's own attributes alone are not what a C object holds.
        s, _ = alloc_object(s, sub)
        assert validate_state(s, cfg) == [
            "object 1: attribute order differs from class 'C' at 'k'"]

    def test_dangling_reference_detected(self):
        s, oid = _state_with_buffer()
        obj = s.ds[oid]
        s = replace(s, ds={oid: replace(obj, attrs=obj.attrs.set(
            "peer", OidVal(99)))})
        assert any("dangling" in p for p in validate_state(s))

    def test_a_dangling_local_of_a_thread_a_run_owns_is_detected(self):
        # Inside a run a thread's locals are a dict; it is checked as the
        # record it stands for is.
        s, oid = _state_with_buffer()
        thr = Thread(1, ThreadStatus.READY, get_method(),
                     locals=RecordVal((("peer", OidVal(99)),)))
        s = replace(update_thread(s, oid, 0, thr), next_tid=1)
        owned = copy_stores(s)
        assert type(owned.cs[oid][0].locals) is dict
        problems = ["thread 0 locals.peer: dangling reference to 99"]
        assert validate_state(owned) == validate_state(s) == problems

    def test_misplaced_event_detected(self):
        s, oid = _state_with_buffer()
        e = _call_event(0, receiver=oid)
        from dataclasses import replace
        s, other = alloc_object(s, ClassDef("Other", ()))
        s = replace(s, es={**s.es, other: (e,)}, next_seq=1)
        assert any("addressed to" in p for p in validate_state(s))


def _valid_state():
    """A buffer (object 0) running thread 0, with one call queued."""
    s, oid = _state_with_buffer()
    s = _with_thread(s, oid)
    return replace(s, es={oid: (_call_event(0, receiver=oid),)}, next_tid=1,
                   next_seq=1)


# One broken invariant per case: how to break it, and the one problem
# ``validate_state`` must report.
BROKEN = {
    "unknown-class": (
        lambda s: replace(s, ds={0: StoredObject("Ghost", s.ds[0].attrs)}),
        "object 0 has unknown class 'Ghost'"),
    "attribute-kind": (
        lambda s: replace(s, ds={0: StoredObject(
            "Buffer", RecordVal((("data", BoolVal(True)),)))}),
        "object 0: attribute 'data' kind differs from declaration"),
    "undeclared-scalar": (
        lambda s: replace(s, ds={0: StoredObject(
            "Buffer", s.ds[0].attrs.set("extra", IntVal(1)))}),
        "object 0: undeclared attribute 'extra' is not a link"),
    "object-id-gap": (
        lambda s: replace(s, ds={1: s.ds[0]}, cs={1: s.cs[0]}, es={1: ()}),
        "object id 1 is outside 0..0"),
    "threads-of-no-object": (
        lambda s: replace(s, cs={**s.cs, 5: {}}),
        "control store entry 5 has no object"),
    "thread-counter": (
        lambda s: replace(s, next_tid=0),
        "thread 0 not covered by the id counter"),
    "queue-of-no-object": (
        lambda s: replace(s, es={**s.es, 7: ()}),
        "event queue for unknown object 7"),
    "queue-order": (
        lambda s: replace(s, es={0: (_call_event(1), _call_event(0))},
                          next_seq=2),
        "event queue of 0 out of sequence order"),
    "seq-counter": (
        lambda s: replace(s, next_seq=0),
        "event seq 0 not covered by the counter"),
}


class TestValidateStateProblems:
    def test_the_valid_state_validates(self):
        assert validate_state(_valid_state(), make_config(*buffer_tables())) \
            == []

    @pytest.mark.parametrize("case", BROKEN)
    def test_each_broken_invariant_is_reported(self, case):
        breaks, problem = BROKEN[case]
        cfg = make_config(*buffer_tables())
        assert validate_state(breaks(_valid_state()), cfg) == [problem]
