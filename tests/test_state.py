from __future__ import annotations

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
from smm.state import make_event, update_thread

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

    def test_pop_on_missing_thread_is_internal(self):
        s, oid = _state_with_buffer()
        with pytest.raises(InternalError):
            end_thread(s, oid, 42)


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
        from smm.state import add_link_attr
        s = add_link_attr(s, oid, "peer", OidVal(99))
        assert any("dangling" in p for p in validate_state(s))

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
    "event-kind": (
        lambda s: replace(s, es={0: (replace(_call_event(0),
                                             kind=EventKind.SIGNAL),)}),
        "event seq 0 kind disagrees with payload"),
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
