from __future__ import annotations

from dataclasses import replace

import pytest

from smm import (
    AttrDef, BoolVal, CallerRef, ClassDef, ClassType, EventKind,
    ExecError, INT, IntVal, MethodDef, NULL_OID, OidVal, RecordVal,
    Thread, ThreadStatus, VOID, VOID_VAL, alloc_object, empty_state,
    make_config, parse_model, run_model,
)
from smm.actions import (
    BinOp, BranchIfFalse, Call, Jump, LocalConst, LocalFromAttr,
    LocalFromParam, NewLocal, NewObject, ReturnConst, ReturnLocal, SendSignal,
    SetAttr, interpret,
)
from smm.state import (
    Message, ReturnPayload, copy_stores, make_event, settle_stores,
    update_thread,
)
from smm.vm import step
from smm.universe import OpSig

from conftest import PUT_OP, buffer_class

WORK_OP = OpSig("work", (), VOID)
# Long enough that every jump target below lies inside the body.
WORK_BODY = (ReturnConst(VOID_VAL),) * 6


def _worker_class():
    return ClassDef("Worker", (AttrDef("count", INT, IntVal(0)),
                               AttrDef("buf", ClassType("Buffer"), NULL_OID)))


def _cfg():
    classes = {"Buffer": buffer_class(), "Worker": _worker_class()}
    return make_config(classes, {}, {"Buffer": {}, "Worker": {}})


def _setup(locals_=(), params=(), pc=0, caller=None, op=WORK_OP):
    """A buffer (oid 0) and a worker (oid 1) running thread 0 at ``pc`` of
    its method for ``op``."""
    s = empty_state()
    s, buf = alloc_object(s, buffer_class())
    s, worker = alloc_object(s, _worker_class())
    thr = Thread(5, ThreadStatus.READY, MethodDef(op, (), WORK_BODY),
                 RecordVal(tuple(params)), RecordVal(tuple(locals_)), pc,
                 caller)
    s = update_thread(s, worker, 0, thr)
    s = replace(s, next_tid=1)
    return s, buf, worker


def _interpreted(action, s, oid):
    """What ``interpret`` hands back on thread 0 of ``oid``, run as
    ``vm.step`` runs it: on a copy of ``s``, settled after, so ``s`` is
    not written."""
    s = copy_stores(s)
    s2, receiver = interpret(action, s, oid, 0, s.thread(oid, 0), _cfg())
    return settle_stores(s2), receiver


def _interpret(action, s, oid):
    """The state ``interpret`` hands back on thread 0 of ``oid``."""
    return _interpreted(action, s, oid)[0]


def _top(s, oid, tid=0):
    return s.cs[oid][tid]


class TestDataActions:
    def test_new_local_binds_init(self):
        s, _, w = _setup()
        s2 = _interpret(NewLocal("d", INT, IntVal(0)), s, w)
        assert _top(s2, w).locals.get("d") == IntVal(0)
        assert _top(s2, w).pc == 1

    def test_new_local_duplicate_rejected(self):
        s, _, w = _setup(locals_=(("d", IntVal(1)),))
        with pytest.raises(ExecError):
            _interpret(NewLocal("d", INT, IntVal(0)), s, w)

    def test_local_from_param(self):
        s, _, w = _setup(locals_=(("d", IntVal(0)),),
                         params=(("p", IntVal(10)),))
        s2 = _interpret(LocalFromParam("d", "p"), s, w)
        assert _top(s2, w).locals.get("d") == IntVal(10)

    def test_local_from_attr(self):
        s, _, w = _setup(locals_=(("c", IntVal(-1)),))
        s2 = _interpret(LocalFromAttr("c", "count"), s, w)
        assert _top(s2, w).locals.get("c") == IntVal(0)

    def test_local_const_overwrites(self):
        s, _, w = _setup(locals_=(("x", IntVal(10)),))
        s2 = _interpret(LocalConst("x", IntVal(20)), s, w)
        assert _top(s2, w).locals.get("x") == IntVal(20)

    def test_set_attr_writes_through(self):
        s, _, w = _setup(locals_=(("d", IntVal(10)),))
        s2 = _interpret(SetAttr("count", "d"), s, w)
        assert s2.ds[w].attrs.get("count") == IntVal(10)
        assert _top(s2, w).pc == 1

    def test_set_attr_type_checked_against_declaration(self):
        s, _, w = _setup(locals_=(("d", BoolVal(True)),))
        with pytest.raises(ExecError):
            _interpret(SetAttr("count", "d"), s, w)

    def test_binop_add(self):
        s, _, w = _setup(locals_=(("i", IntVal(4)), ("one", IntVal(1))))
        s2 = _interpret(BinOp("add", "i", "i", "one"), s, w)
        assert _top(s2, w).locals.get("i") == IntVal(5)

    @pytest.mark.parametrize("op, lhs, rhs, out", [
        ("add", 2**63 - 2, 1, 2**63 - 1),
        ("add", 2**63 - 1, 1, None),
        ("sub", -2**63 + 1, 1, -2**63),
        ("sub", -2**63, 1, None),
        ("mul", -2**62, 2, -2**63),
        ("mul", 2**62, 2, None),
        ("mul", 2**32, 2**32, None),
    ])
    def test_int_results_stay_signed_64_bit(self, op, lhs, rhs, out):
        s, _, w = _setup(locals_=(("a", IntVal(lhs)), ("b", IntVal(rhs))))
        if out is None:
            with pytest.raises(ExecError, match=f"integer overflow in '{op}'"):
                _interpret(BinOp(op, "a", "a", "b"), s, w)
        else:
            s2 = _interpret(BinOp(op, "a", "a", "b"), s, w)
            assert _top(s2, w).locals.get("a") == IntVal(out)

    def test_binop_comparisons_produce_bools(self):
        s, _, w = _setup(locals_=(("c", BoolVal(False)), ("a", IntVal(2)),
                                  ("b", IntVal(3))))
        s2 = _interpret(BinOp("lt", "c", "a", "b"), s, w)
        assert _top(s2, w).locals.get("c") == BoolVal(True)
        s3 = _interpret(BinOp("eq", "c", "a", "b"), s, w)
        assert _top(s3, w).locals.get("c") == BoolVal(False)

    def test_arithmetic_requires_ints(self):
        s, _, w = _setup(locals_=(("c", BoolVal(True)), ("i", IntVal(0))))
        with pytest.raises(ExecError):
            _interpret(BinOp("add", "i", "i", "c"), s, w)

    def test_unknown_local_is_an_error(self):
        s, _, w = _setup()
        with pytest.raises(ExecError):
            _interpret(LocalConst("ghost", IntVal(0)), s, w)

    def test_reading_an_unknown_local_stops_a_parsed_model(self):
        # The parser checks no local names, so the branch reads one that
        # was never declared.
        model = parse_model("class A { }\nop A.go(): Void {\nL0:\n"
                            "  ifnot c goto L0;\n  return void;\n}\n"
                            "setup { a: A active go prio 1; }")
        with pytest.raises(ExecError) as err:
            run_model(model)
        assert err.value.message == "unknown local 'c'"

    def test_loading_an_unknown_parameter_is_an_error(self):
        s, _, w = _setup(locals_=(("d", IntVal(0)),),
                         params=(("p", IntVal(10)),))
        with pytest.raises(ExecError) as err:
            _interpret(LocalFromParam("d", "ghost"), s, w)
        assert err.value.message == "unknown parameter 'ghost'"


class TestControlActions:
    def test_jump_sets_pc_only(self):
        s, _, w = _setup(pc=5)
        s2 = _interpret(Jump(2), s, w)
        assert _top(s2, w).pc == 2
        assert s2.ds == s.ds and s2.es == s.es

    def test_branch_falls_through_on_true(self):
        s, _, w = _setup(locals_=(("c", BoolVal(True)),), pc=3)
        s2 = _interpret(BranchIfFalse("c", 1), s, w)
        assert _top(s2, w).pc == 4
        assert s2.ds == s.ds and s2.es == s.es

    def test_branch_jumps_on_false(self):
        s, _, w = _setup(locals_=(("c", BoolVal(False)),), pc=3)
        s2 = _interpret(BranchIfFalse("c", 1), s, w)
        assert _top(s2, w).pc == 1

    @pytest.mark.parametrize("action", [Jump(-1), Jump(6),
                                        BranchIfFalse("c", -2)])
    def test_jump_outside_the_body_rejected(self, action):
        s, _, w = _setup(locals_=(("c", BoolVal(False)),), pc=3)
        with pytest.raises(ExecError, match=(
                rf"^action 3 jumps to {action.target}, outside the body of "
                rf"6 actions$")):
            _interpret(action, s, w)

    def test_branch_not_taken_ignores_its_target(self):
        s, _, w = _setup(locals_=(("c", BoolVal(True)),), pc=3)
        s2 = _interpret(BranchIfFalse("c", 99), s, w)
        assert _top(s2, w).pc == 4

    def test_branch_requires_bool(self):
        s, _, w = _setup(locals_=(("c", IntVal(0)),))
        with pytest.raises(ExecError):
            _interpret(BranchIfFalse("c", 0), s, w)


class TestObjectActions:
    def test_new_object_allocates_and_binds(self):
        s, _, w = _setup(locals_=(("o", NULL_OID),))
        s2 = _interpret(NewObject("o", "Buffer"), s, w)
        assert _top(s2, w).locals.get("o") == OidVal(2)
        assert s2.ds[2].class_name == "Buffer"

    def test_new_object_unknown_class(self):
        s, _, w = _setup(locals_=(("o", NULL_OID),))
        with pytest.raises(ExecError):
            _interpret(NewObject("o", "Ghost"), s, w)


class TestMessagingActions:
    def test_call_queues_event_and_blocks_sender(self):
        s, buf, w = _setup(locals_=(("b", OidVal(0)), ("x", IntVal(10))))
        s2 = _interpret(Call("b", PUT_OP, ("x",), "r"), s, w)
        thr = s2.cs[w][0]
        assert thr.status is ThreadStatus.WAITING
        assert thr.pc == 1
        (event,) = s2.es[buf]
        assert event.kind is EventKind.CALL
        assert event.msg.sender == w and event.msg.sender_thread == 0
        assert event.msg.payload.args.fields == (("0", IntVal(10)),)
        assert event.msg.payload.result_local == "r"
        # Call priority inherits the calling thread's base priority.
        assert event.msg.payload.prio == 5

    def test_call_on_null_target(self):
        s, _, w = _setup(locals_=(("b", NULL_OID),))
        with pytest.raises(ExecError):
            _interpret(Call("b", PUT_OP, (), "r"), s, w)

    def test_call_arity_checked(self):
        s, _, w = _setup(locals_=(("b", OidVal(0)),))
        with pytest.raises(ExecError):
            _interpret(Call("b", PUT_OP, (), "r"), s, w)

    def test_send_signal_does_not_block(self):
        s, buf, w = _setup(locals_=(("b", OidVal(0)), ("x", IntVal(1))))
        s2 = _interpret(SendSignal("b", PUT_OP, ("x",), 7), s, w)
        thr = s2.cs[w][0]
        assert thr.status is ThreadStatus.READY
        assert thr.pc == 1
        (event,) = s2.es[buf]
        assert event.kind is EventKind.SIGNAL
        assert event.msg.payload.prio == 7

    def test_return_answers_the_caller_and_terminates(self):
        caller = CallerRef(oid=0, tid=9, result_local="v")
        s, buf, w = _setup(caller=caller)
        s2 = _interpret(ReturnConst(VOID_VAL), s, w)
        assert 0 not in s2.cs[w]
        (event,) = s2.es[buf]
        assert event.kind is EventKind.RETURN
        assert event.msg.payload.value == VOID_VAL
        assert event.msg.payload.result_local == "v"
        # Returns are routed by the thread they resume.
        assert event.msg.sender_thread == 9

    def test_return_local_carries_the_value(self):
        caller = CallerRef(oid=0, tid=3, result_local="out")
        s, buf, w = _setup(locals_=(("d", IntVal(42)),), caller=caller,
                           op=OpSig("work", (), INT))
        s2 = _interpret(ReturnLocal("d"), s, w)
        (event,) = s2.es[buf]
        assert event.msg.payload.value == IntVal(42)

    def test_return_local_must_fit_the_return_type(self):
        caller = CallerRef(oid=0, tid=3, result_local="out")
        s, _, w = _setup(locals_=(("d", IntVal(42)),), caller=caller)
        with pytest.raises(ExecError) as err:
            _interpret(ReturnLocal("d"), s, w)
        assert str(err.value) == ("'work' returns a value that does not fit "
                                  "its return type Void")

    def test_return_to_nobody_sends_nothing(self):
        s, buf, w = _setup(caller=None)
        s2 = _interpret(ReturnConst(VOID_VAL), s, w)
        assert 0 not in s2.cs[w]
        assert s2.es[buf] == ()
        assert s2.next_seq == s.next_seq


class TestIsolation:
    def test_data_action_touches_one_store(self):
        s, _, w = _setup(locals_=(("d", IntVal(1)),))
        s2 = _interpret(SetAttr("count", "d"), s, w)
        assert s2.es == s.es
        assert set(s2.cs) == set(s.cs)

    def test_call_touches_other_objects_only_via_one_event(self):
        s, buf, w = _setup(locals_=(("b", OidVal(0)), ("x", IntVal(1))))
        other_threads_before = {o: t for o, t in s.cs.items() if o != w}
        s2 = _interpret(Call("b", PUT_OP, ("x",), "r"), s, w)
        assert {o: t for o, t in s2.cs.items() if o != w} == other_threads_before
        assert s2.ds == s.ds
        assert len(s2.es[buf]) == len(s.es[buf]) + 1


def _receiver(action, s, oid):
    """The receiver ``interpret`` names for ``action`` on thread 0."""
    return _interpreted(action, s, oid)[1]


class TestReceiver:
    """``interpret`` names the receiver of the one event an action emits,
    and ``vm.step`` reports it as it is."""

    def test_a_call_or_signal_names_its_target(self):
        s, buf, w = _setup(locals_=(("b", OidVal(0)), ("x", IntVal(1))))
        assert _receiver(Call("b", PUT_OP, ("x",), "r"), s, w) == buf
        assert _receiver(SendSignal("b", PUT_OP, ("x",), 7), s, w) == buf

    def test_a_return_names_its_caller_if_it_has_one(self):
        s, buf, w = _setup(caller=CallerRef(oid=0, tid=9, result_local="v"))
        assert _receiver(ReturnConst(VOID_VAL), s, w) == buf
        s, _, w = _setup(caller=None)
        assert _receiver(ReturnConst(VOID_VAL), s, w) is None

    @pytest.mark.parametrize("action", [
        NewLocal("n", INT, IntVal(0)), LocalFromParam("i", "p"),
        LocalFromAttr("i", "count"), LocalConst("i", IntVal(3)),
        SetAttr("count", "i"), BinOp("add", "i", "i", "i"), Jump(2),
        BranchIfFalse("c", 2), BranchIfFalse("t", 2), NewObject("o", "Buffer"),
    ], ids=lambda action: type(action).__name__)
    def test_an_action_that_emits_nothing_names_no_receiver(self, action):
        s, _, w = _setup(locals_=(("i", IntVal(1)), ("c", BoolVal(False)),
                                  ("t", BoolVal(True)), ("o", NULL_OID)),
                         params=(("p", IntVal(4)),))
        assert _receiver(action, s, w) is None

    def test_a_resumed_caller_sends_to_the_object_just_bound(self):
        # The return binds ``b`` to the first buffer, which ``b`` did not
        # name when the call went out; the signal after it goes there.
        s, buf, w = _setup(locals_=(("b", OidVal(2)), ("x", IntVal(1))))
        s, other = alloc_object(s, buffer_class())
        body = (Call("b", PUT_OP, ("x",), "b"),
                SendSignal("b", PUT_OP, ("x",), 1), ReturnConst(VOID_VAL))
        thr = replace(_top(s, w), status=ThreadStatus.WAITING, pc=1,
                      meth=MethodDef(WORK_OP, (), body))
        answer = make_event(Message(other, 0, w, ReturnPayload(
            OidVal(buf), "b")), 0)
        s = replace(update_thread(s, w, 0, thr), es={**s.es, w: (answer,)},
                    next_seq=1)
        s2, pc, action, receiver = step(s, _cfg(), w, 0)
        assert (pc, action, receiver) == (1, body[1], buf)
        assert [e.kind for e in s2.es[buf]] == [EventKind.SIGNAL]
        assert s2.es[other] == ()
