from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import replace

import pytest

import smm.universe
import smm.variation
from smm import (
    Active, AllDone, AttrDef, Blocked, CallerRef, CallPayload, ClassDef,
    ClassType, EventKind, ExecError, INT, IntVal, InternalError,
    Message, MethodDef, ModelDef, ModelError, NULL_OID, OidVal, OpSig,
    Passive, RecordVal, SetupEntry, StepLimit, Thread, ThreadStatus, VOID,
    VOID_VAL,
    add_last_exec_info, alloc_object, build_initial_state, collect_runnables,
    consume_event, deliver_reliable, empty_state, make_config, parse_model,
    run, run_main, run_model,
)
from smm.actions import Jump, ReturnConst
from smm.state import ReturnPayload, make_event, update_thread
from smm.variation import RtcRunnables
from smm.vm import step

from conftest import (
    PUT_OP, buffer_class, buffer_config, buffer_tables, get_method,
    put_method,
)

PRODCONS_SETUP = (
    SetupEntry("prod1", "Producer", Active(OpSig("produce", (), VOID), 10), ("b",)),
    SetupEntry("cons1", "Consumer", Active(OpSig("consume", (), VOID), 1), ("b",)),
    SetupEntry("cons2", "Consumer", Active(OpSig("consume", (), VOID), 1), ("b",)),
    SetupEntry("b", "Buffer", Passive(), ()),
)


class TestBuildInitialState:
    def test_fixture_setup_shape(self, prodcons_model):
        from smm.frontend import build_config
        cfg = build_config(prodcons_model)
        s = build_initial_state(cfg, prodcons_model.setup)
        assert sorted(s.ds) == [0, 1, 2, 3]
        assert s.ds[0].class_name == "Producer"
        assert s.ds[3].class_name == "Buffer"
        # Every active object got a link attribute to the buffer.
        for oid in (0, 1, 2):
            assert s.ds[oid].attrs.get("b") == OidVal(3)
        # The buffer is passive; the three active objects carry one ready
        # thread each, with the setup's priorities.
        assert s.cs[3] == {}
        prod_thread = s.cs[0][0]
        assert prod_thread.base_prio == 10
        assert prod_thread.status is ThreadStatus.READY
        assert prod_thread.pc == 0 and prod_thread.caller is None
        assert s.cs[1][1].base_prio == 1
        assert s.cs[2][2].base_prio == 1

    def test_empty_setup_runs_to_all_done(self):
        cfg = buffer_config()
        result = run_main(cfg, ())
        assert result.time == 0
        assert result.halt == AllDone()
        assert result.final.ds == {}

    def test_unknown_link_is_a_validation_error(self):
        cfg = buffer_config()
        setup = (SetupEntry("b", "Buffer", Passive(), ("ghost",)),)
        with pytest.raises(ModelError):
            build_initial_state(cfg, setup)

    def test_unknown_class_is_a_validation_error(self):
        cfg = buffer_config()
        setup = (SetupEntry("x", "Ghost", Passive(), ()),)
        with pytest.raises(ModelError):
            build_initial_state(cfg, setup)

    def test_link_colliding_with_scalar_attr_rejected(self):
        # A link attribute is named after its target entry; hitting a
        # declared non-reference attribute would corrupt the record.
        cfg = buffer_config()
        setup = (SetupEntry("x", "Buffer", Passive(), ("data",)),
                 SetupEntry("data", "Buffer", Passive(), ()))
        with pytest.raises(ModelError):
            build_initial_state(cfg, setup)

    def test_link_colliding_with_inherited_scalar_attr_rejected(self):
        classes, _, mm = buffer_tables()
        classes = {**classes, "Special": ClassDef("Special", ())}
        cfg = make_config(classes, {"Special": ("Buffer",)}, mm)
        setup = (SetupEntry("x", "Special", Passive(), ("data",)),
                 SetupEntry("data", "Buffer", Passive(), ()))
        with pytest.raises(ModelError) as err:
            build_initial_state(cfg, setup)
        assert [d.message for d in err.value.diagnostics] == [
            "link 'data' of 'x' would overwrite a non-reference attribute"]

    def test_link_must_fit_a_class_typed_attribute(self):
        classes, _, mm = buffer_tables()
        slot = AttrDef("buf", ClassType("Buffer"), NULL_OID)
        classes = {**classes, "Holder": ClassDef("Holder", (slot,)),
                   "Special": ClassDef("Special", ())}
        cfg = make_config(classes, {"Special": ("Buffer",)}, mm)
        holder = SetupEntry("h", "Holder", Passive(), ("buf",))
        setup = (holder, SetupEntry("buf", "Holder", Passive(), ()))
        with pytest.raises(ModelError) as err:
            build_initial_state(cfg, setup)
        assert [d.message for d in err.value.diagnostics] == [
            "link 'buf' of 'h' would store a 'Holder' in an attribute of "
            "type Buffer"]
        # An object of a subclass of the attribute's type fits.
        s = build_initial_state(
            cfg, (holder, SetupEntry("buf", "Special", Passive(), ())))
        assert s.ds[0].attrs.fields == (("buf", OidVal(1)),)

    def test_objects_get_the_attributes_of_their_chain(self):
        classes, _, mm = buffer_tables()
        extra = AttrDef("k", INT, IntVal(7))
        classes = {**classes, "Special": ClassDef("Special", (extra,))}
        cfg = make_config(classes, {"Special": ("Buffer",)}, mm)
        s = build_initial_state(cfg, (SetupEntry("x", "Special", Passive()),))
        assert s.ds[0].attrs.fields == (("data", IntVal(-1)), ("k", IntVal(7)))

    def test_each_setup_problem_is_its_own_diagnostic(self):
        cfg = buffer_config()
        setup = (SetupEntry("x", "Ghost", Passive(), ("nobody",)),
                 SetupEntry("x", "Buffer", Passive(), ()))
        with pytest.raises(ModelError) as err:
            build_initial_state(cfg, setup)
        assert [d.message for d in err.value.diagnostics] == [
            "setup object 'x' has unknown class 'Ghost'",
            "setup object 'x' links unknown object 'nobody'",
            "duplicate setup object 'x'",
        ]

    def test_a_start_operation_taking_parameters_is_rejected(self):
        # Its thread would start with the parameters unbound, and the text
        # form of the setup would not parse back.
        setup = (SetupEntry("b", "Buffer", Active(PUT_OP, 1)),)
        with pytest.raises(ModelError) as err:
            build_initial_state(buffer_config(), setup)
        assert [d.message for d in err.value.diagnostics] == [
            "start operation 'put' of setup object 'b' must take no "
            "parameters"]

    def test_undispatchable_start_op_rejected_before_any_step(self):
        cfg = buffer_config()
        setup = (SetupEntry("b", "Buffer", Active(OpSig("ghost", (), VOID), 1),
                            ()),)
        with pytest.raises(ModelError):
            run_main(cfg, setup)


class TestCollectRunnables:
    def test_empty_state(self):
        cfg = buffer_config()
        assert collect_runnables(cfg.runnables_sel, empty_state(), {}, {},
                                 ()) == ([], {})

    def test_fixture_initial_state_under_rtc(self, prodcons_model):
        from smm.frontend import build_config
        cfg = build_config(prodcons_model, runnables="rtc")
        s = build_initial_state(cfg, prodcons_model.setup)
        rs, reserved = collect_runnables(cfg.runnables_sel, s, {0: 3}, {},
                                         s.ds)
        assert [(e.oid, e.tid, e.prio, e.last_exec) for e in rs] == [
            (0, 0, 10, 3), (1, 1, 1, -1), (2, 2, 1, -1)]
        assert reserved == {}

    def test_only_dirty_objects_are_asked_again(self, prodcons_model):
        from smm.frontend import build_config
        cfg = build_config(prodcons_model, runnables="rtc")
        s = build_initial_state(cfg, prodcons_model.setup)
        asked = []

        def sel(state, oid):
            asked.append(oid)
            return cfg.runnables_sel(state, oid)

        offers: dict = {}
        first, _ = collect_runnables(sel, s, {}, offers, s.ds)
        assert asked == [0, 1, 2, 3]
        # Object 1's thread is gone, but only object 2 is dirty: object 1
        # keeps offering what it offered before, object 2 is re-asked.
        s2 = replace(s, cs={**s.cs, 1: {}, 2: {}})
        again, _ = collect_runnables(sel, s2, {}, offers, [2])
        assert asked == [0, 1, 2, 3, 2]
        assert again == [e for e in first if e.oid != 2]

    def test_reserved_ids_follow_the_refreshed_counts(self):
        cfg = buffer_config(runnables="conc")
        s, a = alloc_object(empty_state(), buffer_class())
        s, b = alloc_object(s, buffer_class())
        offers: dict = {}
        collect_runnables(cfg.runnables_sel, s, {}, offers, s.ds)
        s = _queued_call(_queued_call(s, b), a)
        entries, reserved = collect_runnables(cfg.runnables_sel, s, {},
                                              offers, [a, b])
        base = s.next_tid
        assert [(e.oid, e.tid) for e in entries] == [(a, base), (b, base + 1)]
        assert [reserved[tid].msg.receiver for tid in (base, base + 1)] \
            == [a, b]


class TestAddLastExecInfo:
    def test_recorded_time_is_attached(self):
        entries = add_last_exec_info({5: 7}, 0, [(5, 2)])
        assert entries[0].last_exec == 7

    def test_missing_ids_read_as_before_the_run(self):
        entries = add_last_exec_info({}, 0, [(5, 2)])
        assert entries[0].last_exec == -1

    def test_empty_list(self):
        assert add_last_exec_info({3: 1}, 0, []) == []

    def test_order_preserved(self):
        entries = add_last_exec_info({1: 4}, 1, [(0, 1), (1, 1), (2, 3)])
        assert [(e.oid, e.tid, e.prio, e.last_exec) for e in entries] == [
            (1, 0, 1, -1), (1, 1, 1, 4), (1, 2, 3, -1)]

    def test_unchanged_entries_are_kept(self):
        entries = add_last_exec_info({0: 3, 1: 9}, 1,
                                     [(0, 1), (1, 1), (2, 5), (3, 1)])
        assert [(e.oid, e.tid, e.prio, e.last_exec) for e in entries] == [
            (1, 0, 1, 3), (1, 1, 1, 9), (1, 2, 5, -1), (1, 3, 1, -1)]


def _queued_call(s, buf_oid, *, value=10, sender=5, sender_tid=7, prio=3):
    msg = Message(sender, sender_tid, buf_oid,
                  CallPayload(PUT_OP, RecordVal((("0", IntVal(value)),)),
                              "result", prio))
    event = make_event(msg, s.next_seq)
    return replace(s, es=deliver_reliable(s.es, event), next_seq=s.next_seq + 1)


class TestConsumeEvent:
    def _buffer(self):
        from conftest import buffer_class
        s, oid = alloc_object(empty_state(), buffer_class())
        return s, oid

    def test_call_event_materializes_a_handler_thread(self):
        cfg = buffer_config(runnables="conc")
        s, buf = self._buffer()
        s = _queued_call(s, buf, sender=5, sender_tid=7)
        reserved = s.next_tid
        s2, thr = consume_event(s, cfg, buf, reserved, s.es[buf][0])
        assert thr.status is ThreadStatus.READY
        assert thr.base_prio == 3
        assert thr.meth == put_method() and thr.pc == 0
        # Message arguments are bound to the dispatched method's parameters.
        assert thr.params.fields == (("p", IntVal(10)),)
        assert thr.caller == CallerRef(5, 7, "result")
        assert s2.es[buf] == ()
        assert s2.next_tid == reserved + 1
        # The thread is handed over, not stored: the action writes it.
        assert s2.cs == s.cs

    def test_signal_event_has_no_caller(self):
        from smm.state import SignalPayload
        cfg = buffer_config(runnables="conc")
        s, buf = self._buffer()
        msg = Message(5, 7, buf,
                      SignalPayload(PUT_OP, RecordVal((("0", IntVal(1)),)), 2))
        s = replace(s, es=deliver_reliable(s.es, make_event(msg, 0)), next_seq=1)
        reserved = s.next_tid
        _, thr = consume_event(s, cfg, buf, reserved, s.es[buf][0])
        assert thr.caller is None
        assert thr.base_prio == 2

    def test_return_event_resumes_the_waiting_caller(self):
        cfg = buffer_config()
        s, buf = self._buffer()
        s = update_thread(s, buf, 0,
                          Thread(1, ThreadStatus.WAITING, get_method(), pc=3))
        s = replace(s, next_tid=1)
        msg = Message(9, 0, buf, ReturnPayload(IntVal(-1), "v"))
        s = replace(s, es=deliver_reliable(s.es, make_event(msg, 0)), next_seq=1)
        s2, thr2 = consume_event(s, cfg, buf, 0)
        assert thr2.status is ThreadStatus.READY
        assert thr2.locals.get("v") == IntVal(-1)
        assert thr2.pc == 3
        assert s2.es[buf] == ()
        # The state still holds the waiting version; the action replaces it.
        assert s2.cs == s.cs

    def test_ready_thread_is_an_internal_error(self):
        # Only a thread that is not ready is scheduled for consumption.
        cfg = buffer_config()
        s, buf = self._buffer()
        s = update_thread(s, buf, 0,
                          Thread(0, ThreadStatus.READY, get_method()))
        s = replace(s, next_tid=1)
        s = _queued_call(s, buf)
        with pytest.raises(InternalError, match="scheduled but is not ready"):
            consume_event(s, cfg, buf, 0)

    def test_the_reserved_event_itself_is_taken(self):
        # Two queued calls share a seq (a hand-built state): the one the
        # reserved id stands for is taken, not the first equal-seq one.
        cfg = buffer_config(runnables="conc")
        s, buf = self._buffer()
        first = _queued_call(s, buf, value=1).es[buf][0]
        second = _queued_call(s, buf, value=2).es[buf][0]
        s = replace(s, es={**s.es, buf: (first, second)}, next_seq=1)
        s2, thr = consume_event(s, cfg, buf, s.next_tid, second)
        assert s2.es[buf] == (first,)
        assert thr.params.fields == (("p", IntVal(2)),)

    def test_a_method_taking_other_parameters_is_an_error(self):
        # Only a dispatcher that answers with another operation's method
        # can get a handler whose parameters do not match the message.
        cfg = replace(buffer_config(runnables="conc"),
                      dispatcher=lambda scl, mm, ds, oid, op: get_method())
        s, buf = self._buffer()
        s = _queued_call(s, buf)
        with pytest.raises(ExecError) as err:
            consume_event(s, cfg, buf, s.next_tid, s.es[buf][0])
        assert str(err.value) == (f"'put' was sent 1 argument(s) but its "
                                  f"method takes 0 [oid={buf}]")

    def test_bogus_pseudo_id_is_internal(self):
        cfg = buffer_config()
        s, buf = self._buffer()
        with pytest.raises(InternalError):
            consume_event(s, cfg, buf, s.next_tid)


class TestExecStep:
    def test_materialized_handler_interprets_its_first_action(self):
        cfg = buffer_config(runnables="conc")
        from conftest import buffer_class
        s, buf = alloc_object(empty_state(), buffer_class())
        s = _queued_call(s, buf, value=10)
        reserved = s.next_tid
        s2, pc, _, _ = step(s, cfg, buf, reserved, s.es[buf][0])
        assert pc == 0
        # One step: the event was consumed and put's first action ran.
        thr = s2.cs[buf][reserved]
        assert thr.pc == 1
        assert thr.locals.get("d") == IntVal(0)

    def test_a_handler_that_returns_at_once_is_never_stored(self):
        sig = OpSig("stub", (), VOID)
        meth = MethodDef(sig, (), (ReturnConst(VOID_VAL),))
        classes = {"Buffer": buffer_class()}
        cfg = make_config(classes, {}, {"Buffer": {sig: meth}})
        s, buf = alloc_object(empty_state(), classes["Buffer"])
        s, caller = alloc_object(s, classes["Buffer"])
        msg = Message(caller, 0, buf,
                      CallPayload(sig, RecordVal(), "r", 1))
        s = replace(s, es=deliver_reliable(s.es, make_event(msg, 0)),
                    next_tid=1, next_seq=1)
        s2, pc, _, receiver = step(s, cfg, buf, 1, s.es[buf][0])
        assert (pc, receiver) == (0, caller)
        assert s2.cs == s.cs and s2.next_tid == 2
        assert s2.es[buf] == ()
        assert s2.es[caller][0].msg.payload == ReturnPayload(VOID_VAL, "r")

    def test_fell_off_the_end_reported(self):
        from smm.actions import NewLocal
        from smm import INT, MethodDef, make_config
        from conftest import buffer_class
        sig = OpSig("stub", (), VOID)
        meth = MethodDef(sig, (), (NewLocal("d", INT, IntVal(0)),))
        classes = {"Buffer": buffer_class()}
        cfg = make_config(classes, {}, {"Buffer": {sig: meth}})
        s, buf = alloc_object(empty_state(), classes["Buffer"])
        s = update_thread(s, buf, 0, Thread(0, ThreadStatus.READY, meth))
        s = replace(s, next_tid=1)
        s, _, _, _ = step(s, cfg, buf, 0)
        with pytest.raises(ExecError, match="fell off the end of 'stub'"):
            step(s, cfg, buf, 0)

    def _lone_thread(self, status):
        s, buf = alloc_object(empty_state(), buffer_class())
        s = update_thread(s, buf, 0, Thread(0, status, get_method()))
        return replace(s, next_tid=1), buf

    def test_waiting_thread_is_an_internal_error(self):
        # No return is buffered, so consuming leaves the thread waiting.
        s, buf = self._lone_thread(ThreadStatus.WAITING)
        with pytest.raises(InternalError, match="scheduled but is not ready"):
            step(s, buffer_config(), buf, 0)

    def test_missing_thread_is_an_internal_error(self):
        s, buf = self._lone_thread(ThreadStatus.READY)
        with pytest.raises(InternalError,
                           match="neither exists nor names a pending event"):
            step(s, buffer_config(), buf, 7)
        # An object id that names no object at all fails the same way.
        with pytest.raises(InternalError,
                           match="neither exists nor names a pending event"):
            step(s, buffer_config(), buf + 5, 0)

    @pytest.mark.parametrize("target", [-2, 2, 5])
    def test_jump_outside_the_body_fails_at_the_jump(self, target):
        # run_model does not validate, so the jump reaches the interpreter.
        sig = OpSig("go", (), VOID)
        meth = MethodDef(sig, (), (Jump(target), ReturnConst(VOID_VAL)))
        model = ModelDef({"A": ClassDef("A", ())}, {}, {"A": {sig: meth}},
                         (SetupEntry("a", "A", Active(sig, 0)),))
        with pytest.raises(ExecError) as info:
            run_model(model, max_steps=10)
        assert str(info.value) == (
            f"action 0 jumps to {target}, outside the body of 2 actions "
            f"[oid=0, tid=0, pc=0]")


class TestRunLoop:
    def test_empty_state_returns_immediately(self):
        cfg = buffer_config()
        result = run({}, 0, cfg, empty_state())
        assert result.time == 0 and result.halt == AllDone()

    def test_fixture_race_under_conc_rr(self, prodcons_model):
        result = run_model(prodcons_model, runnables="conc", scheduler="rr")
        ds = result.final.ds
        assert ds[1].attrs.get("data") == IntVal(10)
        assert ds[2].attrs.get("data") == IntVal(10)
        assert ds[3].attrs.get("data") == IntVal(20)
        assert result.halt == AllDone()

    def test_deadlock_blocks_with_waiting_threads(self, deadlock_model):
        result = run_model(deadlock_model)
        assert result.halt == Blocked(((0, 0), (1, 1)))
        # Nothing ready was left behind: every surviving thread is stuck
        # in a call, and each object still buffers the unanswered call.
        for threads in result.final.cs.values():
            for thr in threads.values():
                assert thr.status is ThreadStatus.WAITING
        assert all(len(q) == 1 for q in result.final.es.values())

    def test_step_limit(self, prodcons_model):
        result = run_model(prodcons_model, max_steps=10)
        assert result.halt == StepLimit()
        assert result.time == 10

    def test_a_negative_step_limit_is_rejected(self, prodcons_model):
        cfg = buffer_config()
        with pytest.raises(ValueError, match="max_steps -1 is negative"):
            run({}, 0, cfg, empty_state(), max_steps=-1)
        with pytest.raises(ValueError, match="max_steps -3 is negative"):
            run_model(prodcons_model, max_steps=-3)
        assert run_model(prodcons_model, max_steps=0).halt == StepLimit()

    def test_progress_drains_every_thread(self, prodcons_model):
        from smm import validate_state
        from smm.frontend import build_config
        result = run_model(prodcons_model, runnables="conc", scheduler="rr")
        assert all(not threads for threads in result.final.cs.values())
        assert all(queue == () for queue in result.final.es.values())
        assert validate_state(result.final, build_config(prodcons_model)) \
            == []

    def test_time_counts_exec_invocations(self, prodcons_model):
        steps = []
        result = run_model(prodcons_model, runnables="conc", scheduler="rr",
                           on_step=lambda *a: steps.append(a))
        assert result.time == len(steps)
        assert [t for t, *_ in steps] == list(range(result.time))

    def test_determinism_bit_identical(self, prodcons_model):
        a = run_model(prodcons_model, runnables="conc", scheduler="prio")
        b = run_model(prodcons_model, runnables="conc", scheduler="prio")
        assert a == b

    def test_every_intermediate_state_validates(self, prodcons_model):
        # Drive the scheduling loop by hand through the public pieces and
        # check the cross-store invariants after every single step; the
        # manual loop must also land on the same result as run().
        from smm import validate_state
        from smm.frontend import build_config
        cfg = build_config(prodcons_model, runnables="conc", scheduler="rr")
        s = build_initial_state(cfg, prodcons_model.setup)
        assert validate_state(s, cfg) == []
        times: dict[int, int] = {}
        t = 0
        while True:
            entries, reserved = collect_runnables(cfg.runnables_sel, s, times,
                                                  {}, s.ds)
            if not entries:
                break
            oid, tid = cfg.scheduler(t, entries)
            s, _, _, _ = step(s, cfg, oid, tid, reserved.get(tid))
            problems = validate_state(s, cfg)
            assert problems == [], f"step {t}: {problems}"
            times[tid] = t
            t += 1
        reference = run_model(prodcons_model, runnables="conc", scheduler="rr")
        assert t == reference.time
        assert s == reference.final

    def test_object_ids_never_reused(self, prodcons_model):
        from conftest import buffer_class
        result = run_model(prodcons_model, runnables="conc", scheduler="rr")
        _, oid = alloc_object(result.final, buffer_class())
        assert oid == 4

    def test_handler_threads_record_their_creation_step(self, prodcons_model):
        # The first record of a materialized handler is its creation step;
        # from then on its entry is never "missing" for the schedulers.
        first_seen: dict[int, int] = {}
        order: list[tuple[int, int]] = []

        def hook(t, oid, tid, pc, action):
            first_seen.setdefault(tid, t)
            order.append((t, tid))

        run_model(prodcons_model, runnables="conc", scheduler="rr",
                  on_step=hook)
        handler_tids = [tid for tid in first_seen if tid > 2]
        assert handler_tids, "fixture run materialized no handlers"
        for tid in handler_tids:
            records = [t for t, x in order if x == tid]
            assert records[0] == first_seen[tid]


class TestRtcExclusion:
    @staticmethod
    def _buffer_windows(model, runnables):
        spans: dict[int, list[int]] = defaultdict(list)
        model_buf_oid = 3

        def hook(t, oid, tid, pc, action):
            if oid == model_buf_oid:
                spans[tid].append(t)

        run_model(model, runnables=runnables, scheduler="rr", on_step=hook)
        return [(min(ts), max(ts)) for ts in spans.values()]

    def test_rtc_buffer_activations_never_overlap(self, prodcons_model):
        windows = sorted(self._buffer_windows(prodcons_model, "rtc"))
        for (a_lo, a_hi), (b_lo, b_hi) in zip(windows, windows[1:]):
            assert a_hi < b_lo

    def test_conc_buffer_activations_do_overlap(self, prodcons_model):
        windows = sorted(self._buffer_windows(prodcons_model, "conc"))
        assert any(a_hi >= b_lo for (a_lo, a_hi), (b_lo, b_hi)
                   in zip(windows, windows[1:]))


class TestConservation:
    def test_calls_consumed_equal_returns_delivered(self, prodcons_model,
                                                    deadlock_model):
        from smm.frontend import build_config

        for model, runnables, scheduler in [
            (prodcons_model, "rtc", "rr"),
            (prodcons_model, "rtc", "prio"),
            (prodcons_model, "conc", "rr"),
            (prodcons_model, "conc", "prio"),
            (deadlock_model, "conc", "rr"),
        ]:
            delivered = Counter()

            def counting_medium(es, e, delivered=delivered):
                delivered[e.kind] += 1
                return deliver_reliable(es, e)

            cfg = replace(build_config(model, runnables=runnables,
                                       scheduler=scheduler),
                          medium=counting_medium)
            result = run_main(cfg, model.setup)
            assert result.halt == AllDone()
            pending = sum(len(q) for q in result.final.es.values())
            assert pending == 0
            # Every consumed call was answered: call handlers always carry a
            # caller reference and return to it exactly once.
            assert delivered[EventKind.CALL] == delivered[EventKind.RETURN]
            assert delivered[EventKind.CALL] > 0


class TestSignals:
    SOURCE = """
    class Target { attr hits: Int = 0; }
    class Sender { }

    op Target.ping(n: Int): Void {
      let d: Int = 0;
      loadparam d n;
      setattr hits d;
      return void;
    }

    op Sender.go(): Void {
      let t: Target = null;
      loadattr t tgt;
      let x: Int = 3;
      send t.ping(x) prio 2;
      return void;
    }

    setup {
      s: Sender active go prio 1 links [tgt];
      tgt: Target passive;
    }
    """

    def test_signal_is_handled_and_run_drains(self):
        model = parse_model(self.SOURCE)
        result = run_model(model)
        assert result.halt == AllDone()
        assert result.final.ds[1].attrs.get("hits") == IntVal(3)

    def test_sender_never_blocks_on_a_signal(self):
        model = parse_model(self.SOURCE)
        steps = []

        def hook(t, oid, tid, pc, action):
            steps.append((t, oid))

        run_model(model, on_step=hook)
        # The sender executes its full five-action body without a return
        # event ever existing, and the handler only starts after the send.
        sender_steps = [t for t, oid in steps if oid == 0]
        handler_steps = [t for t, oid in steps if oid == 1]
        assert len(sender_steps) == 5
        assert handler_steps and min(handler_steps) > sender_steps[3]


def _deep_source(depth: int, pings: int) -> str:
    """A ``depth``-deep chain whose root implements every operation. Two
    leaf objects each create a leaf, store it in a class-typed attribute
    and call it ``pings`` times with an argument."""
    leaf = f"L{depth}"
    lines = ["class L0 { }"]
    lines += [f"class L{i} extends L{i - 1} {{ }}" for i in range(1, depth)]
    lines += [f"class {leaf} extends L{depth - 1} {{ attr hits: Int = 0; "
              f"attr peer: {leaf} = null; }}",
              "op L0.ping(x: Int): Int { let d: Int = 0; loadparam d x; "
              "let v: Int = 0; loadattr v hits; add v v d; setattr hits v; "
              "return v; }",
              f"op L0.go(): Void {{ let t: {leaf} = null; new t {leaf}; "
              f"setattr peer t; let one: Int = 1; let z: Int = 0; "
              f"let k: Int = {pings}; let c: Bool = false;",
              "loop: call t.ping(one) -> r; sub k k one; eq c k z;",
              "ifnot c goto loop; return void; }",
              f"setup {{ a: {leaf} active go prio 1; "
              f"b: {leaf} active go prio 2; }}"]
    return "\n".join(lines) + "\n"


class TestStaticWork:
    def test_a_deep_chain_is_walked_once_per_class_not_per_dispatch(
            self, monkeypatch):
        from smm.frontend import build_config
        model = parse_model(_deep_source(100, 100))
        walk = smm.universe.super_chain
        walked = [0]

        def counting(cls, scl):
            walked[0] += 1
            return walk(cls, scl)

        for module in (smm.universe, smm.variation):
            monkeypatch.setattr(module, "super_chain", counting)
        result = run_main(build_config(model), model.setup)
        assert result.halt == AllDone()
        assert result.final.ds[2].attrs.get("hits") == IntVal(100)
        # The two starts and 200 calls dispatch, and both writes of
        # ``peer`` check a class-typed value: 204 walks without the memo.
        assert walked[0] <= len(model.classes)
