from __future__ import annotations

import copy
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, strategies as st

from smm import (
    ClassDef, Config, ExecError, IntVal, Message, MethodDef,
    OpSig, RecordVal, ReturnPayload, RunnableEntry, Thread, ThreadStatus,
    VOID, VOID_VAL, alloc_object, collect_runnables, consume_event,
    deliver_reliable,
    dispatch_single, empty_state, make_config, parse_model, print_model,
    run_model, schedule_prio, schedule_rr, super_chain,
)
from smm.actions import ReturnConst
from smm.cli import main as cli_main
from smm.frontend import build_config
from smm.state import CallPayload, make_event, update_thread
from smm.variation import (
    STATIC_ORDERS, VARIATION_POINTS, ConcRunnables, RtcRunnables,
)

from conftest import (
    GET_OP, PUT_OP, buffer_class, buffer_config, buffer_tables, get_method,
    put_method,
)

RTC = RtcRunnables()
CONC = ConcRunnables()
# The shared instances the table holds, which a Config built from names
# refers to.
RTC_SEL = VARIATION_POINTS["runnables"]["rtc"]
CONC_SEL = VARIATION_POINTS["runnables"]["conc"]


def _call_event(seq: int, receiver: int, prio: int = 1):
    msg = Message(9, 0, receiver,
                  CallPayload(GET_OP, RecordVal(), "r", prio))
    return make_event(msg, seq)


def _return_event(seq: int, receiver: int, tid: int):
    msg = Message(9, tid, receiver, ReturnPayload(IntVal(-1), "v"))
    return make_event(msg, seq)


def _collect(sel, s):
    """Every object's offers, each selector asked afresh."""
    return collect_runnables(sel, s, {}, {}, s.ds)


def _buffer_state():
    s, oid = alloc_object(empty_state(), buffer_class())
    return s, oid


def _with_thread(s, oid, tid, status=ThreadStatus.READY, prio=1):
    s = update_thread(s, oid, tid, Thread(prio, status, get_method()))
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
        assert _collect(RTC, s) == ([E(oid, s.next_tid, 1, -1)],
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
        assert _collect(CONC, s) == (
            [E(oid, 0, 2, -1), E(oid, s.next_tid, 1, -1)], {s.next_tid: call})

    def test_empty_object_offers_nothing(self):
        s, oid = _buffer_state()
        assert CONC(s, oid) == ([], [])

    def test_one_pseudo_per_buffered_event(self):
        s, oid = _buffer_state()
        e0, e1 = _call_event(0, oid, prio=1), _call_event(1, oid, prio=9)
        s = replace(s, es={oid: (e0, e1)}, next_seq=2)
        base = s.next_tid
        assert _collect(CONC, s) == (
            [E(oid, base, 1, -1), E(oid, base + 1, 9, -1)],
            {base: e0, base + 1: e1})

    def test_reserved_ids_distinct_across_objects(self):
        s, a = alloc_object(empty_state(), buffer_class())
        s, b = alloc_object(s, buffer_class())
        ea, eb = _call_event(0, a), _call_event(1, b)
        s = replace(s, es={a: (ea,), b: (eb,)}, next_seq=2)
        base = s.next_tid
        assert _collect(CONC, s) == (
            [E(a, base, 1, -1), E(b, base + 1, 1, -1)],
            {base: ea, base + 1: eb})

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


_ENTRIES = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 4), st.integers(-1, 6)),
                    min_size=1, max_size=12)


class TestStaticOrder:
    """The run loop picks by a bundled scheduler's static order in place
    of calling it, so the two must agree, and the order must agree with
    the schedulers' time-dependent definitions."""

    def test_every_bundled_scheduler_has_one(self):
        assert [f for f, _ in STATIC_ORDERS] == \
            list(VARIATION_POINTS["scheduler"].values())

    @given(_ENTRIES, st.integers(-1, 40))
    def test_a_pick_by_the_order_is_the_schedulers(self, raw, t):
        # Small ranges, so ties in every key component, and -1 times
        # (never run), are common.
        entries = [E(*e) for e in raw]
        for scheduler, order in STATIC_ORDERS:
            best = min(entries, key=lambda e: (order(e.prio, e.last_exec),
                                               e.oid, e.tid))
            assert scheduler(t, entries) == (best.oid, best.tid)
        least_recent = min(entries, key=lambda e: (e.last_exec, e.oid, e.tid))
        aged = min(entries, key=lambda e: (-(e.prio + (t - e.last_exec)),
                                           e.last_exec, e.oid, e.tid))
        assert schedule_rr(t, entries) == (least_recent.oid, least_recent.tid)
        assert schedule_prio(t, entries) == (aged.oid, aged.tid)


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

    # X extends C, D: lookup searches X, then C, then D.
    TWO_SUPERCLASSES = """
    class C { }
    class D { }
    class X extends C, D { }
    class Main { attr f: Int = 0; attr g: Int = 0; }
    op C.f(): Int { return 1; }
    op D.f(): Int { return 2; }
    op D.g(): Int { return 3; }
    op Main.go(): Void {
      let x: X = null;
      new x X;
      let r: Int = 0;
      call x.f() -> r;
      setattr f r;
      call x.g() -> r;
      setattr g r;
      return void;
    }
    setup { m: Main active go prio 1; }
    """

    def test_the_first_superclass_in_declaration_order_wins(self):
        result = run_model(parse_model(self.TWO_SUPERCLASSES))
        assert result.final.ds[0].attrs == RecordVal((("f", IntVal(1)),
                                                      ("g", IntVal(3))))

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


class TestConfigHierarchy:
    def test_built_once_per_config_and_not_a_field(self):
        classes, scl, mm = buffer_tables()
        cfg = make_config(classes, scl, mm)
        hierarchy = cfg.hierarchy
        assert cfg.hierarchy is hierarchy
        assert cfg == make_config(classes, scl, mm)
        # A replaced config has its own hierarchy, of its own tables.
        sub = ClassDef("Special", ())
        wider = replace(cfg, class_table={**classes, "Special": sub},
                        subclass_rel={"Special": ("Buffer",)})
        assert wider != cfg and wider.hierarchy is not hierarchy
        assert wider.hierarchy.chain("Special") == ("Special", "Buffer")
        assert hierarchy.chain("Special") is None


class TestConfigValue:
    def test_fields_stored_by_position_and_keyword_and_frozen(self):
        classes, scl, mm = buffer_tables()
        by_name = make_config(classes, scl, mm)
        args = [getattr(by_name, f.name) for f in fields(Config)]
        for cfg in (Config(*args),
                    Config(**{f.name: getattr(by_name, f.name)
                              for f in fields(Config)})):
            assert cfg == by_name
            assert repr(cfg) == repr(by_name)
            for f in fields(Config):
                with pytest.raises(FrozenInstanceError):
                    setattr(cfg, f.name, None)

    def test_a_copied_selector_shares_no_attribute_with_the_original(self):
        clone = copy.copy(RTC_SEL)
        assert type(clone) is RtcRunnables and clone is not RTC_SEL
        clone.pending_handler_events = lambda s, oid: []
        assert "pending_handler_events" not in vars(RTC_SEL)
        s, _ = _buffer_state()
        assert clone(s, 0) == RTC_SEL(s, 0)


class TestMethodMemo:
    NOPE = OpSig("nope", (), VOID)

    def _two_buffers(self):
        s, a = alloc_object(empty_state(), buffer_class())
        s, b = alloc_object(s, buffer_class())
        return s, a, b

    def test_not_a_field_and_equality_unchanged(self):
        classes, scl, mm = buffer_tables()
        cfg = make_config(classes, scl, mm)
        s, a, _ = self._two_buffers()
        assert cfg.method(s.ds, a, GET_OP) is mm["Buffer"][GET_OP]
        assert cfg.methods == {("Buffer", GET_OP): mm["Buffer"][GET_OP]}
        assert "methods" not in {f.name for f in fields(Config)}
        assert cfg == make_config(classes, scl, mm)
        assert replace(cfg).methods == {}

    def test_a_replaced_dispatcher_is_asked_once_per_class_and_op(self):
        asked = []

        def dispatcher(scl, mm, ds, oid, op):
            asked.append((ds[oid].class_name, op))
            return dispatch_single(scl, mm, ds, oid, op)

        classes, scl, mm = buffer_tables()
        cfg = replace(make_config(classes, scl, mm), dispatcher=dispatcher)
        s, a, b = self._two_buffers()
        for oid in (a, b, a, b):
            for op in (GET_OP, PUT_OP):
                assert cfg.method(s.ds, oid, op) is mm["Buffer"][op]
        assert asked == [("Buffer", GET_OP), ("Buffer", PUT_OP)]

    def test_a_failing_dispatch_raises_for_its_object_every_time(self):
        cfg = buffer_config()
        s, a, b = self._two_buffers()
        for oid in (a, b, a):
            with pytest.raises(ExecError) as err:
                cfg.method(s.ds, oid, self.NOPE)
            assert str(err.value) == (f"no class of 'Buffer' implements "
                                      f"{self.NOPE} [oid={oid}]")
        assert cfg.methods == {}

    def test_a_failing_handler_dispatch_names_its_object(self):
        cfg = buffer_config()
        s, a, b = self._two_buffers()
        for seq, oid in enumerate((a, b, a)):
            msg = Message(9, 0, oid, CallPayload(self.NOPE, RecordVal(), "r",
                                                 1))
            event = make_event(msg, seq)
            queued = replace(s, es=deliver_reliable(s.es, event),
                             next_seq=seq + 1)
            with pytest.raises(ExecError, match=rf"\[oid={oid}\]$"):
                consume_event(queued, cfg, oid, s.next_tid, event)


class TestChoices:
    """A model's choices are one mapping from variation point to strategy
    name, from the config block through ``build_config`` and ``run_model``
    to ``make_config``."""

    def test_every_point_defaults_to_the_first_strategy_in_its_table(self):
        cfg = buffer_config()
        firsts = {point: next(iter(table.values()))
                  for point, table in VARIATION_POINTS.items()}
        assert (cfg.runnables_sel, cfg.scheduler, cfg.dispatcher,
                cfg.medium) == tuple(firsts.values())
        assert parse_model("class A { }").config == {
            point: next(iter(table)) for point, table in
            VARIATION_POINTS.items()}

    def test_a_flag_beats_the_config_block_and_none_keeps_it(
            self, prodcons_model):
        assert prodcons_model.config["runnables"] == "conc"
        assert build_config(prodcons_model).runnables_sel is CONC_SEL
        assert build_config(prodcons_model,
                            runnables="rtc").runnables_sel is RTC_SEL
        kept = build_config(prodcons_model, runnables=None, scheduler="prio")
        assert kept.runnables_sel is CONC_SEL
        assert kept.scheduler is schedule_prio

    @pytest.mark.parametrize("entry", ["make_config", "build_config",
                                       "run_model"])
    def test_a_misspelled_point_is_a_type_error(self, prodcons_model, entry):
        call = {
            "make_config": lambda **kw: make_config(*buffer_tables(), **kw),
            "build_config": lambda **kw: build_config(prodcons_model, **kw),
            "run_model": lambda **kw: run_model(prodcons_model, **kw),
        }[entry]
        for name in ("prio", None):
            with pytest.raises(TypeError, match="'schedular'"):
                call(schedular=name)

    @pytest.mark.parametrize("entry", ["make_config", "build_config"])
    def test_the_first_unknown_name_in_point_order_raises(
            self, prodcons_model, entry):
        call = {
            "make_config": lambda **kw: make_config(*buffer_tables(), **kw),
            "build_config": lambda **kw: build_config(prodcons_model, **kw),
        }[entry]
        with pytest.raises(ExecError, match=r"^unknown scheduler strategy "
                           r"'later'; choose from \['prio', 'rr'\]$"):
            call(medium="lossy", scheduler="later")
        with pytest.raises(ExecError, match="^unknown medium strategy"):
            call(medium="lossy", scheduler=None)

    def test_a_model_config_with_an_unknown_name_raises(self, prodcons_model):
        model = replace(prodcons_model,
                        config={**prodcons_model.config, "runnables": "eager"})
        with pytest.raises(ExecError, match="^unknown runnables strategy"):
            build_config(model)
        assert build_config(model, runnables="rtc").runnables_sel is RTC_SEL

    def test_an_added_strategy_needs_no_other_edit(self, monkeypatch,
                                                   tmp_path, capsys):
        def schedule_newest(t, entries):
            best = max(entries, key=lambda e: (e.last_exec, e.oid, e.tid))
            return best.oid, best.tid

        monkeypatch.setitem(VARIATION_POINTS["scheduler"], "newest",
                            schedule_newest)
        source = ("class A { }\nop A.go(): Void { return void; }\n"
                  "setup { a: A active go prio 1; }\n"
                  "config { scheduler: newest; }\n")
        model = parse_model(source)
        assert model.config["scheduler"] == "newest"
        assert "  scheduler: newest;\n" in print_model(model)
        assert parse_model(print_model(model)) == model
        assert build_config(model).scheduler is schedule_newest
        assert build_config(parse_model("class A { }"),
                            scheduler="newest").scheduler is schedule_newest
        path = tmp_path / "newest.smm"
        path.write_text("class A { }\nop A.go(): Void { return void; }\n"
                        "setup { a: A active go prio 1; }\n")
        assert cli_main(["run", str(path), "--scheduler", "newest"]) == 0
        assert capsys.readouterr().out == "attributes:\nA(id 0): []\ntime: 1\n"
