"""The traced pass: per-layer spans and counts, recorded from outside smm.

Nothing in ``smm`` knows about tracing. For the duration of one pass a
``Tracer`` rebinds module attributes of ``smm.vm``, ``smm.actions``,
``smm.frontend``, ``smm.universe``, ``smm.variation`` and ``smm.cli`` to
wrappers, and wraps the four strategies of each ``Config`` through
``dataclasses.replace`` (the extension point the README documents). Every
rebinding is undone when the pass ends.

Per-step layer calls become spans (name, start, end, parent, pass id) kept
in flat arrays, so millions of records cost no garbage-collector work. The
hot inner calls (``pending_handler_events``, ``super_chain``) are too many
for spans; they keep only a call count and summed time.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import gzip
import json
import time
from array import array

# Span names, in the order their codes are assigned.
SPAN_NAMES = (
    "pass", "cli.main", "frontend.load_model", "universe.validate_model",
    "frontend.build_config", "vm.build_initial_state", "vm.run_main",
    "vm.run", "vm.collect_runnables", "vm.add_last_exec_info",
    "variation.scheduler", "vm.consume_event", "state.take_matching_event",
    "state.update_thread", "variation.dispatch", "actions.interpret",
    "variation.medium", "frontend.trace_hook", "frontend.render_trace",
    "frontend.render_final_state",
)
_CODE = {name: i for i, name in enumerate(SPAN_NAMES)}

# Metrics that are counts of work; they must repeat exactly across two
# traced passes over the same input.
COUNT_METRICS = (
    "frontend.super_chain_calls", "variation.runnables_calls",
    "variation.pending_handler_events_calls", "variation.offers_mean",
    "variation.offers_max", "vm.events_consumed", "state.take_scanned_mean",
    "state.events_sent.call", "state.events_sent.signal",
    "state.events_sent.return", "state.queue_len_max",
    "state.threads_per_object_max", "variation.dispatch_calls",
    "universe.super_chain_calls", "actions.interpret_calls",
    "runtime.gc_collections",
)

# The reported self-time metrics of a library pass. With the pass's own
# glue and ``frontend.build_config``, which are not reported, they
# partition the pass's wall time.
SELF_TIME_METRICS = (
    "frontend.load_model_s", "universe.validate_model_s",
    "vm.build_initial_state_s", "vm.collect_runnables_s",
    "vm.add_last_exec_info_s", "variation.scheduler_s", "vm.consume_event_s",
    "state.take_matching_event_s", "variation.medium_s",
    "state.update_thread_s", "variation.dispatch_s", "actions.interpret_s",
    "vm.run_s",
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.codes = array("b")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.stack: list[int] = []
        # [calls, summed ns] cells for the hot calls, and plain counters.
        self.phe = [0, 0]
        self.chain = {"load": [0, 0], "runtime": [0, 0]}
        self.phase = "runtime"
        self.n = {"runnables": 0, "offers_sum": 0, "offers_max": 0,
                  "consumed": 0, "take_calls": 0, "take_scanned": 0,
                  "sent.call": 0, "sent.signal": 0, "sent.return": 0,
                  "queue_max": 0, "threads_max": 0, "dispatch": 0,
                  "gc_collections": 0, "gc_ns": 0}
        self._gc_start = 0
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs once the
        span has closed, so its cost is charged to the parent."""
        code = _CODE[name]
        codes, starts, ends, parents, stack = (
            self.codes, self.starts, self.ends, self.parents, self.stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @staticmethod
    def counted(cell: list, fn):
        """``fn`` with its calls and summed time added to ``cell``."""
        clock = time.perf_counter_ns

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            cell[1] += clock() - t0
            cell[0] += 1
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.n["gc_ns"] += time.perf_counter_ns() - self._gc_start
            self.n["gc_collections"] += 1

    # --- the rebinding ------------------------------------------------------

    def _rebind(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def traced_config(self, cfg):
        """``cfg`` with its four strategies wrapped."""
        n = self.n

        def offers(args, _result):
            k = len(args[1])
            n["offers_sum"] += k
            if k > n["offers_max"]:
                n["offers_max"] = k

        def dispatched(_args, _result):
            n["dispatch"] += 1

        def sent(args, result):
            event = args[1]
            n["sent." + event.kind.value] += 1
            k = len(result[event.msg.receiver])
            if k > n["queue_max"]:
                n["queue_max"] = k

        return dataclasses.replace(
            cfg,
            scheduler=self.span("variation.scheduler", cfg.scheduler, offers),
            dispatcher=self.span("variation.dispatch", cfg.dispatcher,
                                 dispatched),
            medium=self.span("variation.medium", cfg.medium, sent),
            runnables_sel=_TracedSelector(cfg.runnables_sel, self))

    def __enter__(self):
        import smm.actions
        import smm.cli
        import smm.frontend
        import smm.universe
        import smm.variation
        import smm.vm

        n = self.n
        vm, fe, cli = smm.vm, smm.frontend, smm.cli

        def consumed(args, result):
            if result is not args[0]:
                n["consumed"] += 1

        def taken(args, result):
            event = result[1]
            if event is not None:
                queue = args[0][args[1]]
                n["take_calls"] += 1
                n["take_scanned"] += next(
                    i for i, e in enumerate(queue) if e is event) + 1

        def thread_map(args, result):
            k = len(result.cs[args[1]])
            if k > n["threads_max"]:
                n["threads_max"] = k

        load = self.span("frontend.load_model", fe.load_model)

        def load_model(path):
            self.phase = "load"
            try:
                return load(path)
            finally:
                self.phase = "runtime"

        build_config = self.span("frontend.build_config", fe.build_config)

        def traced_build_config(*args, **kwargs):
            return self.traced_config(build_config(*args, **kwargs))

        trace_recorder = fe.trace_recorder

        def traced_recorder(records):
            return self.span("frontend.trace_hook", trace_recorder(records))

        update = self.span("state.update_thread", vm.update_thread, thread_map)
        render_trace = self.span("frontend.render_trace", fe.render_trace)
        render_final = self.span("frontend.render_final_state",
                                 fe.render_final_state)
        for module, attr, wrapper in (
                (fe, "load_model", load_model),
                (cli, "load_model", load_model),
                (fe, "validate_model", self.span("universe.validate_model",
                                                 fe.validate_model)),
                (fe, "build_config", traced_build_config),
                (cli, "build_config", traced_build_config),
                (fe, "trace_recorder", traced_recorder),
                (cli, "trace_recorder", traced_recorder),
                (fe, "render_trace", render_trace),
                (cli, "render_trace", render_trace),
                (fe, "render_final_state", render_final),
                (cli, "render_final_state", render_final),
                (cli, "run_main", self.span("vm.run_main", cli.run_main)),
                (vm, "build_initial_state",
                 self.span("vm.build_initial_state", vm.build_initial_state)),
                (vm, "run", self.span("vm.run", vm.run)),
                (vm, "collect_runnables",
                 self.span("vm.collect_runnables", vm.collect_runnables)),
                (vm, "add_last_exec_info",
                 self.span("vm.add_last_exec_info", vm.add_last_exec_info)),
                (vm, "consume_event",
                 self.span("vm.consume_event", vm.consume_event, consumed)),
                (vm, "take_matching_event",
                 self.span("state.take_matching_event",
                           vm.take_matching_event, taken)),
                (vm, "update_thread", update),
                (smm.actions, "update_thread", update),
                (vm, "interpret", self.span("actions.interpret",
                                            vm.interpret)),
        ):
            self._rebind(module, attr, wrapper)

        chain = smm.universe.super_chain
        cells = self.chain

        def super_chain(cls, scl):
            cell = cells[self.phase]
            t0 = time.perf_counter_ns()
            result = chain(cls, scl)
            cell[1] += time.perf_counter_ns() - t0
            cell[0] += 1
            return result

        for module in (smm.universe, smm.frontend, smm.variation):
            self._rebind(module, "super_chain", super_chain)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    # --- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the part its
        child spans cover."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for idx, code in enumerate(self.codes):
            out[SPAN_NAMES[code]] += own[idx] / 1e9
        return out

    def span_count(self, name: str) -> int:
        return self.codes.count(_CODE[name])

    def duration(self, name: str) -> float:
        """Summed inclusive seconds of all spans named ``name``."""
        code = _CODE[name]
        return sum(e - s for c, s, e in zip(self.codes, self.starts, self.ends)
                   if c == code) / 1e9

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics this pass measured, by name."""
        n, st = self.n, self.self_times()
        steps = self.span_count("variation.scheduler")
        out = {
            "frontend.load_model_s": st["frontend.load_model"],
            "universe.validate_model_s": st["universe.validate_model"],
            "frontend.super_chain_calls": self.chain["load"][0],
            "vm.build_initial_state_s": st["vm.build_initial_state"],
            "vm.collect_runnables_s": st["vm.collect_runnables"],
            "variation.runnables_calls": n["runnables"],
            "variation.pending_handler_events_calls": self.phe[0],
            "variation.pending_handler_events_s": self.phe[1] / 1e9,
            "variation.offers_mean": n["offers_sum"] / max(steps, 1),
            "variation.offers_max": n["offers_max"],
            "vm.add_last_exec_info_s": st["vm.add_last_exec_info"],
            "variation.scheduler_s": st["variation.scheduler"],
            "vm.consume_event_s": st["vm.consume_event"],
            "vm.events_consumed": n["consumed"],
            "state.take_matching_event_s": st["state.take_matching_event"],
            "state.take_scanned_mean":
                n["take_scanned"] / max(n["take_calls"], 1),
            "variation.medium_s": st["variation.medium"],
            "state.events_sent.call": n["sent.call"],
            "state.events_sent.signal": n["sent.signal"],
            "state.events_sent.return": n["sent.return"],
            "state.queue_len_max": n["queue_max"],
            "state.update_thread_s": st["state.update_thread"],
            "state.threads_per_object_max": n["threads_max"],
            "variation.dispatch_s": st["variation.dispatch"],
            "variation.dispatch_calls": n["dispatch"],
            "universe.super_chain_calls": self.chain["runtime"][0],
            "universe.super_chain_s": self.chain["runtime"][1] / 1e9,
            "actions.interpret_s": st["actions.interpret"],
            "actions.interpret_calls": self.span_count("actions.interpret"),
            "vm.run_s": st["vm.run"],
            "frontend.trace_hook_s": st["frontend.trace_hook"],
            "frontend.render_trace_s": st["frontend.render_trace"],
            "frontend.render_final_state_s": st["frontend.render_final_state"],
            "cli.main_s": st["cli.main"],
            "runtime.gc_s": n["gc_ns"] / 1e9,
            "runtime.gc_collections": n["gc_collections"],
        }
        return out

    def write(self, fh) -> None:
        """The spans as JSON lines on a gzip file handle."""
        for idx, code in enumerate(self.codes):
            fh.write(json.dumps({
                "name": SPAN_NAMES[code], "start_ns": self.starts[idx],
                "end_ns": self.ends[idx], "parent": self.parents[idx],
                "pass": self.pass_id}).encode() + b"\n")


class _TracedSelector:
    """A runnables selector that counts its calls and those of its
    ``pending_handler_events``, delegating the work to a private copy of
    the wrapped selector (the shared strategy instance stays untouched)."""

    def __init__(self, inner, tracer: Tracer):
        sel = copy.copy(inner)
        sel.pending_handler_events = Tracer.counted(
            tracer.phe, sel.pending_handler_events)
        self._sel = sel
        self._n = tracer.n
        self.name = inner.name

    def __call__(self, s, oid):
        self._n["runnables"] += 1
        return self._sel(s, oid)

    def pseudo_entries(self, s, oid):
        return self._sel.pseudo_entries(s, oid)


def write_spans(path, tracers) -> None:
    with gzip.open(path, "wb", compresslevel=1) as fh:
        for tracer in tracers:
            tracer.write(fh)
