#!/usr/bin/env python3
"""Step-throughput benchmark for smm: end-to-end metrics and a traced
per-layer split, on four seeded, generated workloads.

    python3 perfbench/run.py --workload wide --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload deep --seed 3 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke            # every workload and config, tiny
    python3 perfbench/run.py --record-digests   # rewrite perfbench/digests.json

Run it from anywhere; it imports ``smm`` from the ``src`` directory next to
this one and nowhere else. With ``--trace 0`` it times the public entry
points a user calls (``load_model`` -> ``build_config`` ->
``build_initial_state`` -> ``vm.run``, and ``smm run`` as a subprocess)
with tracing off. With ``--trace 1`` it makes the traced pass described in
``tracing.py``. Either way every run is checked against expectations worked
out by hand from the seed and against the digests in ``digests.json``; the
last line of standard output is one JSON object with the result. See
README.md in this directory for the metrics.

The process is single-threaded; the one subprocess it starts (the CLI)
runs one at a time and is always reaped before the next starts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

sys.path.insert(0, str(BENCH_DIR))
import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import CONFIGS, WORKLOADS, digest, final_digest  # noqa: E402

# The seed whose digests digests.json records, for all four configs.
REFERENCE_SEED = 1
CLI_TIMEOUT_S = 120
# Shares of --seconds spent on each timed phase, and the least number of
# repetitions of each whatever the budget.
SETUP_SHARE, RUN_SHARE, CLI_SHARE = 0.1, 0.55, 0.35
MIN_SETUP_REPS, MIN_RUN_REPS, MIN_CLI_REPS = 3, 2, 1


def import_smm():
    """smm from this checkout's src directory; exit 2 when it is absent."""
    if not (SRC / "smm" / "__init__.py").is_file():
        print(f"perfbench: no smm sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import smm  # noqa: F401
    import smm.cli
    import smm.frontend
    import smm.vm
    if Path(smm.__file__).resolve().parent != SRC / "smm":
        print(f"perfbench: imported smm from {smm.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return smm


class Checks:
    """Runs attempted and runs failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems

    def guard(self, label: str, fn, *args, **kwargs):
        """``fn(*args)``; an exception counts as one failed run."""
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # any exception is a failed run
            self.record(label, [f"{type(err).__name__}: {err}"])
            return None


# --- runs of the program -----------------------------------------------------

def config_name(runnables: str, scheduler: str) -> str:
    return f"{runnables}/{scheduler}"


def library_run(smm, path, *, hook: bool, overrides=None):
    """One run through the public entry points; (result, final, trace)."""
    model = smm.frontend.load_model(path)
    cfg = smm.frontend.build_config(model, **(overrides or {}))
    s0 = smm.vm.build_initial_state(cfg, model.setup)
    records: list = []
    on_step = smm.frontend.trace_recorder(records) if hook else None
    result = smm.vm.run({}, 0, cfg, s0, on_step=on_step)
    final = smm.frontend.render_final_state(result, "structured")
    return result, final, smm.frontend.render_trace(records) if hook else None


def expectation_problems(gen, final: str, runnables: str,
                         trace: str | None = None) -> list[str]:
    problems = gen.check(json.loads(final), runnables)
    if trace is not None:
        lines = trace.count("\n") + 1 if trace else 0
        if lines != gen.steps:
            problems.append(f"{lines} trace lines, expected {gen.steps}")
    return problems


def digest_problems(entry: dict | None, final: str,
                    trace: str | None) -> list[str]:
    if entry is None:
        return ["no recorded digest"]
    if trace is None:
        got, want = final_digest(final), entry["final"]
    else:
        got, want = digest(final, trace), entry["run"]
    return [] if got == want else [f"digest {got[:12]}, recorded {want[:12]}"]


def check_reference(smm, checks: Checks, digests: dict, wl, tmp: Path,
                    size: str, configs) -> None:
    """Runs of the reference seed against its recorded digests."""
    entries = digests.get("workloads", {}).get(wl.name, {}).get(size, {})
    gen = wl.generate(REFERENCE_SEED, size)
    path = tmp / f"ref-{size}.smm"
    path.write_text(gen.text, encoding="utf-8")
    for runnables, scheduler in configs:
        name = config_name(runnables, scheduler)
        label = f"{wl.name} {size} seed {REFERENCE_SEED} {name}"
        out = checks.guard(label, library_run, smm, path, hook=True,
                           overrides={"runnables": runnables,
                                      "scheduler": scheduler})
        if out is not None:
            _, final, trace = out
            checks.record(label, expectation_problems(gen, final, runnables,
                                                      trace)
                          + digest_problems(entries.get(name), final, trace))


class Launcher:
    """``launcher.py`` as a subprocess that starts the CLI runs one at a
    time; see there for why. Pinned to the CPUs of the process that starts
    it, like its children."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        try:
            line = self.proc.stdout.readline()
        except BaseException:
            # The launcher kills its child and still answers.
            self.proc.terminate()
            self.proc.stdout.readline()
            raise
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return json.loads(line)

    def __exit__(self, *exc) -> bool:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        return False


def cli_run(model: Path, tmp: Path, launcher: Launcher, sampler):
    """``python -m smm.cli run MODEL --trace --format structured --out F`` as
    a subprocess; (exit code, wall seconds, peak RSS MiB, final, trace,
    stderr). The active ``sampler`` keeps sampling host speed while this
    process waits, and its time is taken out of the wall time."""
    out, stdout, stderr = tmp / "cli-final.json", tmp / "cli.out", \
        tmp / "cli.err"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "smm.cli", "run", str(model), "--trace",
           "--format", "structured", "--out", str(out)]
    busy = sampler.busy
    res = launcher.run({"cmd": cmd, "cwd": str(ROOT), "env": env,
                        "stdout": str(stdout), "stderr": str(stderr),
                        "timeout": CLI_TIMEOUT_S})
    wall = res["wall_s"] - (sampler.busy - busy)
    final = out.read_text(encoding="utf-8") if out.exists() else ""
    trace = stdout.read_text(encoding="utf-8")
    # The CLI ends each rendering with a newline.
    return (res["code"], wall, res["maxrss_kib"] / 1024.0,
            final[:-1], trace[:-1], stderr.read_text(encoding="utf-8"))


def cli_problems(gen, code: int, final: str, trace: str, err: str,
                 runnables: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {err.strip()[:200]}"]
    problems = [f"stderr: {err.strip()[:200]}"] if err else []
    try:
        return problems + expectation_problems(gen, final, runnables, trace)
    except json.JSONDecodeError as e:
        return problems + [f"final state is not JSON: {e}"]


# --- the timed pass -------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(sampler, rep, budget: float, min_reps: int, block_s: float):
    """Repeat ``rep`` (which returns the seconds it measured, or None when it
    failed) for ``budget`` seconds, in blocks of at least ``block_s``
    seconds, while ``sampler`` samples host speed.

    Returns (measured seconds, seconds scaled to the reference host) for
    each repetition; a block is scaled by the kernel calls sampled during it.
    """
    out: list[tuple[float, float]] = []
    deadline = time.perf_counter() + budget
    while len(out) < min_reps or time.perf_counter() < deadline:
        first = len(sampler.durations)
        block = []
        start = time.perf_counter()
        while not block or time.perf_counter() - start < block_s:
            seconds = rep()
            if seconds is None:
                return out
            block.append(seconds)
        if len(sampler.durations) == first:
            sampler.sample()
        durations = sampler.durations[first:]
        out += [(t, calibration.scale(t, durations)) for t in block]
    return out


def timed_pass(smm, wl, seed: int, seconds: float, tmp: Path, digests: dict,
               checks: Checks) -> dict:
    gen = wl.generate(seed)
    path = tmp / "model.smm"
    path.write_text(gen.text, encoding="utf-8")
    entry = None
    if seed == REFERENCE_SEED:
        entry = digests.get("workloads", {}).get(wl.name, {}).get(
            "full", {}).get(config_name(wl.runnables, wl.scheduler))
    # Four-config digests at the smoke size; this also warms the process.
    check_reference(smm, checks, digests, wl, tmp, "smoke", CONFIGS)

    fe, vm = smm.frontend, smm.vm
    sampler = calibration.Sampler()
    model = fe.load_model(path)
    cfg = fe.build_config(model)
    finals: set[str] = set()
    traces: set[str] = set()
    rss: list[float] = []

    def setup_rep():
        gc.collect()
        busy = sampler.busy
        t0 = time.perf_counter()
        m = fe.load_model(path)
        vm.build_initial_state(fe.build_config(m), m.setup)
        return time.perf_counter() - t0 - (sampler.busy - busy)

    def run_rep():
        s0 = vm.build_initial_state(cfg, model.setup)
        gc.collect()
        busy = sampler.busy
        t0 = time.perf_counter()
        result = checks.guard("timed run", vm.run, {}, 0, cfg, s0)
        dt = time.perf_counter() - t0 - (sampler.busy - busy)
        if result is None:
            return None
        final = fe.render_final_state(result, "structured")
        finals.add(final)
        problems = expectation_problems(gen, final, wl.runnables)
        if result.time != gen.steps:
            problems.append(f"RunResult.time is {result.time}")
        if seed == REFERENCE_SEED:
            problems += digest_problems(entry, final, None)
        checks.record("timed run", problems)
        return dt

    def cli_rep():
        out = checks.guard("cli run", cli_run, path, tmp, launcher, sampler)
        if out is None:
            return None
        code, wall, peak, final, trace, err = out
        rss.append(peak)
        traces.add(trace)
        problems = cli_problems(gen, code, final, trace, err, wl.runnables)
        if code == 0 and finals and final not in finals:
            problems.append("final state differs from the library run's")
        if code == 0 and seed == REFERENCE_SEED:
            problems += digest_problems(entry, final, trace)
        checks.record("cli run", problems)
        return wall

    # One CPU for this process and the CLI children it starts; see
    # calibration.py.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with sampler, Launcher() as launcher:
            setup = repeat(sampler, setup_rep, SETUP_SHARE * seconds,
                           MIN_SETUP_REPS, 0.25)
            runs = repeat(sampler, run_rep, RUN_SHARE * seconds,
                          MIN_RUN_REPS, 0.0)
            clis = repeat(sampler, cli_rep, CLI_SHARE * seconds,
                          MIN_CLI_REPS, 0.0)
    finally:
        os.sched_setaffinity(0, cpus)
    if len(finals) > 1:
        checks.record("timed runs", ["final states differ between runs"])
    if len(traces) > 1:
        checks.record("cli runs", ["traces differ between runs"])
    return {"steps": gen.steps,
            "steps_per_s": [(gen.steps / t, gen.steps / r) for t, r in runs],
            "setup_s": setup, "cli_s": clis,
            "peak_rss_mb": [(m, m) for m in rss]}


# --- the traced pass --------------------------------------------------------------

def traced_library_pass(smm, path, pass_id: int):
    """load -> config -> initial state -> run with every layer traced, all
    inside one root span; (tracer, final state)."""
    fe, vm = smm.frontend, smm.vm

    def body():
        model = fe.load_model(path)
        cfg = fe.build_config(model)
        return vm.run({}, 0, cfg, vm.build_initial_state(cfg, model.setup))

    tracer = tracing.Tracer(pass_id)
    gc.collect()
    with tracer:
        result = tracer.span("pass", body)()
    return tracer, fe.render_final_state(result, "structured")


def coverage_problems(tracer) -> list[str]:
    """The reported self-time metrics must account for the pass's wall
    time; what they leave out is the pass's glue and ``build_config``."""
    metrics = tracer.metrics()
    share = sum(metrics[k] for k in tracing.SELF_TIME_METRICS) / \
        tracer.duration("pass")
    return [] if share >= 0.98 else \
        [f"reported self times cover {share:.3f} of the pass"]


def traced_cli_pass(smm, path, tmp: Path, pass_id: int):
    """``smm.cli.main`` in this process, every layer traced."""
    tracer = tracing.Tracer(pass_id)
    out = tmp / "traced-final.json"
    stdout = io.StringIO()
    gc.collect()
    with tracer, contextlib.redirect_stdout(stdout):
        code = tracer.span("cli.main", smm.cli.main)(
            ["run", str(path), "--trace", "--format", "structured", "--out",
             str(out)])
    final = out.read_text(encoding="utf-8")[:-1] if out.exists() else ""
    return tracer, code, final, stdout.getvalue()[:-1]


def traced(smm, wl, seed: int, tmp: Path, digests: dict,
           checks: Checks) -> dict:
    gen = wl.generate(seed)
    path = tmp / "model.smm"
    path.write_text(gen.text, encoding="utf-8")
    check_reference(smm, checks, digests, wl, tmp, "smoke", CONFIGS)
    check_reference(smm, checks, digests, wl, tmp, "full",
                    [(wl.runnables, wl.scheduler)])

    # Untraced runs: the wall time the traced pass is compared with, and
    # the digests the traced runs must reproduce.
    model = smm.frontend.load_model(path)
    cfg = smm.frontend.build_config(model)
    s0 = smm.vm.build_initial_state(cfg, model.setup)
    gc.collect()
    t0 = time.perf_counter()
    result = smm.vm.run({}, 0, cfg, s0)
    untraced_run = time.perf_counter() - t0
    final = smm.frontend.render_final_state(result, "structured")
    checks.record("untraced run",
                  expectation_problems(gen, final, wl.runnables))
    _, hooked_final, hooked_trace = library_run(smm, path, hook=True)
    checks.record("untraced run with trace",
                  expectation_problems(gen, hooked_final, wl.runnables,
                                       hooked_trace))

    tracers = []
    for pass_id in (1, 2):
        tracer, traced_final = traced_library_pass(smm, path, pass_id)
        tracers.append(tracer)
        problems = [] if traced_final == final else \
            ["final state differs from the untraced run's"]
        checks.record(f"traced pass {pass_id}", problems)
    first, second = tracers
    m1, m2 = first.metrics(), second.metrics()
    checks.record("count repeat", [
        f"{k}: {m1[k]} then {m2[k]}" for k in tracing.COUNT_METRICS
        if m1[k] != m2[k]])
    checks.record("self-time coverage", coverage_problems(first))

    cli_tracer, code, cli_final, cli_trace = traced_cli_pass(smm, path, tmp, 3)
    problems = cli_problems(gen, code, cli_final, cli_trace, "", wl.runnables)
    if code == 0 and digest(cli_final, cli_trace) != \
            digest(hooked_final, hooked_trace):
        problems.append("traced CLI digest differs from the untraced run's")
    checks.record("traced cli pass", problems)

    OUT_DIR.mkdir(exist_ok=True)
    tracing.write_spans(OUT_DIR / f"spans-{wl.name}.jsonl.gz",
                        (first, second, cli_tracer))

    metrics = dict(m1)
    cli_metrics = cli_tracer.metrics()
    for name in ("frontend.trace_hook_s", "frontend.render_trace_s",
                 "frontend.render_final_state_s", "cli.main_s"):
        metrics[name] = cli_metrics[name]
    metrics["tracing_overhead"] = first.duration("vm.run") / untraced_run
    metrics["pass_wall_s"] = first.duration("pass")
    return metrics


# --- output --------------------------------------------------------------------------

def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def result_line(checks: Checks, metrics: dict, spec_metrics) -> str:
    return json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in spec_metrics},
    })


def report_timed(wl, seed: int, raw: dict, checks: Checks) -> dict:
    print(f"workload {wl.name} ({wl.runnables}/{wl.scheduler}), seed {seed}, "
          f"{raw['steps']} steps per run")
    units = {"steps_per_s": "steps/s", "setup_s": "s", "cli_s": "s",
             "peak_rss_mb": "MiB"}
    metrics = {}
    for name, unit in units.items():
        pairs = raw[name]
        if not pairs:
            continue
        q1, med, q3 = quartiles([scaled for _, scaled in pairs])
        measured = statistics.median(m for m, _ in pairs)
        metrics[name] = med
        print(f"  {name:<14} {med:12.4f} {unit:<8} median of {len(pairs)}, "
              f"quartiles {q1:.4f} .. {q3:.4f}; unscaled median "
              f"{measured:.4f}")
    fail_ratio = checks.failed / max(checks.attempted, 1)
    metrics["pass_ratio"] = 1.0 - fail_ratio
    print(f"  {'fail_ratio':<14} {fail_ratio:12.4f} {'ratio':<8} "
          f"{checks.failed} of {checks.attempted} runs failed a check")
    return metrics


def report_traced(wl, seed: int, metrics: dict, spec_metrics) -> None:
    wall = metrics["pass_wall_s"]
    print(f"workload {wl.name} ({wl.runnables}/{wl.scheduler}), seed {seed}, "
          f"traced library pass {wall:.3f} s")
    for m in spec_metrics:
        value = metrics.get(m["name"], 0.0)
        share = ""
        if m["unit"] == "s" and m["name"] not in (
                "frontend.trace_hook_s", "frontend.render_trace_s",
                "frontend.render_final_state_s", "cli.main_s"):
            share = f"{100 * value / wall:6.1f}% of the pass"
        print(f"  {m['name']:<40} {value:14.6f} {m['unit']:<6} {share}")


def print_problems(checks: Checks) -> None:
    for p in checks.problems[:50]:
        print(f"perfbench: FAILED {p}", file=sys.stderr)


# --- modes -------------------------------------------------------------------------------

def run_workload(args) -> int:
    smm = import_smm()
    spec = bench_spec()
    wl = WORKLOADS[args.workload]
    digests = load_digests()
    checks = Checks()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        if args.trace:
            metrics = checks.guard("traced pass", traced, smm, wl, args.seed,
                                   tmp, digests, checks) or {}
            report_traced(wl, args.seed, metrics, spec["per_layer"])
            spec_metrics = spec["per_layer"]
        else:
            raw = timed_pass(smm, wl, args.seed, args.seconds, tmp, digests,
                             checks)
            metrics = report_timed(wl, args.seed, raw, checks)
            spec_metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print_problems(checks)
    print(result_line(checks, metrics, spec_metrics))
    return 0 if checks.failed == 0 else 1


def smoke(args) -> int:
    """Every workload under every config at the smoke size, the CLI and the
    traced pass included; takes seconds."""
    smm = import_smm()
    digests = load_digests()
    checks = Checks()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="smoke-", dir=OUT_DIR))
    try:
        for wl in WORKLOADS.values():
            check_reference(smm, checks, digests, wl, tmp, "smoke", CONFIGS)
            gen = wl.generate(args.seed, "smoke")
            path = tmp / "model.smm"
            path.write_text(gen.text, encoding="utf-8")
            with calibration.Sampler() as sampler, Launcher() as launcher:
                out = checks.guard("cli run", cli_run, path, tmp, launcher,
                                   sampler)
            if out is not None:
                code, _, _, final, trace, err = out
                checks.record(f"{wl.name} cli run", cli_problems(
                    gen, code, final, trace, err, wl.runnables))
            _, final, _ = library_run(smm, path, hook=False)
            tracers = []
            for pass_id in (1, 2):
                tracer, traced_final = traced_library_pass(smm, path, pass_id)
                tracers.append(tracer)
                checks.record(f"{wl.name} traced pass", ([] if traced_final ==
                              final else ["final state differs"])
                              + coverage_problems(tracer))
            m1, m2 = (t.metrics() for t in tracers)
            checks.record(f"{wl.name} count repeat", [
                k for k in tracing.COUNT_METRICS if m1[k] != m2[k]])
            print(f"{wl.name:<11} {gen.steps:5d} steps, 4 configs, cli and "
                  f"traced pass checked")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print_problems(checks)
    print(f"smoke: {checks.attempted} runs, {checks.failed} failed")
    return 0 if checks.failed == 0 else 1


def record_digests(args) -> int:
    """Write digests.json from the program as it is now."""
    smm = import_smm()
    doc = {"seed": REFERENCE_SEED,
           "digest": "sha256 of render_final_state(result, 'structured') + "
                     "'\\n' + render_trace(records); 'final' covers the "
                     "final state alone",
           "workloads": {}}
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=OUT_DIR))
    try:
        for wl in WORKLOADS.values():
            per_size = doc["workloads"].setdefault(wl.name, {})
            for size in ("full", "smoke"):
                gen = wl.generate(REFERENCE_SEED, size)
                path = tmp / "model.smm"
                path.write_text(gen.text, encoding="utf-8")
                for runnables, scheduler in CONFIGS:
                    _, final, trace = library_run(
                        smm, path, hook=True,
                        overrides={"runnables": runnables,
                                   "scheduler": scheduler})
                    problems = expectation_problems(gen, final, runnables,
                                                    trace)
                    if problems:
                        print(f"perfbench: {wl.name} {size} {runnables}/"
                              f"{scheduler}: {problems}", file=sys.stderr)
                        return 1
                    per_size.setdefault(size, {})[
                        config_name(runnables, scheduler)] = {
                        "final": final_digest(final),
                        "run": digest(final, trace)}
                print(f"{wl.name} {size}: recorded", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="all workloads and configs at a tiny size")
    mode.add_argument("--record-digests", action="store_true",
                      help="rewrite digests.json from the current program")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.record_digests:
        return record_digests(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
