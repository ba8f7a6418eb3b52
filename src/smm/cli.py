"""Command line front door: load a model file, run it, print the outcome.

    smm run MODEL.smm [--runnables rtc|conc] [--scheduler rr|prio]
                      [--dispatch single] [--medium reliable]
                      [--max-steps N] [--trace] [--format text|structured]
                      [--out FILE]

Flags override the model file's config block. Exit codes: 0 when the run
drains completely, 2 when it blocks on unanswerable calls, 3 when the step
limit cuts it off, 4 for model validation errors, 5 for model-level runtime
errors, 64 for usage errors and for an ``--out`` FILE that cannot be
written, 130 when the run is interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ExecError, ModelError
from .frontend import (
    TraceRecord, build_config, load_model, render_final_state, render_trace,
    trace_recorder,
)
from .variation import VARIATION_POINTS
from .vm import AllDone, Blocked, StepLimit, run_main

EXIT_OK = 0
EXIT_BLOCKED = 2
EXIT_STEP_LIMIT = 3
EXIT_VALIDATION = 4
EXIT_RUNTIME = 5
EXIT_USAGE = 64
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as shells report it


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="simulate a model file")
    run.add_argument("file", help="model source (.smm)")
    for point, table in VARIATION_POINTS.items():
        run.add_argument(f"--{point}", choices=list(table))
    run.add_argument("--max-steps", type=int, metavar="N")
    run.add_argument("--trace", action="store_true",
                     help="print one line per executed step")
    run.add_argument("--format", choices=["text", "structured"], default="text")
    run.add_argument("--out", metavar="FILE",
                     help="write the final state here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_steps is not None and args.max_steps < 0:
            parser.error(f"argument --max-steps: {args.max_steps} is negative")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        model = load_model(args.file)
    except OSError as err:
        print(f"smm: cannot read {args.file}: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except ModelError as err:
        for diag in err.diagnostics:
            print(f"{args.file}:{diag}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        cfg = build_config(model, **{point: getattr(args, point)
                                     for point in VARIATION_POINTS})
    except (ModelError, ExecError) as err:
        print(f"smm: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    records: list[TraceRecord] = []
    hook = trace_recorder(records) if args.trace else None
    failure = None  # (message, exit code) of a run that stopped early
    try:
        result = run_main(cfg, model.setup, max_steps=args.max_steps,
                          on_step=hook)
    except ModelError as err:
        for diag in err.diagnostics:
            print(f"{args.file}:{diag}", file=sys.stderr)
        return EXIT_VALIDATION
    except ExecError as err:
        failure = f"runtime error: {err}", EXIT_RUNTIME
    except KeyboardInterrupt:
        failure = "interrupted", EXIT_INTERRUPTED

    if records:  # the steps taken, also those before a failure
        print(render_trace(records))
    if failure:
        print(f"smm: {failure[0]}", file=sys.stderr)
        return failure[1]
    rendering = render_final_state(result, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendering + "\n")
        except OSError as err:
            print(f"smm: cannot write {args.out}: {err.strerror or err}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        print(rendering)

    if isinstance(result.halt, Blocked):
        stuck = ", ".join(f"(oid {o}, tid {t})" for o, t in result.halt.waiting)
        print(f"smm: blocked; waiting threads: {stuck}", file=sys.stderr)
        return EXIT_BLOCKED
    if isinstance(result.halt, StepLimit):
        print("smm: step limit reached", file=sys.stderr)
        return EXIT_STEP_LIMIT
    assert isinstance(result.halt, AllDone)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
