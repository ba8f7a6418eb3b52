"""Count how often the benchmark's smoke run fails in one or more checkouts.

    python3 tools/smoke_rate.py [--runs N] [CHECKOUT ...]

CHECKOUT defaults to the checkout holding this script. ``perfbench/run.py
--smoke`` is run N times (default 20) in each checkout, each time in a
fresh interpreter started in that checkout, and the checkouts take turns
run by run, so that a change in the host's load falls on all of them
alike. For each checkout the report gives the number of failed runs out
of N and then each distinct line the failed runs reported, with the number
of runs that reported it:

    /path/to/checkout: 1 of 20 runs failed
      1 x deep traced pass: reported self times cover 0.980 of the pass

A failed run's lines are those ``perfbench: FAILED`` lines of its standard
error; a run that exits with another status and reports none is counted by
its exit status and last line of standard error.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from collections import Counter
from pathlib import Path

FAILED = "perfbench: FAILED "


def smoke_run(checkout: Path) -> list[str]:
    """The lines one smoke run in ``checkout`` fails with; none if it
    passed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode == 0:
        return []
    lines = proc.stderr.splitlines()
    return ([line.removeprefix(FAILED) for line in lines
             if line.startswith(FAILED)]
            or [f"exit status {proc.returncode}: "
                f"{lines[-1] if lines else 'no output'}"])


def _runs(text: str) -> int:
    runs = int(text)
    if runs < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return runs


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=_runs, default=20)
    parser.add_argument("checkouts", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parent.parent])
    args = parser.parse_args(argv)
    failed = Counter()
    reported = {checkout: Counter() for checkout in args.checkouts}
    for _ in range(args.runs):
        for checkout in args.checkouts:
            lines = smoke_run(checkout)
            if lines:
                failed[checkout] += 1
                reported[checkout].update(set(lines))
    for checkout in args.checkouts:
        print(f"{checkout}: {failed[checkout]} of {args.runs} runs failed")
        for line, count in sorted(reported[checkout].items()):
            print(f"  {count} x {line}")


if __name__ == "__main__":
    main()
