"""``tools/smoke_rate.py`` counts the failed smoke runs of each checkout."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "smoke_rate", ROOT / "tools" / "smoke_rate.py")
smoke_rate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(smoke_rate)


def test_one_run_of_this_checkout_is_reported(capsys):
    smoke_rate.main(["--runs", "1"])
    head, *lines = capsys.readouterr().out.splitlines()
    # Whether the run passed is not this test's concern, only the report.
    assert re.fullmatch(rf"{re.escape(str(ROOT))}: ([01]) of 1 runs failed",
                        head)
    assert (head.endswith(": 0 of 1 runs failed")) == (lines == [])
    assert all(re.fullmatch(r"  1 x \S.*", line) for line in lines)


def _checkout(path: Path, script: str) -> Path:
    """A stand-in checkout whose smoke run is ``script``."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(script)
    return path


def test_each_checkout_counts_its_runs_and_distinct_lines(tmp_path, capsys):
    flaky = _checkout(tmp_path / "flaky", (
        "import sys\n"
        "print('perfbench: FAILED deep traced pass: reported self times "
        "cover 0.980 of the pass', file=sys.stderr)\n"
        "print('perfbench: FAILED deep traced pass: reported self times "
        "cover 0.980 of the pass', file=sys.stderr)\n"
        "print('perfbench: FAILED wide cli run: exit 5', file=sys.stderr)\n"
        "sys.exit(1)\n"))
    passing = _checkout(tmp_path / "passing", "print('smoke: 1 runs')\n")
    crashing = _checkout(tmp_path / "crashing", "raise SystemExit('boom')\n")
    smoke_rate.main(["--runs", "2", str(flaky), str(passing), str(crashing)])
    assert capsys.readouterr().out.splitlines() == [
        f"{flaky}: 2 of 2 runs failed",
        "  2 x deep traced pass: reported self times cover 0.980 of the pass",
        "  2 x wide cli run: exit 5",
        f"{passing}: 0 of 2 runs failed",
        f"{crashing}: 2 of 2 runs failed",
        "  2 x exit status 1: boom",
    ]
