"""``tools/ab_run.py`` compares the step rate of two checkouts' ``vm.run``."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("wide", "fanin-rtc", "fanin-conc", "deep")


def _ab_run(*args: str) -> subprocess.CompletedProcess:
    # A process of its own: the script imports smm once per checkout.
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab_run.py"),
                           *args], capture_output=True, text=True)


def test_one_pair_of_this_checkout_against_itself_is_reported():
    proc = _ab_run(str(ROOT), str(ROOT), "--pairs", "1", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 * len(WORKLOADS)
    number = r"\d+\.\d"
    for k, name in enumerate(WORKLOADS):
        head, parent, change, ratio = lines[4 * k:4 * k + 4]
        assert re.fullmatch(rf"{name} \((rtc|conc)/(rr|prio)\), seed 7, "
                            rf"\d+ steps, 1 pairs", head)
        for side, line in (("PARENT", parent), ("CHANGE", change)):
            assert re.fullmatch(rf"  {side} +{number} steps/s, quartiles "
                                rf"{number} \.\. {number}", line)
        assert re.fullmatch(r"  ratio \d+\.\d{3}; CHANGE won [01] of 1 pairs",
                            ratio)


def test_a_workload_and_a_seed_can_be_chosen():
    proc = _ab_run(str(ROOT), str(ROOT), "--pairs", "2", "--size", "smoke",
                   "--workload", "deep", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("deep (conc/rr), seed 3, ")
    assert proc.stdout.splitlines()[-1].endswith(" of 2 pairs")


def test_a_checkout_without_smm_is_refused(tmp_path):
    proc = _ab_run(str(ROOT), str(tmp_path), "--pairs", "1", "--size",
                   "smoke")
    assert proc.returncode != 0
    assert "ab_run:" in proc.stderr


def test_a_checkout_whose_traces_differ_is_refused(tmp_path):
    # Round-robin turned around, most recently executed first: the final
    # states may still agree, the traces under rr do not, and no pair is
    # timed.
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    variation = tmp_path / "src" / "smm" / "variation.py"
    text = variation.read_text()
    assert text.count("return (last_exec,)") == 1
    variation.write_text(text.replace("return (last_exec,)",
                                      "return (-last_exec,)"))
    proc = _ab_run(str(ROOT), str(tmp_path), "--pairs", "1", "--size",
                   "smoke")
    assert proc.returncode == 1 and proc.stdout == ""
    refusals = proc.stderr.splitlines()
    # Every workload under both rr configurations, and nothing under prio.
    assert len(refusals) == 2 * len(WORKLOADS)
    for line in refusals:
        assert re.fullmatch(rf"ab_run: ({'|'.join(WORKLOADS)}) (rtc|conc)/rr: "
                            r"the (final state and the trace differ|trace "
                            r"differs)", line), line
