"""Determinism across processes: two interpreters, two hash seeds, the
same bytes.

String hashing, and with it the order of sets of names, changes with
``PYTHONHASHSEED``. A run must not depend on it: the same model and config
give the same final state, ``time``, trace, diagnostics and exit code in
every process. Two fresh interpreters, one under ``PYTHONHASHSEED=0`` and
one under ``PYTHONHASHSEED=4242``, drive ``smm.cli.main`` over the bundled
models and three generated ones, under all four ``runnables x scheduler``
configs, once with ``--trace --format structured`` and once with
``--format text``, and their outputs are compared byte for byte.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import smm
from smm import print_model

from modelgen import random_model

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
# Seeds whose models end in a runtime error, at the step limit and with
# every thread done.
SEEDS = (16, 23, 34)
HASH_SEEDS = ("0", "4242")

# Run by each interpreter over the model files named in its arguments.
_DRIVER = """
import contextlib, io, sys
from smm.cli import main

print(hash("smm"))
for path in sys.argv[1:]:
    for runnables in ("rtc", "conc"):
        for scheduler in ("rr", "prio"):
            for flags in (["--trace", "--format", "structured"],
                          ["--format", "text"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \\
                        contextlib.redirect_stderr(err):
                    code = main(["run", path, "--runnables", runnables,
                                 "--scheduler", scheduler,
                                 "--max-steps", "2000", *flags])
                print(path, runnables, scheduler, *flags, "exit", code)
                print(out.getvalue(), err.getvalue(), sep="--- stderr\\n")
"""


def test_two_hash_seeds_give_the_same_bytes(tmp_path):
    paths = sorted(str(p) for p in MODELS_DIR.glob("*.smm"))
    for seed in SEEDS:
        path = tmp_path / f"modelgen-{seed}.smm"
        path.write_text(print_model(random_model(random.Random(seed))),
                        encoding="utf-8")
        paths.append(str(path))
    src = str(Path(smm.__file__).resolve().parents[1])
    runs = [subprocess.Popen(
        [sys.executable, "-c", _DRIVER, *paths],
        env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH":
             os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                             if p)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for hash_seed in HASH_SEEDS]
    outputs = [run.communicate(timeout=60) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], outputs
    (first, first_err), (second, second_err) = outputs
    assert first_err == second_err == b""
    # The two interpreters did hash strings differently.
    assert first.split(b"\n", 1)[0] != second.split(b"\n", 1)[0]
    assert first.split(b"\n", 1)[1] == second.split(b"\n", 1)[1]
    # Every model ran, and every traced run took a step.
    assert first.count(b" exit ") == len(paths) * 4 * 2
    assert first.count(b"[    0] obj=") == len(paths) * 4
