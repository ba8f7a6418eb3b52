"""``tools/size_report.py`` reports this checkout's lines, public names and
import time."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import smm

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "size_report", ROOT / "tools" / "size_report.py")
size_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size_report)


def test_the_report_counts_this_checkout(capsys, monkeypatch):
    monkeypatch.setattr(size_report, "RUNS", 1)
    size_report.main([str(ROOT)])
    lines, names, import_line = capsys.readouterr().out.splitlines()
    wc = sum(len(path.read_text().splitlines())
             for path in (ROOT / "src" / "smm").glob("*.py"))
    assert lines == f"lines: {wc}"
    assert names == f"public names: {len(smm.__all__)}"
    assert import_line.startswith("import smm.cli: ")
    assert float(import_line.split()[2]) > 0
