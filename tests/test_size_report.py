"""``tools/size_report.py`` reports this checkout's lines, code lines,
public names, import time and largest compile peak."""

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
    lines, code, names, import_line, peak_line = \
        capsys.readouterr().out.splitlines()
    paths = list((ROOT / "src" / "smm").glob("*.py"))
    wc = sum(len(path.read_text().splitlines()) for path in paths)
    assert lines == f"lines: {wc}"
    counted = sum(size_report.code_lines(path.read_text()) for path in paths)
    assert code == f"code lines: {counted}"
    assert 0 < counted < wc
    assert names == f"public names: {len(smm.__all__)}"
    assert import_line.startswith("import smm.cli: ")
    assert float(import_line.split()[2]) > 0
    label, peak, unit, module = peak_line.rsplit(" ", 3)
    assert label == "largest compile peak:" and unit == "MB"
    assert float(peak) > 0
    assert module[0] == "(" and module[-1] == ")"
    assert module[1:-1] in {path.name for path in paths}


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    source = (
        '"""A module docstring,\n'
        'on two lines."""\n'
        '\n'
        '# a comment\n'
        'import os  # code with a comment\n'
        '\n'
        '\n'
        'class A:\n'
        '    """A class docstring."""\n'
        '\n'
        '    def f(self):\n'
        '        """A method docstring."""\n'
        '        # an indented comment\n'
        '        text = """not a docstring,\n'
        'so every line counts"""\n'
        '        return text\n'
        '\n'
        '\n'
        'def g(): """A docstring on the line of its def."""\n'
        '\n'
        '\n'
        '"""A string after the module docstring is code."""\n'
    )
    # import, class, def f, the two lines of text, return, def g and the
    # last string.
    assert size_report.code_lines(source) == 8
