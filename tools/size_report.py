"""Print the size of a checkout of smm: its lines, code lines, public names,
import time and largest compile peak.

    python3 tools/size_report.py [CHECKOUT]

CHECKOUT defaults to the checkout holding this script. The five numbers:

- ``lines``: the ``wc -l`` total of ``src/smm/*.py``;
- ``code lines``: the lines of ``src/smm/*.py`` that hold code, so not
  blank, not only a comment and not part of a docstring, which is what
  deleting a comment or a docstring leaves unchanged;
- ``public names``: ``len(smm.__all__)``;
- ``import smm.cli``: the median cumulative time of ``smm.cli`` that
  ``-X importtime`` reports, over 15 fresh interpreters started one after
  another. Each runs with ``-B`` and with ``PYTHONPYCACHEPREFIX`` set to an
  empty temporary directory, so that no bytecode cache is read or written.
  So every run compiles from source both the package and the
  standard-library modules it imports, and the figure is larger than that
  of an import that reads the standard library's cache;
- ``largest compile peak``: of the ``src/smm/*.py`` modules, compiled one
  after another in name order, the one whose ``compile()`` raises the
  memory ``tracemalloc`` traces the most above what it traced before, with
  that rise in MB (10**6 bytes). An import that reads no bytecode cache
  compiles every module, so this figure moves the benchmark's peak RSS
  when a module grows past a step in the compiler's memory.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import statistics
import subprocess
import sys
import tempfile
import tokenize
import tracemalloc
from pathlib import Path

RUNS = 15

# Tokens that hold no code: a line of only these is blank or a comment.
_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _python(src: Path, code: str, *flags: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports ``smm`` from ``src``
    and reads and writes no bytecode cache."""
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONPYCACHEPREFIX": cache}
        return subprocess.run([sys.executable, "-B", *flags, "-c", code],
                              env=env, capture_output=True, text=True,
                              check=True)


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token of code other than a
    docstring, which is the string token a module, class or function body
    starts with. A string token spanning lines counts on each of them."""
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, _DOCUMENTED)
                  and ast.get_docstring(node, clean=False) is not None}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NO_CODE and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def import_ms(src: Path) -> float:
    """The cumulative time of one ``import smm.cli``, in milliseconds."""
    err = _python(src, "import smm.cli", "-X", "importtime").stderr
    for line in err.splitlines():
        # "import time: <self us> | <cumulative us> | <indented name>"
        _, cumulative, name = line.split("|")
        if name.strip() == "smm.cli":
            return int(cumulative) / 1000
    raise RuntimeError(f"no import time of smm.cli in:\n{err}")


def compile_peaks(paths: list[Path]) -> dict[str, float]:
    """Each module's compile peak, in MB above what was traced before it,
    by file name."""
    traced = tracemalloc.is_tracing()
    if not traced:
        tracemalloc.start()
    peaks = {}
    try:
        for path in paths:
            source = path.read_text()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            compile(source, str(path), "exec")
            peaks[path.name] = (tracemalloc.get_traced_memory()[1]
                                - before) / 1e6
    finally:
        if not traced:
            tracemalloc.stop()
    return peaks


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    src = parser.parse_args(argv).checkout.resolve() / "src"
    paths = sorted((src / "smm").glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in paths)
    code = sum(code_lines(path.read_text()) for path in paths)
    names = _python(src, "import smm; print(len(smm.__all__))").stdout
    times = [import_ms(src) for _ in range(RUNS)]
    peaks = compile_peaks(paths)
    largest = max(peaks, key=peaks.get)
    print(f"lines: {lines}")
    print(f"code lines: {code}")
    print(f"public names: {int(names)}")
    print(f"import smm.cli: {statistics.median(times):.1f} ms "
          f"(median of {RUNS}, {min(times):.1f}..{max(times):.1f})")
    print(f"largest compile peak: {peaks[largest]:.2f} MB ({largest})")


if __name__ == "__main__":
    main()
