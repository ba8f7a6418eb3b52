from __future__ import annotations

import ast
import re
import runpy

import pytest

import smm
from smm.variation import VARIATION_POINTS, Least

from conftest import REPO_ROOT

DEMOS = ["variation_matrix", "scheduling_fairness", "embedding"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_and_prints(name, capsys):
    runpy.run_path(str(REPO_ROOT / "demos" / f"{name}.py"),
                   run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_the_matrix_runs_a_strategy_added_in_one_table_edit(monkeypatch,
                                                           capsys):
    # Round-robin, equal last runs going to the higher priority.
    monkeypatch.setitem(VARIATION_POINTS["scheduler"], "eager",
                        Least(lambda prio, last_exec: (last_exec, -prio)))
    runpy.run_path(str(REPO_ROOT / "demos" / "variation_matrix.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    for runnables in ("rtc", "conc"):
        assert f"--- runnables={runnables} scheduler=eager ---" in out


def test_the_matrix_ends_under_a_scheduler_that_never_ages(monkeypatch,
                                                           capsys):
    # Highest priority first, the older last run only on equal priorities:
    # under rtc the consumers' waiting offers are passed over for ever.
    monkeypatch.setitem(VARIATION_POINTS["scheduler"], "starving",
                        Least(lambda prio, last_exec: (-prio, last_exec)))
    demo = runpy.run_path(str(REPO_ROOT / "demos" / "variation_matrix.py"),
                          run_name="__main__")
    out = capsys.readouterr().out
    budget = demo["MAX_STEPS"]
    assert f"outcome: no verdict within {budget} steps" in out
    assert f"   rtc + starving {budget} steps, no verdict" in out


def _demo_imports() -> set[str]:
    names = set()
    for name in DEMOS:
        tree = ast.parse((REPO_ROOT / "demos" / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "smm":
                names.update(alias.name for alias in node.names)
    return names


def _readme_code_words() -> set[str]:
    """Identifiers inside README's code blocks and inline code spans."""
    text = (REPO_ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", " ".join(code)))


def test_every_exported_name_is_documented_or_used_by_a_demo():
    undocumented = set(smm.__all__) - _readme_code_words() - _demo_imports()
    assert not undocumented, sorted(undocumented)


def test_demos_import_only_exported_names():
    assert _demo_imports() <= set(smm.__all__)
    for name in smm.__all__:
        assert hasattr(smm, name), name
