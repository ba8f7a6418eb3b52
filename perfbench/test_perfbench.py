"""The benchmark's own tests, at the smoke size: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import CONFIGS, WORKLOADS  # noqa: E402

smm = run.import_smm()


def test_smoke_mode_passes():
    assert run.main(["--smoke"]) == 0


def test_same_seed_same_text_and_fixed_totals():
    for wl in WORKLOADS.values():
        a, b, c = (wl.generate(seed) for seed in (1, 1, 2))
        assert a.text == b.text
        assert a.text != c.text
        assert a.steps == c.steps


def test_expectations_reject_a_wrong_final_state(tmp_path):
    wl = WORKLOADS["fanin-rtc"]
    gen = wl.generate(1, "smoke")
    path = tmp_path / "m.smm"
    path.write_text(gen.text, encoding="utf-8")
    _, final, _ = run.library_run(smm, path, hook=False)
    doc = json.loads(final)
    assert gen.check(doc, "rtc") == []
    doc["time"] += 1
    assert gen.check(doc, "rtc")
    doc = json.loads(final)
    doc["objects"][0]["attrs"][0][1]["value"] -= 1
    assert gen.check(doc, "rtc")


def test_step_count_does_not_depend_on_config(tmp_path):
    for wl in WORKLOADS.values():
        gen = wl.generate(5, "smoke")
        path = tmp_path / f"{wl.name}.smm"
        path.write_text(gen.text, encoding="utf-8")
        for runnables, scheduler in CONFIGS:
            result, final, trace = run.library_run(
                smm, path, hook=True,
                overrides={"runnables": runnables, "scheduler": scheduler})
            assert result.time == gen.steps
            assert run.expectation_problems(gen, final, runnables, trace) == []


def test_traced_pass_restores_the_program(tmp_path):
    before = (smm.vm.run, smm.vm.collect_runnables, smm.cli.load_model,
              smm.universe.super_chain, smm.variation.super_chain)
    path = tmp_path / "m.smm"
    path.write_text(WORKLOADS["deep"].generate(1, "smoke").text,
                    encoding="utf-8")
    tracer, _ = run.traced_library_pass(smm, path, 1)
    after = (smm.vm.run, smm.vm.collect_runnables, smm.cli.load_model,
             smm.universe.super_chain, smm.variation.super_chain)
    assert before == after
    assert tracer.metrics()["actions.interpret_calls"] == \
        WORKLOADS["deep"].generate(1, "smoke").steps
