"""Generative robustness checks: random models, executed.

Random bodies are full of legitimate model bugs (calls through null
references, kind mismatches, missing returns), so ExecError is an accepted
outcome. What must never happen: an engine-internal error, a Python-level
exception, or two runs of the same model disagreeing.
"""

from __future__ import annotations

import random

import pytest

from smm import (
    ExecError, build_config, render_final_state, run_model, validate_state,
)
from smm.vm import StepLimit

from modelgen import random_model

CONFIGS = [("rtc", "rr"), ("rtc", "prio"), ("conc", "rr"), ("conc", "prio")]


def _outcome(model, runnables, scheduler):
    try:
        result = run_model(model, runnables=runnables, scheduler=scheduler,
                           max_steps=150)
        return "result", render_final_state(result, "structured"), result
    except ExecError as err:
        return "model-error", str(err), None


@pytest.mark.parametrize("seed", range(30))
def test_random_models_run_deterministically(seed):
    rng = random.Random(987_000 + seed)
    model = random_model(rng)
    for runnables, scheduler in CONFIGS:
        kind1, detail1, result = _outcome(model, runnables, scheduler)
        kind2, detail2, _ = _outcome(model, runnables, scheduler)
        assert (kind1, detail1) == (kind2, detail2)
        if result is not None and not isinstance(result.halt, StepLimit):
            problems = validate_state(result.final, build_config(model))
            assert problems == [], problems
