"""The benchmark's traced pass still finds every name it rebinds.

``perfbench/tracing.py``'s ``Tracer`` rebinds module attributes of ``smm``
for the duration of a pass. A name it rebinds that the engine drops makes
entering the tracer fail, so this runs one small traced pass here, in
milliseconds, rather than leaving it to the benchmark's smoke run. The
tracer is loaded from its file and not changed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import smm.state
import smm.vm
from smm import build_config, load_model, run_main

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_run_ends_as_an_untraced_one():
    model = load_model(ROOT / "models" / "prodcons.smm")
    cfg = build_config(model)
    plain = run_main(cfg, model.setup)
    tracer = _tracing().Tracer(0)
    try:
        with tracer:
            traced = run_main(tracer.traced_config(cfg), model.setup)
    finally:
        # A name missing from smm stops the tracer's enter half-way, before
        # its exit can undo the names it had already rebound.
        for module, attr, original in reversed(tracer._saved):
            setattr(module, attr, original)
    assert (traced.final, traced.time, traced.halt) == \
        (plain.final, plain.time, plain.halt)
    metrics = tracer.metrics()
    assert metrics["actions.interpret_calls"] == plain.time
    assert metrics["vm.events_consumed"] > 0
    # Leaving the tracer puts every name back.
    assert smm.vm.update_thread is smm.state.update_thread
