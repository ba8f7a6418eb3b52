"""Golden behaviour digests: what a fixed set of models does, pinned.

Each model gets one sha256. A model that loads runs under all four
``runnables x scheduler`` configs, and each config adds its halt reason,
``time``, text and structured final states and rendered trace to the
digest, or, when the run fails, the ``ExecError`` text and the trace up
to the failing step. The models are the bundled ones, 300 generated by
``modelgen.random_model`` (whose printed source is digested too, so its
random stream is pinned) and the malformed sources of ``test_frontend``,
whose diagnostics are digested. A change that keeps behaviour keeps every
digest, so this is the differential check against the code as it was
when the digests were recorded.

Record ``tests/golden.json`` with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from smm import (
    ExecError, ModelError, load_model, parse_model, print_model,
    render_final_state, run_model,
)
from smm.frontend import render_trace, trace_recorder

from conftest import CONFIGS
from modelgen import random_model
from test_frontend import MALFORMED

GOLDEN = Path(__file__).with_name("golden.json")
MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
MAX_STEPS = 2000
SEEDS = range(300)


def _run_parts(model) -> list[str]:
    parts = []
    for runnables, scheduler in CONFIGS:
        records: list = []
        parts.append(f"{runnables}/{scheduler}")
        try:
            result = run_model(model, runnables=runnables, scheduler=scheduler,
                               max_steps=MAX_STEPS,
                               on_step=trace_recorder(records))
        except ExecError as err:
            parts += ["error", str(err), render_trace(records)]
            continue
        halt = result.halt
        parts += [type(halt).__name__, repr(getattr(halt, "waiting", ())),
                  str(result.time), render_final_state(result, "text"),
                  render_final_state(result, "structured"),
                  render_trace(records)]
    return parts


def _digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part.encode()
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def bundled_digests() -> dict[str, str]:
    return {f"model:{path.name}": _digest(_run_parts(load_model(path)))
            for path in sorted(MODELS_DIR.glob("*.smm"))}


def generated_digests() -> dict[str, str]:
    out = {}
    for seed in SEEDS:
        model = random_model(random.Random(seed))
        out[f"modelgen:{seed}"] = _digest([print_model(model),
                                           *_run_parts(model)])
    return out


def malformed_digests() -> dict[str, str]:
    out = {}
    for i, source in enumerate(MALFORMED):
        try:
            parts = ["loaded", print_model(parse_model(source))]
        except ModelError as err:
            parts = [str(d) for d in err.diagnostics]
        out[f"malformed:{i}"] = _digest(parts)
    return out


def _check(found: dict[str, str]) -> None:
    golden = json.loads(GOLDEN.read_text())
    assert found.keys() <= golden.keys()
    changed = [name for name in found if found[name] != golden[name]]
    assert not changed, f"behaviour changed for {changed}"


def test_bundled_models_behave_as_recorded():
    _check(bundled_digests())


def test_generated_models_behave_as_recorded():
    _check(generated_digests())


def test_malformed_sources_report_as_recorded():
    _check(malformed_digests())


def test_every_recorded_digest_is_checked():
    golden = json.loads(GOLDEN.read_text())
    assert golden.keys() == {
        *(f"model:{p.name}" for p in MODELS_DIR.glob("*.smm")),
        *(f"modelgen:{seed}" for seed in SEEDS),
        *(f"malformed:{i}" for i in range(len(MALFORMED)))}


if __name__ == "__main__":
    digests = {**bundled_digests(), **generated_digests(),
               **malformed_digests()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}")
