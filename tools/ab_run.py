"""Compare the step rate of ``vm.run`` in two checkouts of smm, in one process.

    python3 tools/ab_run.py PARENT CHANGE [--seed N] [--pairs N]
                            [--workload W] [--size full|smoke]

Each checkout's ``smm`` is imported from its ``src`` directory in turn,
its ``sys.modules`` entries cleared in between. Both stay loaded, and a
run puts its side's modules back into ``sys.modules`` for the imports
that its calls make. Each
workload (default: all of them) is built by ``perfbench/workloads.py`` of
the checkout holding this script, for ``--seed`` (default 7), under its
own configuration. Before any timing, each workload runs once in each
checkout under every configuration of ``CONFIGS`` in that module, its
steps recorded by ``frontend.trace_recorder``; when the structured final
state or the rendered trace of any run differs between the two sides,
the script names it and exits with status 1 without timing. A pair times
one ``vm.run`` of the parsed model in each checkout, with the cyclic
collector run before each, and the side that runs first alternates from
pair to pair, so that a drift in the host's speed falls on both sides
alike. The structured final states of the two sides must be equal on
every pair; the script exits with status 1 when they are not. Per
workload it prints each side's median steps/s with its quartiles, the
median of the per-pair ratios CHANGE/PARENT and the pairs CHANGE won:

    fanin-conc (conc/prio), seed 7, 17656 steps, 10 pairs
      PARENT  81234.5 steps/s, quartiles 80012.3 .. 82001.0
      CHANGE 108012.9 steps/s, quartiles 106500.2 .. 109010.4
      ratio 1.330; CHANGE won 10 of 10 pairs
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """``perfbench/workloads.py`` of this checkout, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "ab_run_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def _smm_modules() -> dict:
    """The ``smm`` modules in ``sys.modules``, by name."""
    return {n: m for n, m in sys.modules.items()
            if n == "smm" or n.startswith("smm.")}


def _clear() -> None:
    """Drop every ``smm`` module from ``sys.modules``."""
    for name in _smm_modules():
        del sys.modules[name]


def load_smm(checkout: Path) -> dict:
    """The modules of the ``smm`` package of ``checkout``, by name,
    imported afresh after the ``sys.modules`` entries of any other are
    cleared."""
    src = checkout.resolve() / "src"
    if not (src / "smm" / "__init__.py").is_file():
        raise SystemExit(f"ab_run: no smm sources under {src}")
    _clear()
    sys.path.insert(0, str(src))
    try:
        import smm
        import smm.frontend
        import smm.vm
    finally:
        sys.path.remove(str(src))
    if Path(smm.__file__).resolve().parent != src / "smm":
        raise SystemExit(f"ab_run: imported smm from {smm.__file__}, "
                         f"not {src}")
    return _smm_modules()


def _prepared(modules: dict, text: str, **choices: str):
    """The model ``text`` parsed by the ``smm`` of ``modules``, which are
    put in ``sys.modules`` for the imports its calls make, with strategies
    ``choices``: (its frontend and vm modules, config, initial state)."""
    _clear()
    sys.modules.update(modules)
    fe, vm = modules["smm.frontend"], modules["smm.vm"]
    model = fe.parse_model(text)
    cfg = fe.build_config(model, **choices)
    return fe, vm, cfg, vm.build_initial_state(cfg, model.setup)


def timed_run(modules: dict, text: str) -> tuple[float, int, str]:
    """One ``vm.run`` of the model ``text`` by the ``smm`` of ``modules``:
    (seconds, steps, structured final state)."""
    fe, vm, cfg, s0 = _prepared(modules, text)
    gc.collect()
    t0 = time.perf_counter()
    result = vm.run({}, 0, cfg, s0)
    seconds = time.perf_counter() - t0
    return seconds, result.time, fe.render_final_state(result, "structured")


def traced_run(modules: dict, text: str, runnables: str,
               scheduler: str) -> tuple[str, str]:
    """One ``vm.run`` of the model ``text`` under the configuration
    ``runnables``/``scheduler`` by the ``smm`` of ``modules``, every step
    recorded: (structured final state, rendered trace)."""
    fe, vm, cfg, s0 = _prepared(modules, text, runnables=runnables,
                                scheduler=scheduler)
    records: list = []
    result = vm.run({}, 0, cfg, s0, on_step=fe.trace_recorder(records))
    return (fe.render_final_state(result, "structured"),
            fe.render_trace(records))


def _differences(sides: dict, workloads, names, seed: int,
                 size: str) -> list[str]:
    """Each workload run under each configuration whose final state or
    trace differs between the two sides, as ``name runnables/scheduler:
    what differs``."""
    found = []
    for name in names:
        text = workloads.WORKLOADS[name].generate(seed, size).text
        for runnables, scheduler in workloads.CONFIGS:
            parent, change = (traced_run(sides[side], text, runnables,
                                         scheduler) for side in sides)
            what = [label for label, a, b in zip(
                ("final state", "trace"), parent, change) if a != b]
            if what:
                verb = "differs" if len(what) == 1 else "differ"
                found.append(f"{name} {runnables}/{scheduler}: the "
                             f"{' and the '.join(what)} {verb}")
    return found


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(text: str) -> int:
    pairs = int(text)
    if pairs < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=_pairs, default=10)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    workloads = _workloads()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        action="append")
    args = parser.parse_args(argv)
    sides = {"PARENT": load_smm(args.parent), "CHANGE": load_smm(args.change)}
    names = args.workload or list(workloads.WORKLOADS)
    differences = _differences(sides, workloads, names, args.seed, args.size)
    for line in differences:
        print(f"ab_run: {line}", file=sys.stderr)
    if differences:
        return 1
    status = 0
    for name in names:
        wl = workloads.WORKLOADS[name]
        gen = wl.generate(args.seed, args.size)
        rates: dict[str, list[float]] = {side: [] for side in sides}
        for k in range(args.pairs):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            finals = {}
            for side in order:
                seconds, steps, finals[side] = timed_run(sides[side],
                                                         gen.text)
                rates[side].append(steps / seconds)
            if finals["PARENT"] != finals["CHANGE"]:
                print(f"ab_run: {name} pair {k}: the final states differ",
                      file=sys.stderr)
                status = 1
        print(f"{name} ({wl.runnables}/{wl.scheduler}), seed {args.seed}, "
              f"{gen.steps} steps, {args.pairs} pairs")
        for side, values in rates.items():
            q1, med, q3 = _quartiles(values)
            print(f"  {side} {med:9.1f} steps/s, quartiles {q1:.1f} .. "
                  f"{q3:.1f}")
        ratios = [c / p for p, c in zip(rates["PARENT"], rates["CHANGE"])]
        wins = sum(r > 1 for r in ratios)
        print(f"  ratio {statistics.median(ratios):.3f}; CHANGE won {wins} "
              f"of {args.pairs} pairs")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
