"""Run the producer/consumer model under every runnables strategy and
scheduler, as ``VARIATION_POINTS`` lists them: four combinations today,
and a strategy added to either table shows up with no other edit.

The model is racy on purpose: get() reads the buffer slot and only then
invalidates it, so two get handlers interleaved inside the buffer can fetch
the same value. Whether that interleaving can happen at all is decided by
the runnables strategy, and how expensive the run is by the scheduler.
Each run gets a step budget: a scheduler that never ages a waiting offer
can starve the consumers for ever, and its rows say "no verdict".

Usage: python demos/variation_matrix.py
"""

from pathlib import Path

from smm import IntVal, StepLimit, load_model, render_final_state, run_model
from smm.variation import VARIATION_POINTS

MODEL = Path(__file__).resolve().parent.parent / "models" / "prodcons.smm"
MAX_STEPS = 10_000  # the bundled configs finish in under 200


def consistent(result) -> bool:
    ds = result.final.ds
    values = (ds[1].attrs.get("data"), ds[2].attrs.get("data"))
    return values[0] != values[1] and ds[3].attrs.get("data") == IntVal(-1)


def main() -> None:
    model = load_model(MODEL)
    results = {}
    for runnables in VARIATION_POINTS["runnables"]:
        for scheduler in VARIATION_POINTS["scheduler"]:
            results[(runnables, scheduler)] = run_model(
                model, runnables=runnables, scheduler=scheduler,
                max_steps=MAX_STEPS)

    for (runnables, scheduler), result in results.items():
        print(f"--- runnables={runnables} scheduler={scheduler} ---")
        print(render_final_state(result))
        if result.halt == StepLimit():
            verdict = f"no verdict within {MAX_STEPS} steps"
        elif consistent(result):
            verdict = "consistent"
        else:
            verdict = "RACE: lost update"
        print(f"outcome: {verdict}")
        print()

    print("step counts:")
    wide = [max(map(len, VARIATION_POINTS[point]))
            for point in ("runnables", "scheduler")]
    for key, result in sorted(results.items(), key=lambda kv: kv[1].time):
        late = ", no verdict" if result.halt == StepLimit() else ""
        print(f"  {key[0]:>{wide[0]}} + {key[1]:<{wide[1]}} "
              f"{result.time:>5} steps{late}")
    fast = results[("rtc", "prio")].time
    slow = results[("conc", "rr")].time
    print(f"\nrtc+prio runs in {fast / slow:.0%} of the conc+rr step count:")
    print("priority scheduling keeps the compute-heavy producer running")
    print("instead of letting the consumers poll an empty buffer, and")
    print("run-to-completion makes each buffer operation atomic.")


if __name__ == "__main__":
    main()
