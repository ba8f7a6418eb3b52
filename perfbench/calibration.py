"""Host-speed calibration for timings taken on a shared machine.

On a host shared with other tenants the same Python code runs at speeds
that drift by tens of percent within seconds, and interpreter-bound work
of a similar kind drifts together. So while the benchmark times anything,
a ``Sampler`` runs ``kernel`` (a fixed miniature of the VM's own work:
frozen records, dict copies, tuple queues, sorted scans, keyed minimum)
once every ``PERIOD_S`` from a SIGALRM handler, and each timed repetition
is scaled to a host on which the kernel runs ``REFERENCE_RATE`` times per
CPU second. The handler's own time is taken out of every timing.

That holds for a subprocess too, because the benchmark pins itself, and so
the child it starts, to one CPU: while the handler runs the kernel the
child cannot run. (Sampling from another CPU would not do: there the
kernel and the child slow each other down.)

The kernel is part of the benchmark's definition: changing it, or the
reference rate, changes every scaled figure.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass, replace

# Kernel calls per CPU second on the reference host.
REFERENCE_RATE = 500.0
PERIOD_S = 0.1


@dataclass(frozen=True)
class _Thread:
    tid: int
    pc: int
    ready: bool


@dataclass(frozen=True)
class _State:
    threads: dict
    queue: tuple
    steps: int


def kernel() -> int:
    s = _State({oid: {} for oid in range(8)}, (), 0)
    for step in range(200):
        oid = step % 8
        offers = [(o, tid, th.pc) for o in sorted(s.threads)
                  for tid, th in s.threads[o].items() if th.ready]
        if offers:
            min(offers, key=lambda e: (e[2], e[0], e[1]))
        queue = s.queue + (step,) if step % 3 else s.queue[1:]
        th = _Thread(step % 5, step, step % 2 == 1)
        s = replace(s, threads={**s.threads,
                                oid: {**s.threads[oid], th.tid: th}},
                    queue=queue[-50:], steps=s.steps + 1)
    return s.steps


class Sampler:
    """Samples host speed while active: every ``PERIOD_S`` a SIGALRM
    handler runs ``kernel`` once, appends its CPU time to ``durations`` and
    adds it to ``busy``."""

    def __init__(self):
        self.durations: list[float] = []
        self.busy = 0.0
        self._old = None

    def sample(self) -> None:
        # CPU time, not wall time: a child process on this CPU may run in
        # between, and neither the kernel's speed nor the time it took from
        # the child should count that. The collector stays off meanwhile, or
        # the kernel would be charged for collecting the program's objects.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.thread_time()
        kernel()
        dt = time.thread_time() - t0
        if enabled:
            gc.enable()
        self.durations.append(dt)
        self.busy += dt

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def scale(seconds: float, durations: list[float]) -> float:
    """``seconds`` measured while kernel calls took ``durations``, as seconds
    on the reference host. The median call stands for the host's speed; a
    rare call takes ten times as long as the rest."""
    return seconds / (statistics.median(durations) * REFERENCE_RATE)
