"""The processor's speed, sampled while a pass runs, to scale pass times by.

On a shared host the same work can take twice as long from one second to
the next, and the mean speed over a 25-second run moves by 20-30% from one
run to the next; the CPU time of the process moves with the wall time, so
the loss is in the processor, not in scheduling.  A SpeedSampler runs a
fixed probe (small complex SVDs and a Python loop, like the program's own
work) every INTERVAL seconds from a SIGALRM handler, in the process that
runs the pass.  A pass's time, less the probes inside it, times
REFERENCE_S over the mean probe time during the pass, is the time the pass
would take at the speed at which one probe takes REFERENCE_S.

The handler runs between two Python bytecodes of the pass, so a probe
never splits a numpy call; the pass time it reports excludes the probes.
A pass that runs its work in child processes must not be probed on a
timer, since a probe would share the core with the child; such a pass
calls sample() between two children instead.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

import numpy as np
# Bound at import, before a tracer patches numpy.linalg.
from numpy.linalg import svd as _svd

INTERVAL = 0.1
REFERENCE_S = 0.005
PROBE_ROUNDS = 30

_MATS = np.random.default_rng(1).standard_normal((8, 6, 6)) * (1 + 1j)


def probe() -> float:
    """Wall time of a fixed piece of work like the program's own."""
    t0 = perf_counter()
    for _ in range(PROBE_ROUNDS):
        _svd(_MATS)
        acc = 0.0
        for i in range(300):
            acc += i * 0.5
    return perf_counter() - t0


class SpeedSampler:
    """Probes taken between start() and stop(), on a timer or by sample()."""

    def __init__(self, timer: bool):
        self.timer = timer
        self.samples = array("d")

    def sample(self) -> None:
        self.samples.append(probe())

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> int:
        """Start probing; returns the index of the first sample of this span."""
        if self.timer:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return len(self.samples)

    def stop(self) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, elapsed: float, first: int) -> tuple[float, float, int]:
        """(work seconds, work at the reference speed, probes) since start()."""
        taken = self.samples[first:]
        if not taken:  # a pass shorter than INTERVAL: probe once after it
            taken = array("d", [probe()])
            work = elapsed
        else:
            work = elapsed - sum(taken)
        return work, work * REFERENCE_S * len(taken) / sum(taken), len(self.samples) - first
