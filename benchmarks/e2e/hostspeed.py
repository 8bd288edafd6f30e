"""Host-speed meter: measured seconds -> seconds at reference speed.

The benchmark runs on a few cores of a shared host whose speed changes
under it: the same Python loop takes 1.0x to 1.6x as long from one tenth
of a second to the next (a neighbour on the sibling hardware thread, the
shared cache), and the share of slow time drifts over minutes, so two
runs of the same 10 s workload minutes apart differ by 30-50%.  No
amount of repeating inside one run averages that away.

So every rep carries its own speedometer.  A ``SIGALRM`` interval timer
interrupts the rep every :data:`PERIOD_S` and times a fixed pure-Python
loop (~1 ms of CPU time, 2% of the run).  The stretch of workload between two
samples is then scaled by :data:`REFERENCE_SPIN_S` / (the mean of the
two loop times): what the stretch would have taken on the reference box
with nobody else on it.  Host-time metrics are sums of those scaled
stretches — *seconds at reference speed* — and the loop's own time is
left out of them.

The loop lives here, not in ``src/``: a change to the simulator cannot
move it.  It is CPU-bound with a tiny working set, so it follows the
host's instruction rate and under-corrects code that also loses to a
thrashed shared cache; what is left of the noise after correction is
what the bounds in ``spec.py`` are sized for.
"""

from __future__ import annotations

import signal
from time import perf_counter, thread_time

#: Seconds between speed samples.
PERIOD_S = 0.05
SPIN_LOOPS = 20_000
#: What :func:`_spin` takes on the reference box (2-core KVM guest, Xeon
#: 2.1 GHz, CPython 3.11) when nothing contends: the smallest of ~2,000
#: samples over several runs.  It only fixes the unit; a different value
#: scales every host-time metric alike.
REFERENCE_SPIN_S = 1.03e-3


def _spin() -> int:
    x = 0
    for i in range(SPIN_LOOPS):
        x += i * i % 7
    return x


class SpeedMeter:
    """Samples host speed from a ``SIGALRM`` handler (main thread only)."""

    def __init__(self) -> None:
        #: ``(start, end, spin_s)`` of every timed spin: where it sits in
        #: the rep (``perf_counter``) and the CPU time it took — not its
        #: wall time, so that a spin that had to queue behind the rep's
        #: own worker processes still reads the host's pace, not theirs.
        self.samples: list = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, _signum, _frame) -> None:
        self.mark()

    def mark(self) -> int:
        """Take a sample now; its index bounds a measured region."""
        start, cpu = perf_counter(), thread_time()
        _spin()
        spin_s = thread_time() - cpu
        self.samples.append((start, perf_counter(), spin_s))
        return len(self.samples) - 1

    def seconds(self, first: int, last: int) -> tuple:
        """``(at reference speed, as measured)`` seconds of everything
        but the spins between samples ``first`` and ``last``."""
        return reference_seconds(self.samples[first:last + 1])


def reference_seconds(samples: list) -> tuple:
    reference = measured = 0.0
    for (_, end, spin_s), (start, _, next_spin_s) in zip(samples,
                                                         samples[1:]):
        stretch = start - end
        measured += stretch
        reference += stretch * REFERENCE_SPIN_S / ((spin_s + next_spin_s)
                                                   / 2.0)
    return reference, measured
