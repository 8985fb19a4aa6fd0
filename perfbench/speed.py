"""A speed probe that runs alongside the program in the same thread.

The benchmark's host is shared, and its speed drifts by tens of percent
over seconds to minutes; a CPU-time clock does not see it (the guest is
not told), and no hardware counters are exposed to count instructions.
``Speedometer`` samples the speed while the program runs: a ``SIGALRM``
every ``PERIOD_S`` runs a fixed pure-Python kernel (tuple permutations
composed and hashed into a dict, as the program's closures do) and
records how long it took.  The kernel is the benchmark's own code, so no
change to the program can move it.

A stretch of program time is then rescaled to the reference speed: each
sample stands for one period of wall time, and runs ``REF_KERNEL_S / t``
times as fast as the reference machine, where ``t`` is the sample's
kernel time.  The kernel's own time is taken out of the program's time.
"""

import signal
import time

PERIOD_S = 0.025
# Kernel time on the reference machine, about its median there.
REF_KERNEL_S = 0.0008

_IDENTITY = (0, 1, 2, 3, 4, 5, 6)
_GENS = ((1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6))


def kernel() -> int:
    """Fixed work: the first 480 elements of S7, by breadth-first search.

    Permutations are tuples composed through list comprehensions and
    interned in a dict, as the program's subgroup closures do.  Of the
    kernels tried, this one followed the program's speed best; one that
    added list-of-lists table lookups and degree-96 compositions followed
    it less well.
    """
    seen = {_IDENTITY: 0}
    frontier = [_IDENTITY]
    while len(seen) < 480:
        nxt = []
        for p in frontier:
            for g in _GENS:
                q = tuple([p[i] for i in g])
                if q not in seen:
                    seen[q] = len(seen)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


class Speedometer:
    """Samples the kernel's time every ``PERIOD_S`` while installed."""

    def __init__(self):
        self.samples = []       # (perf_counter at start, kernel seconds)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def install(self):
        kernel()                # warm up
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, t_start: float, t_end: float) -> float:
        """Reference seconds of the program's time in ``[t_start, t_end]``.

        The program's time is the wall time less the kernel's own time.
        It is weighted by the mean speed of the samples that fell inside,
        or of all samples if none did.
        """
        inside = [dt for t0, dt in self.samples if t_start <= t0 < t_end]
        net = (t_end - t_start) - sum(inside)
        if not inside:
            return net * self.mean_speed()
        return net * sum(REF_KERNEL_S / dt for dt in inside) / len(inside)

    def mean_speed(self) -> float:
        """Mean speed over all samples, relative to the reference."""
        return (sum(REF_KERNEL_S / dt for _, dt in self.samples)
                / max(1, len(self.samples)))
