"""Host-speed sampling, so that op times can be scaled to a reference speed.

The benchmark's host runs the same code at two speeds about 1.6x apart and
switches between them every second or so, so over a 10 s run the share of
time spent at each speed, and with it every raw timing, differs from run to
run.  A fixed pure-Python kernel, timed in CPU time, slows down with the
host: its CPU time is the host's speed at that moment.  An op's CPU time
times SPEED_REF_S over the kernel time sampled while the op ran is the op's
CPU time at the reference speed.  CPU time rather than wall time also leaves
out time the hypervisor gave the vCPU to other guests.

Times are thread CPU times: while a process CPU timer is armed, Linux
advances the process CPU clock only at scheduler ticks.  dmirs runs on the
main thread only (the benchmark sets the BLAS thread counts to 1).

It imports only small standard modules, so the set-up probe can import it
before it starts its clock without taking work out of the measured set-up.
"""

import math
import signal
import time
from array import array
from bisect import bisect_left, bisect_right

# Median CPU time of one speed_kernel() call on the machine where the bounds
# were set (2-vCPU VM, Python 3.11.7).  It only sets the unit: scaled times
# are CPU times on a machine whose kernel call takes this long.
SPEED_REF_S = 1.8e-4
SAMPLE_EVERY_CPU_S = 0.02


def speed_kernel():
    """Fixed interpreter work of about 0.2 ms: integer and float arithmetic,
    calls, a dict and a list, as in dmirs' per-cell Python loops."""
    acc, counts, items = 0.0, {}, []
    for i in range(300):
        x = (i * 7919) % 1013
        counts[x & 63] = counts.get(x & 63, 0) + 1
        items.append(math.sqrt(x + 0.5))
        acc += items[-1] * 1e-3
    return acc + len(counts)


class SpeedSampler:
    """Times one speed_kernel() call every SAMPLE_EVERY_CPU_S of process CPU
    time (ITIMER_PROF).  The handler runs in the main thread, between two
    bytecodes of whatever runs there.  ``spent`` is the CPU time the samples
    took, to be left out of the op times they land in.  Use as a context
    manager around the timed phase.
    """

    def __init__(self):
        self.at = array("d")  # thread CPU time at which each sample started
        self.kernel_s = array("d")
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.thread_time()
        speed_kernel()
        end = time.thread_time()
        self.at.append(start)
        self.kernel_s.append(end - start)
        self.spent += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_CPU_S, SAMPLE_EVERY_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def scale(self, cpu_start, cpu_end):
        """SPEED_REF_S over the kernel time while the thread CPU clock ran
        from ``cpu_start`` to ``cpu_end``.  It is the mean of that ratio over
        the samples taken in the span, or the nearest sample's ratio when
        none was.  The ratio is averaged, not the kernel time, because the
        work done per CPU second is proportional to the ratio."""
        if not self.at:
            raise RuntimeError("no speed sample was taken")
        lo, hi = bisect_left(self.at, cpu_start), bisect_right(self.at, cpu_end)
        if hi > lo:
            return sum(SPEED_REF_S / k for k in self.kernel_s[lo:hi]) / (hi - lo)
        mid = 0.5 * (cpu_start + cpu_end)
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.at)), key=lambda i: abs(self.at[i] - mid))
        return SPEED_REF_S / self.kernel_s[near]
