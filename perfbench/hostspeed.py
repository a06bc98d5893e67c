"""Host speed, read from a fixed pure-Python reference loop.

Other tenants of a shared host slow its cores in phases of seconds to
minutes, by up to a factor of two, and process CPU time slows with wall time,
so neither more samples nor CPU time take the phase out of a 30 s run. A time
measured between two runs of the reference loop in the same process is scaled
to a fixed host speed: multiplied by REFERENCE_S over the mean of the two
runs. The loop runs only the benchmark's own partition code, never oddchar,
so no change to the program moves it.
"""

import gc
import time

from workloads import is_odd, partitions

# The loop's time on a quiet core of the 2-core Xeon VM the bounds were set on;
# scaled times are seconds at that speed.
REFERENCE_S = 0.06
REFERENCE_NS = range(14, 23)


def reference_seconds():
    # No collection during the loop: it would scan the program's heap, whose
    # size a change to the program may alter.
    gc.disable()
    try:
        start = time.perf_counter()
        for n in REFERENCE_NS:
            sum(is_odd(parts) for parts in partitions(n))
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """Scale factors for times measured between consecutive reference runs."""

    def start(self):
        self.last = reference_seconds()

    def factor(self):
        """REFERENCE_S over the mean of the last reference run and a new one."""
        now = reference_seconds()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor
