"""Times scaled to a nominal machine speed.

On a shared 2-core x86 virtual machine the speed of the same pure-Python
loop moved by up to 1.6x between runs and by 2x within one, in wall and CPU
time alike.  No repeat count evens out a slowdown that lasts a whole run, so
every document time is divided by the time of a fixed reference computation
run right before and right after it, and multiplied by NOMINAL_S.

The reference does the same kinds of work as the package (bigint Bareiss
elimination and closure of a permutation group) with the benchmark's own code,
so no change to the package moves it.  Over eight product runs there, scaling
each document this way brought the run-to-run spread of the summed latency
from 22% down to 2%.
"""

import gc
import random
import time

from workloads import closure, int_det, symmetric

# The reference's typical duration on a 2-core x86 virtual machine: a scaled
# time reads as that machine's seconds.
NOMINAL_S = 0.0035

_RNG = random.Random(7)
_MATRIX = [[_RNG.randint(-60, 60) for _ in range(9)] for _ in range(9)]
_GROUP = symmetric(6)


def reference_seconds() -> float:
    """Wall time of the reference computation, with the garbage collector
    off, so that objects the package left alive do not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(12):
            int_det(_MATRIX)
        closure(_GROUP)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, *references: float) -> float:
    """``seconds`` at the nominal speed, given reference times measured next
    to it."""
    return seconds * NOMINAL_S * len(references) / sum(references)
