"""Host speed probe: a fixed routine timed next to every measured operation.

The benchmark shares its host with other machines' work, and the speed of
its cores drifts by 10-20 % within a minute (see ``RATIONALE.md``).  The
drift moves every timing of a run together, so the benchmark times a fixed
routine, which does not depend on the program, between the measured
operations, and scales each operation's wall time by how much slower or
faster than nominal the routine ran around it::

    scaled = wall * REFERENCE_S / mean(routine time before, routine time after)

A change to the program moves ``wall`` and not the routine, so it shows in
full; a slower host moves both, and cancels.  The routine gives equal time
to three kinds of work the program does: an interpreted Python loop, NumPy
calls on small arrays, and reductions over an array the size of a dense
instance's interest matrix.  A stream through an array larger than the cache
tracked the solves worse, so the routine has none.  It writes into buffers
it owns, so it allocates nothing and leaves the allocator as the program
left it.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: The routine's median time on the reference host (a 2-core 2.1 GHz Xeon VM
#: with Python 3.11): a scaled time reads as seconds on that host.
REFERENCE_S = 0.028


class SpeedProbe:
    """Times the fixed routine; :meth:`scale` turns a wall time into reference seconds."""

    def __init__(self) -> None:
        # Fixed, input-independent operands (no RNG: the probe is not an input).
        self._small = np.sin(np.arange(64 * 64, dtype=np.float64)).reshape(64, 64)
        self._small_out = np.empty_like(self._small)
        self._grid = np.cos(np.arange(2000 * 200, dtype=np.float64)).reshape(2000, 200) + 2.0
        self._grid_out = np.empty_like(self._grid)
        self._column_sums = np.empty(200)
        self.samples: List[float] = []
        self.last = self.time()

    def _routine(self) -> None:
        total = 0
        for index in range(100_000):
            total += index * index % 7
        x, out = self._small, self._small_out
        for _ in range(600):
            np.multiply(x, 0.5, out=out)
            np.add(out, 0.1, out=out)
            np.tanh(out, out=out)
        for _ in range(6):
            np.sum(self._grid, axis=0, out=self._column_sums)
            np.divide(self._grid, self._column_sums, out=self._grid_out)
            self._grid_out.max(axis=1).sum()

    def time(self) -> float:
        """Run the routine once; its wall time, also kept in :attr:`samples`."""
        begin = time.perf_counter()
        self._routine()
        elapsed = time.perf_counter() - begin
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Run the routine after an operation; the factor that scales the operation.

        The factor compares the routine's mean time before and after the
        operation with :data:`REFERENCE_S`.
        """
        before, self.last = self.last, self.time()
        return 2.0 * REFERENCE_S / (before + self.last)
