"""Host-speed calibration loops.

On a shared host the same code can run up to ~2x slower, in spells from
under a second to minutes.  HostSpeed times fixed loops of a few ms that
do the program's kinds of work (exact Fraction elimination, numpy lattice
counting), so run.py can scale each measured time to a nominal host.
The loops are benchmark code: no change to the program moves them.  This
module imports only the standard library at load time (numpy is imported
by NumpyLoop), so an import probe can load it after the package it times.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter


class FractionLoop:
    """Exact Gauss-Jordan over Fractions on a fixed 4x4 system, six times:
    object-heavy interpreter work, as in the oracle's box and the sweeps'
    bookkeeping."""

    def __call__(self):
        for _ in range(6):
            rows = [
                [Fraction((3 * i + 7 * j) % 11 - 5) for j in range(4)] + [Fraction(i - 2)]
                for i in range(4)
            ]
            for col in range(4):
                piv = next((r for r in range(col, 4) if rows[r][col]), None)
                if piv is None:
                    break
                rows[col], rows[piv] = rows[piv], rows[col]
                head = rows[col][col]
                rows[col] = [x / head for x in rows[col]]
                for r in range(4):
                    if r != col and rows[r][col]:
                        f = rows[r][col]
                        rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]


class NumpyLoop:
    """Lattice-point counting over a fixed 21^3 box with numpy: array
    work, as in the oracle's lattice-sweep kernel."""

    def __init__(self):
        import numpy as np

        self.np = np
        axis = np.arange(-10, 11, dtype=np.int64)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        rays = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
             [-1, -1, -1, -1], [1, 1, 0, 0], [0, -1, -1, 1]],
            dtype=np.int64,
        )
        self.first = rays[:, 0]
        self.dots = grid @ rays[:, 1:].T
        self.coeffs = np.array([3, -2, 4, 1, -5, 2, 0], dtype=np.int64)
        self.bits = np.int64(1) << np.arange(len(rays), dtype=np.int64)

    def __call__(self):
        for v in range(-3, 4):
            masks = ((self.dots + v * self.first) < -self.coeffs) @ self.bits
            self.np.bincount(masks, minlength=1 << len(self.bits))


# the calibration takes about this long on the nominal host
NOMINAL_S = 0.0025


class HostSpeed:
    """Tracks how fast the host runs now, and scales times measured next to
    its samples to the nominal host.  A sample is the geometric mean of one
    FractionLoop and one NumpyLoop time, the program's two kinds of work."""

    def __init__(self):
        self._loops = (FractionLoop(), NumpyLoop())
        self.samples = []
        for _ in range(3):
            self.loop()  # warm up

    def loop(self):
        product = 1.0
        for loop in self._loops:
            t0 = perf_counter()
            loop()
            product *= perf_counter() - t0
        return product ** (1 / len(self._loops))

    def sample(self):
        """Take one sample; returns its index."""
        self.samples.append(self.loop())
        return len(self.samples) - 1

    def scale(self, before, after):
        """Factor taking a time measured between samples `before` and
        `after` to the nominal host."""
        return NOMINAL_S / (0.5 * (self.samples[before] + self.samples[after]))


def probe_seconds():
    """Median of three samples, for the import probe."""
    speed = HostSpeed()
    return statistics.median(speed.loop() for _ in range(3))
