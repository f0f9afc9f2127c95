"""The lattice-character sweep, vectorized with numpy.

Counts, for every subset of rays, how many integer points u of a box have
exactly that subset as their support set {rho : <u, v_rho> < -a_rho}.
All arithmetic stays in int64, which is exact for the coordinate sizes that
occur here.
"""

import numpy as np

BACKEND = "numpy"


def count_support_masks(lo, hi, rays, coeffs):
    """Count support bitmasks over the integer box [lo, hi] (inclusive).

    rays: (R, n) int array, coeffs: (R,) int array.
    Returns (counts, shell_counts), both of length 2**R: occurrences of each
    bitmask over all box points, and over points on the box boundary.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    rays = np.asarray(rays, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    n = lo.shape[0]
    nrays = rays.shape[0]
    nmasks = 1 << nrays
    bits = (np.int64(1) << np.arange(nrays, dtype=np.int64))
    counts = np.zeros(nmasks, dtype=np.int64)
    shell = np.zeros(nmasks, dtype=np.int64)

    axes = [np.arange(lo[i], hi[i] + 1, dtype=np.int64) for i in range(1, n)]
    if axes:
        grids = np.meshgrid(*axes, indexing="ij")
        rest = np.stack([g.ravel() for g in grids], axis=-1)
    else:
        rest = np.zeros((1, 0), dtype=np.int64)
    rest_on_shell = np.zeros(rest.shape[0], dtype=bool)
    for i in range(1, n):
        col = rest[:, i - 1]
        rest_on_shell |= (col == lo[i]) | (col == hi[i])

    rest_dots = rest @ rays[:, 1:].T if n > 1 else np.zeros((1, nrays), dtype=np.int64)
    first_col = rays[:, 0] if n >= 1 else np.zeros(nrays, dtype=np.int64)
    for v in range(lo[0], hi[0] + 1):
        dots = rest_dots + v * first_col
        active = dots < -coeffs
        masks = active @ bits
        counts += np.bincount(masks, minlength=nmasks)
        on_shell = rest_on_shell | (v == lo[0]) | (v == hi[0])
        if on_shell.any():
            shell += np.bincount(masks[on_shell], minlength=nmasks)
    return counts, shell
