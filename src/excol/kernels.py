"""The lattice-character sweep, vectorized with numpy.

Counts, for every subset of rays, how many integer points u of a box have
exactly that subset as their support set {rho : <u, v_rho> < -a_rho}.

<u, v_rho> + a_rho is a sum of one term per axis, so the kernel forms the
per-axis terms once, adds the terms of axes 1..n-1 (and a_rho) into one
array by broadcasting, and sweeps axis 0 in slabs of at most SLAB_POINTS
points: one slab covers every support-set polytope box that certifying the
s + r <= 4, degree <= 1 family sweeps (at most 1,512 points).  A point's
support mask is packed from the ray tests bit by bit.  All arithmetic stays
in int64: every box the caller sweeps lies inside a class's admission box,
for which cohomology._admit has bounded every value formed.
"""

import numpy as np

BACKEND = "numpy"

# box points per slab of axis 0; bounds the temporaries to a few MB
SLAB_POINTS = 1 << 16


def count_support_masks(lo, hi, rays, coeffs):
    """Count support bitmasks over the integer box [lo, hi] (inclusive).

    rays: (R, n) int array, coeffs: (R,) int array.
    Returns (counts, shell_counts), both of length 2**R: occurrences of each
    bitmask over all box points, and over points on the box boundary.  The
    boundary counts are the counts minus those of the interior box.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    rays = np.asarray(rays, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    n = lo.shape[0]
    nrays = rays.shape[0]
    nmasks = 1 << nrays
    mask_type = np.min_scalar_type(nmasks - 1)

    def term(d):
        """(R, 1, .., w_d, .., 1): <u_d e_d, v_rho> over axis d of the box."""
        shape = (nrays,) + (1,) * d + (-1,) + (1,) * (n - 1 - d)
        return (rays[:, d, None] * np.arange(lo[d], hi[d] + 1)).reshape(shape)

    rest = coeffs.reshape((nrays,) + (1,) * n)
    for d in range(1, n):
        rest = rest + term(d)
    first = term(0)
    width = first.shape[1]
    step = max(1, SLAB_POINTS * nrays // rest.size)
    counts = np.zeros(nmasks, dtype=np.int64)
    interior = np.zeros(nmasks, dtype=np.int64)
    for start in range(0, width, step):
        active = first[:, start : start + step] + rest < 0
        masks = np.zeros(active.shape[1:], dtype=mask_type)
        for r in range(nrays):
            masks |= active[r].astype(mask_type) << r
        counts += np.bincount(masks.ravel(), minlength=nmasks)
        core = (slice(max(1 - start, 0), width - 1 - start),) + (slice(1, -1),) * (n - 1)
        interior += np.bincount(masks[core].ravel(), minlength=nmasks)
    return counts, counts - interior
