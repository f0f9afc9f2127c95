"""The lattice-point count of support-set polytopes, vectorized with numpy.

One call counts every polytope box of an oracle batch.  Flipping each ray
rho in a box's support set S to (-v_rho, -a_rho - 1) folds the support
test: u has support set S iff every folded <u, v_rho> + a_rho is >= 0.  One
interval axis k per call, the one with the fewest points on the other axes
(rest points) over the batch, is solved exactly: at a rest point each ray
with v_rho,k != 0 bounds u_k by one int64 floor division, from below or
above as its folded v_rho,k is positive or negative, so the valid u_k form
one interval, and a ray with v_rho,k = 0 only tests the rest value.  Rest
points are decoded mixed-radix from one flat index, CHUNK_POINTS at a time,
into ray-major (rays x points) arrays; np.add.reduceat sums each box's
intervals.  Every kernel value is a folded partial sum or a digit term
inside the bound of cohomology._vertex_maps's reach, which the oracle's
one guard keeps in int64, so all arithmetic is int64.
"""

import numpy as np

BACKEND = "numpy"

# rest points per chunk; bounds the (rays x points) temporaries to a few MB
CHUNK_POINTS = 1 << 13
_MIN, _MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def count_support_sets(lo, hi, rays, coeffs, masks):
    """(B,) counts: the points of each box [lo, hi] (B x n, inclusive, lo <=
    hi on every axis) whose support set is exactly its mask (B,).  rays is
    R x n, coeffs B x R."""
    lo, hi, rays, coeffs, masks = (np.asarray(x, np.int64) for x in (lo, hi, rays, coeffs, masks))
    widths = hi - lo + 1
    rest = widths.prod(axis=1)[:, None] // widths  # rest points per box and axis
    k = int(rest.sum(axis=0).argmin())
    others = [d for d in range(lo.shape[1]) if d != k]
    ends = np.cumsum(rest[:, k])
    starts = ends - rest[:, k]
    # With r the value <u, v_rho> + a_rho at u_k = lo_k, a ray bounds x = u_k -
    # lo_k by t = ceil(-r / v_rho,k) if v_rho,k > 0, floor(r / -v_rho,k) + 1 if
    # v_rho,k < 0, and (v_rho,k = 0) t = _MAX if r < 0, else 0: x >= t if the
    # ray is off S and v_rho,k >= 0, or on S and v_rho,k < 0; else x < t.
    slope = rays[:, k]
    sign = np.where(slope > 0, -1, 1)[:, None]
    rays, inside = sign * rays, (masks >> np.arange(len(rays))[:, None]) & 1
    # per box: sign * r + |v_rho,k| - [v_rho,k > 0] at lo, caps that keep the
    # thresholds of one side, the widths of axis k and of the rest axes, and
    # the box's first flat index
    table = np.concatenate([
        sign * coeffs.T + (abs(slope) - (slope > 0))[:, None] + rays @ lo.T,
        np.where((slope >= 0)[:, None] ^ (inside == 1), _MAX, _MIN),
        widths[:, [k] + others].T, starts[None],
    ])
    divisors = [(r, int(abs(slope[r]))) for r in np.flatnonzero(abs(slope) > 1).tolist()]
    tests, nrays, total = np.flatnonzero(slope == 0), len(rays), int(rest[:, k].sum())
    out = np.zeros(len(lo), dtype=np.int64)
    for begin in range(0, total, CHUNK_POINTS):
        end = min(begin + CHUNK_POINTS, total)
        b0, b1 = np.searchsorted(ends, begin, side="right"), np.searchsorted(starts, end)
        segments = np.maximum(starts[b0:b1] - begin, 0)
        rows = table[:, b0:b1].repeat(np.minimum(ends[b0:b1], end) - begin - segments, axis=1)
        value, caps, width = rows[:nrays], rows[nrays : 2 * nrays], rows[2 * nrays]
        index = np.arange(begin, end) - rows[-1]
        for d, size in zip(others, rows[2 * nrays + 1 : -1]):
            index, digit = np.divmod(index, size)
            value += rays[:, d, None] * digit
        for r, divisor in divisors:
            value[r] //= divisor
        value[tests] = (value[tests] >> 63) & _MAX
        low = np.maximum(0, np.minimum(value, caps).max(axis=0))
        high = np.minimum(width, np.maximum(value, caps).min(axis=0))
        out[b0:b1] += np.add.reduceat(np.maximum(high, low) - low, segments)
    return out
