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

What depends only on the rays, the support sets (0/1 membership rows
over the rays, so any number of rays fits) and the axis k is built once
per axis and kept in a Folds, which the oracle keeps in each fan's plan:
the fold signs, the folded rays, the offsets, the caps of every set, the
rest axes, the rays that divide and the rays that only test.  A call forms
only what depends on its boxes: their widths and rest points, the axis,
the rows of their coefficients and their sets' caps.
"""

from typing import NamedTuple

import numpy as np

BACKEND = "numpy"

# rest points per chunk; bounds the (rays x points) temporaries to a few MB
CHUNK_POINTS = 1 << 13
_MIN, _MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


class _Axis(NamedTuple):
    """The fold tables of one interval axis k (Folds)."""

    sign: np.ndarray  # (R, 1): -1 where v_rho,k > 0, else 1
    rays: np.ndarray  # (R, n): sign * rays
    offset: np.ndarray  # (R, 1): |v_rho,k| - [v_rho,k > 0]
    caps: np.ndarray  # (R, M): the cap of each ray and set
    others: list  # the rest axes, ascending
    divisors: list  # (rho, |v_rho,k|) for |v_rho,k| > 1
    tests: np.ndarray  # the rays with v_rho,k = 0


class Folds(dict):
    """The fold tables of rays (R x n) and support sets (M x R 0/1 rows),
    both kept as int64: folds[k] is axis k's _Axis, built on first use."""

    def __init__(self, rays, masks):
        super().__init__()
        self.rays, self.masks = np.asarray(rays, np.int64), np.asarray(masks, np.int64)

    def __missing__(self, k):
        # With r the value <u, v_rho> + a_rho at u_k = lo_k, a ray bounds x =
        # u_k - lo_k by t = ceil(-r / v_rho,k) if v_rho,k > 0, floor(r /
        # -v_rho,k) + 1 if v_rho,k < 0, and (v_rho,k = 0) t = _MAX if r < 0,
        # else 0: x >= t if the ray is off S and v_rho,k >= 0, or on S and
        # v_rho,k < 0; else x < t.  The caps keep the thresholds of one side.
        slope = self.rays[:, k]
        sign = np.where(slope > 0, -1, 1)[:, None]
        self[k] = axis = _Axis(
            sign,
            sign * self.rays,
            (abs(slope) - (slope > 0))[:, None],
            np.where((slope >= 0)[:, None] ^ (self.masks.T == 1), _MAX, _MIN),
            [d for d in range(self.rays.shape[1]) if d != k],
            [(r, int(abs(slope[r]))) for r in np.flatnonzero(abs(slope) > 1).tolist()],
            np.flatnonzero(slope == 0),
        )
        return axis


def count_support_sets(lo, hi, coeffs, index, folds):
    """(B,) counts: the points of each box [lo, hi] (B x n, inclusive, lo <=
    hi on every axis) whose support set is exactly the one of membership
    row folds.masks[index] (index (B,)), for the rays of folds (R x n).
    coeffs is B x R."""
    lo, hi, coeffs, index = (np.asarray(x, np.int64) for x in (lo, hi, coeffs, index))
    widths = hi - lo + 1
    rest = widths.prod(axis=1)[:, None] // widths  # rest points per box and axis
    k = int(rest.sum(axis=0).argmin())
    axis = folds[k]
    rays, others, nrays = axis.rays, axis.others, len(axis.rays)
    ends = np.cumsum(rest[:, k])
    starts = ends - rest[:, k]
    # per box: sign * r + |v_rho,k| - [v_rho,k > 0] at lo, its mask's caps, the
    # widths of axis k and of the rest axes, and the box's first flat index
    table = np.concatenate([
        axis.sign * coeffs.T + axis.offset + rays @ lo.T,
        axis.caps[:, index],
        widths[:, [k] + others].T, starts[None],
    ])
    out, total = np.zeros(len(lo), dtype=np.int64), int(rest[:, k].sum())
    for begin in range(0, total, CHUNK_POINTS):
        end = min(begin + CHUNK_POINTS, total)
        b0, b1 = np.searchsorted(ends, begin, side="right"), np.searchsorted(starts, end)
        segments = np.maximum(starts[b0:b1] - begin, 0)
        rows = table[:, b0:b1].repeat(np.minimum(ends[b0:b1], end) - begin - segments, axis=1)
        value, caps, width = rows[:nrays], rows[nrays : 2 * nrays], rows[2 * nrays]
        flat = np.arange(begin, end) - rows[-1]
        for d, size in zip(others, rows[2 * nrays + 1 : -1]):
            flat, digit = np.divmod(flat, size)
            value += rays[:, d, None] * digit
        for r, divisor in axis.divisors:
            value[r] //= divisor
        value[axis.tests] = (value[axis.tests] >> 63) & _MAX
        low = np.maximum(0, np.minimum(value, caps).max(axis=0))
        high = np.minimum(width, np.maximum(value, caps).min(axis=0))
        out[b0:b1] += np.add.reduceat(np.maximum(high, low) - low, segments)
    return out
