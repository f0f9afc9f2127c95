"""Exact integer linear algebra.

Everything here works on arbitrary-precision Python ints and never touches
floating point or rationals: ranks, determinants and linear solves share
one fraction-free (Bareiss) elimination, cokernels use Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TorsionPresent


def _as_rows(m):
    return [list(r) for r in m]


def _bareiss(a, ncols):
    """Bareiss (fraction-free) forward elimination of the integer rows a, in place.

    Pivots are searched in the first ncols columns only; any further columns
    are carried along as right-hand sides.  Returns (rank, sign): the number
    of pivot rows, which end up first, and the sign of the row permutation.
    Every division is exact, because after step k each entry below the pivot
    rows is a (k+1)-minor of the input.  With ncols == len(a) and full rank,
    a[n-1][n-1] is sign times the determinant of the square part.
    """
    nrows = len(a)
    rank = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        for row in a[rank + 1 :]:
            f = row[col]
            for c in range(col + 1, len(row)):
                row[c] = (p * row[c] - f * top[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
    return rank, sign


def rational_rank(m) -> int:
    """Rank over Q of an integer matrix."""
    a = _as_rows(m)
    if not a:
        return 0
    return _bareiss(a, len(a[0]))[0]


def determinant(m) -> int:
    """Exact determinant of a square integer matrix."""
    a = _as_rows(m)
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise ValueError("matrix not square")
    rank, sign = _bareiss(a, n)
    return sign * a[n - 1][n - 1] if rank == n else 0


def smith_normal_form(m):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diag, V) where diag lists the diagonal entries of D = U m V
    (including zeros, length min(rows, cols)) with the divisibility chain
    d1 | d2 | ..., and V is the square column-operation matrix of size cols.
    U is not returned; cokernel computations only need V.
    """
    a = _as_rows(m)
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]

    def add_col(src, dst, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # locate a nonzero entry of minimal absolute value in the submatrix
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        # clear row and column t; restart if a reduction produced a smaller pivot
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t] != 0:
                q = -(a[i][t] // a[t][t])
                add_row(t, i, q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j] != 0:
                q = -(a[t][j] // a[t][t])
                add_col(t, j, q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce the divisibility chain
        pivot = a[t][t]
        culprit = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % pivot != 0:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            add_row(culprit, t, 1)
            continue
        t += 1

    diag = [a[i][i] for i in range(limit)]
    return diag, v


@dataclass(frozen=True)
class CokernelBasis:
    """Free part of Z^cols / rowspace(m), with its projection map."""

    free_rank: int
    projection: tuple  # cols x free_rank integer matrix

    def project(self, vec):
        if len(vec) != len(self.projection):
            raise ValueError("vector length mismatch")
        return tuple(
            sum(x * row[j] for x, row in zip(vec, self.projection))
            for j in range(self.free_rank)
        )


def cokernel_basis(m) -> CokernelBasis:
    """Cokernel Z^cols / image(u -> u.m) for an integer matrix m.

    Raises TorsionPresent if any invariant factor exceeds 1 in absolute value.
    The projection is z -> (z V) restricted to the free coordinates, where
    U m V is the Smith normal form.
    """
    rows = _as_rows(m)
    ncols = len(rows[0]) if rows else 0
    diag, v = smith_normal_form(rows)
    rank = sum(1 for d in diag if d != 0)
    torsion = [abs(d) for d in diag if abs(d) > 1]
    if torsion:
        raise TorsionPresent(torsion)
    proj = tuple(tuple(v[i][j] for j in range(rank, ncols)) for i in range(ncols))
    return CokernelBasis(ncols - rank, proj)


def solve_exact(b, y):
    """Solve x.B = y for a square invertible integer B, exactly.

    b is given as a list of rows B_i (so the system is sum_i x_i B_i = y).
    Returns (nums, det) with det = |det B| > 0 and x_i = nums[i] / det, all
    integers; raises ValueError if B is singular.
    """
    n = len(b)
    a = [[row[i] for row in b] + [y[i]] for i in range(n)]
    rank, _ = _bareiss(a, n)
    if rank < n:
        raise ValueError("matrix is singular")
    det = a[n - 1][n - 1] if n else 1
    # back-substitution in the scaled unknowns det * x_i, which are integers
    # (Cramer's rule), so each division is exact
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = det * row[n] - sum(row[j] * nums[j] for j in range(i + 1, n))
        nums[i] = acc // row[i]
    if det < 0:
        return tuple(-x for x in nums), -det
    return tuple(nums), det
