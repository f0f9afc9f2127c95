"""Exact integer and rational linear algebra.

Everything here works on arbitrary-precision Python ints (or Fractions where
noted) and never touches floating point: ranks via fraction-free Bareiss
elimination, cokernels via Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import TorsionPresent


def _as_rows(m):
    return [list(r) for r in m]


def rational_rank(m) -> int:
    """Rank over Q, by fraction-free (Bareiss) elimination."""
    a = _as_rows(m)
    if not a or not a[0]:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                a[r][c] = (a[row][col] * a[r][c] - a[r][col] * a[row][c]) // prev
            a[r][col] = 0
        prev = a[row][col]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def determinant(m) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    a = _as_rows(m)
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise ValueError("matrix not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                a[r][c] = (a[k][k] * a[r][c] - a[r][k] * a[k][c]) // prev
            a[r][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    """Solve x.B = y for a square invertible B, exactly over Q.

    b is given as a list of rows B_i (so the system is sum_i x_i B_i = y).
    Returns a tuple of Fractions.
    """
    n = len(b)
    # transpose: solve B^T x = y column-style with Gaussian elimination over Q
    a = [[Fraction(b[j][i]) for j in range(n)] + [Fraction(y[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y2 for x, y2 in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))
