"""Exact integer linear algebra.

Everything here works on arbitrary-precision Python ints and never touches
floating point or rationals: rank, determinant and the scaled inverse share
one fraction-free (Bareiss) elimination, which skips the rows it would
leave unchanged, so a sparse matrix with unit pivots costs far less than n^3.
"""

from __future__ import annotations


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
            if f == 0 and p == prev:
                continue  # the update below would leave the row as it is
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


def inverse(b):
    """Exact scaled inverse of a square invertible integer matrix b.

    Returns (m, det) with det = det b, signed and nonzero, and m = |det| *
    b^-1, all integers, so that b m = |det| I; raises ValueError if b is
    singular or not square.  One Bareiss pass over [b | I], whose row
    swaps give det's sign, then back-substitution per column of I.
    """
    n = len(b)
    if any(len(r) != n for r in b):
        raise ValueError("matrix not square")
    a = [[*row, *[0] * i, 1, *[0] * (n - i - 1)] for i, row in enumerate(b)]
    rank, sign = _bareiss(a, n)
    if rank < n:
        raise ValueError("matrix is singular")
    det = sign * a[n - 1][n - 1] if n else 1
    # back-substitution in the scaled unknowns |det| * x, which are integers
    # (Cramer's rule), so each division is exact; it runs over each row's
    # nonzero entries right of the pivot only
    upper = [[(k, a[i][k]) for k in range(i + 1, n) if a[i][k]] for i in range(n)]
    scale, cols = abs(det), []
    for j in range(n):
        nums = [0] * n
        for i in range(n - 1, -1, -1):
            acc = scale * a[i][n + j]
            for k, x in upper[i]:
                acc -= x * nums[k]
            nums[i] = acc // a[i][i]
        cols.append(nums)
    return tuple(zip(*cols)), det
