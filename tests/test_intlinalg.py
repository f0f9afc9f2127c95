import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excol.intlinalg import determinant, inverse, rational_rank


def test_rank_basics():
    assert rational_rank([]) == 0
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_determinant_basics():
    assert determinant([]) == 1
    assert determinant([[5]]) == 5
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[2, 4], [1, 2]]) == 0
    # needs a row swap to find a pivot
    assert determinant([[0, 2, 1], [1, 0, 0], [0, 1, 1]]) == -1


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_inverse():
    assert inverse([[1, 1], [0, 1]]) == (((1, -1), (0, 1)), 1)
    # b^-1 = diag(-1/2, 1/3): the common denominator is |det| = 6
    assert inverse([[-2, 0], [0, 3]]) == (((-3, 0), (0, 2)), -6)
    # needs a row swap to find a pivot
    assert inverse([[0, 1], [1, 0]]) == (((0, 1), (1, 0)), -1)
    assert inverse([]) == ((), 1)
    # sparse with unit pivots: elimination leaves most rows as they are
    n = 40
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert inverse(identity) == (identity, 1)
    bidiagonal = [[int(i == j) - 2 * (j == i + 1) for j in range(n)] for i in range(n)]
    inv, det = inverse(bidiagonal)
    assert det == 1
    assert inv == tuple(tuple(2 ** (j - i) * (j >= i) for j in range(n)) for i in range(n))
    with pytest.raises(ValueError):
        inverse([[1, 1], [2, 2]])
    with pytest.raises(ValueError):
        inverse([[1, 0, 0], [0, 1, 0]])


dense_entries = st.integers(-5, 5)
# mostly zeros, so that elimination meets rows it leaves unchanged
sparse_entries = st.sampled_from((0, 0, 0, 0, 1, -1, 2))

small_matrices = st.one_of(
    st.lists(st.lists(entries, min_size=1, max_size=4), min_size=1, max_size=4)
    for entries in (dense_entries, sparse_entries)
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_transpose_invariant(rows):
    t = [list(c) for c in zip(*rows)]
    assert rational_rank(rows) == rational_rank(t)
    assert rational_rank(rows) <= min(len(rows), len(rows[0]))


@st.composite
def square_matrices(draw):
    """Dense, sparse, unit-pivot and permutation matrices of size 1..5."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(("dense", "sparse", "unit pivots", "permutation")))
    if shape == "permutation":
        perm = draw(st.permutations(range(n)))
        return [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    entries = dense_entries if shape == "dense" else sparse_entries
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if shape == "unit pivots":
        # unit lower triangular, rows shuffled: every pivot is 1
        rows = [[1 if j == i else x * (j < i) for j, x in enumerate(row)] for i, row in enumerate(rows)]
        rows = [rows[i] for i in draw(st.permutations(range(n)))]
    return rows


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_inverse_scaled(b):
    det_b = determinant(b)
    if det_b == 0:
        with pytest.raises(ValueError):
            inverse(b)
        return
    m, det = inverse(b)
    assert det == det_b
    n = len(b)
    assert [[sum(b[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
        [abs(det) * (i == j) for j in range(n)] for i in range(n)
    ]
