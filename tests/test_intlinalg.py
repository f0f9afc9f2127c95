import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excol.errors import TorsionPresent
from excol.intlinalg import (
    cokernel_basis,
    determinant,
    rational_rank,
    smith_normal_form,
    solve_exact,
)


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


def test_smith_normal_form_divisibility_and_product():
    diag, v = smith_normal_form([[2, 4], [6, 8]])
    d = [abs(x) for x in diag]
    assert d == [2, 4]  # |det| = 8 with gcd 2
    assert len(v) == 2 and abs(determinant(v)) == 1


def test_smith_normal_form_rectangular():
    diag, v = smith_normal_form([[1, 0, 0], [0, 2, 0]])
    assert sorted(abs(x) for x in diag) == [1, 2]
    assert abs(determinant(v)) == 1


def test_cokernel_projective_space():
    # rays of P^2 as the columns: cokernel of u -> (<u, v_rho>)_rho is Z
    rows = [[-1, 1, 0], [-1, 0, 1]]
    cok = cokernel_basis(rows)
    assert cok.free_rank == 1
    # all three T-divisors are linearly equivalent up to sign conventions
    images = [cok.project([1, 0, 0]), cok.project([0, 1, 0]), cok.project([0, 0, 1])]
    assert len({tuple(x) for x in images}) == 1


def test_cokernel_codim3_blowup_rank():
    # 3 lattice rows, 6 ray columns (P^2 x P^1 rays plus exceptional ray)
    rows = [
        [-1, 1, 0, 0, 0, 1],
        [-1, 0, 1, 0, 0, 1],
        [0, 0, 0, -1, 1, 1],
    ]
    cok = cokernel_basis(rows)
    assert cok.free_rank == 3


def test_cokernel_torsion_detected():
    with pytest.raises(TorsionPresent) as exc:
        cokernel_basis([[2, 0]])
    assert exc.value.invariant_factors == (2,)


def test_solve_exact():
    assert solve_exact([[1, 1], [0, 1]], [3, 5]) == ((3, 2), 1)
    # x = (1/2, 1/3): the common denominator is |det| = 6
    assert solve_exact([[-2, 0], [0, 3]], [-1, 1]) == ((3, 2), 6)
    with pytest.raises(ValueError):
        solve_exact([[1, 1], [2, 2]], [1, 0])


small_matrices = st.lists(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_transpose_invariant(rows):
    t = [list(c) for c in zip(*rows)]
    assert rational_rank(rows) == rational_rank(t)
    assert rational_rank(rows) <= min(len(rows), len(rows[0]))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_rank_matches_rational_rank(rows):
    diag, v = smith_normal_form([list(r) for r in rows])
    assert sum(1 for d in diag if d != 0) == rational_rank(rows)
    assert abs(determinant(v)) == 1


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 5))
    entries = st.integers(-5, 5)
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    y = draw(st.lists(entries, min_size=n, max_size=n))
    return b, y


@settings(max_examples=200, deadline=None)
@given(square_systems())
def test_solve_exact_scaled_solution(system):
    b, y = system
    det_b = determinant(b)
    if det_b == 0:
        with pytest.raises(ValueError):
            solve_exact(b, y)
        return
    nums, det = solve_exact(b, y)
    assert det == abs(det_b) > 0
    n = len(b)
    assert [sum(nums[i] * b[i][j] for i in range(n)) for j in range(n)] == [
        det * v for v in y
    ]
