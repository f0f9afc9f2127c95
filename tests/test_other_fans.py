"""The oracle on smooth complete fans outside the family: products of
projective spaces, checked against Kunneth's formula, fans moved by a
change of lattice basis, checked against themselves unmoved, and double
blow-ups, checked against Serre duality."""

import random

import pytest

from excol import (
    BundleSpec,
    CenterSpec,
    bott_dims,
    build_projective_bundle_fan,
    make_blowup,
    projective_space_fan,
)
from excol.cohomology import cohomology_dims_many
from excol.intlinalg import determinant
from fan_helpers import (
    moved,
    product_fan,
    replace,
    smooth_complete,
    star_subdivisions,
    unimodular,
)


def _convolve(vectors):
    """The h-vector of a product from its factors' h-vectors (Kunneth)."""
    h = (1,)
    for v in vectors:
        out = [0] * (len(h) + len(v) - 1)
        for i, x in enumerate(h):
            for j, y in enumerate(v):
                out[i + j] += x * y
        h = tuple(out)
    return h


@pytest.mark.parametrize(
    "dims",
    [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 4), (2, 2, 2)],
    ids=lambda dims: "x".join(f"P{n}" for n in dims),
)
def test_products_of_projective_spaces_satisfy_kunneth(dims):
    """On P^a x P^b x P^c (Picard rank 3, dimension 3 to 6), h of
    O(d1, d2, d3) is the convolution of the three factors' Bott vectors,
    for 40 random classes whose degrees reach each factor's h^0, its
    acyclic band and its top cohomology."""
    fan = product_fan(*map(projective_space_fan, dims))
    assert smooth_complete(fan) and fan.pic_rank == 3
    rng = random.Random(f"kunneth {dims}")
    classes = [tuple(rng.randint(-n - 3, 2) for n in dims) for _ in range(40)]
    got = cohomology_dims_many(fan, [fan.pic_class(c) for c in classes])
    want = [_convolve(bott_dims(n, d) for n, d in zip(dims, c)) for c in classes]
    assert got == want


@pytest.mark.parametrize(
    "case",
    [
        (BundleSpec(2, (0, 1, 1)), {"b1", "f1"}),
        (BundleSpec(3, (0, 1)), {"b1", "b2", "f1"}),
        (1, 1, 2),
    ],
    ids=["2-011-b1f1", "3-01-b1b2f1", "P1xP1xP2"],
)
def test_a_change_of_lattice_basis_keeps_every_h_vector(case):
    """Moving every ray of a fan by one unimodular g changes the lattice
    basis, not the variety: 30 random classes keep their h-vectors, though
    the oracle's vertex maps, boxes and lattice points all move."""
    if isinstance(case[0], BundleSpec):
        fan = make_blowup(case[0], CenterSpec(frozenset(case[1]))).fan_xt
    else:
        fan = product_fan(*map(projective_space_fan, case))
    rng = random.Random(f"gl {fan.basis_tag}")
    g = unimodular(rng, fan.dim)
    assert abs(determinant(g)) == 1
    other = moved(fan, g)
    assert other.rays != fan.rays and other.basis_tag == fan.basis_tag
    classes = [
        fan.pic_class(tuple(rng.randint(-3, 3) for _ in range(fan.pic_rank))) for _ in range(30)
    ]
    assert cohomology_dims_many(other, classes) == cohomology_dims_many(fan, classes)


@pytest.mark.parametrize(
    "spec, first, second, m",
    [
        (BundleSpec(1, (0, 0)), {"b1", "f1"}, {"b1", "e"}, 9),
        (BundleSpec(1, (0, 0)), {"b1", "f1"}, {"b0", "f0"}, 9),
        (BundleSpec(2, (0, 1)), {"b1", "b2"}, {"b1", "e"}, 6),
        (BundleSpec(2, (0, 1)), {"b1", "f1"}, {"b2", "e"}, 7),
        (BundleSpec(1, (0, 0, 0)), {"f1", "f2"}, {"b1", "f1", "e"}, 7),
        (BundleSpec(2, (0, 0)), {"b1", "b2", "f1"}, {"b1", "b2", "e"}, 9),
    ],
    ids=[
        "1-00-b1f1-b1e", "1-00-b1f1-b0f0", "2-01-b1b2-b1e", "2-01-b1f1-b2e",
        "1-000-f1f2-b1f1e", "2-00-b1b2f1-b1b2e",
    ],
)
def test_double_blowups_satisfy_serre_duality(spec, first, second, m):
    """X blown up twice, the second center naming the first's exceptional
    ray e or not (Picard rank 4, m <= 9 primitive collections, so within
    the oracle's rank-table budget): the inherited B^-1 is the one formed
    from scratch, the fan is smooth and complete, and 20 random classes D
    have h^i(D) = h^{n-i}(K - D)."""
    fan = star_subdivisions(build_projective_bundle_fan(spec), first, second)
    assert replace(fan)._basis_inverse == fan._basis_inverse and smooth_complete(fan)
    assert (fan.pic_rank, len(fan.primitive_collections)) == (4, m)
    rng = random.Random(f"serre {fan.basis_tag}")
    classes = [fan.pic_class(tuple(rng.randint(-3, 3) for _ in range(4))) for _ in range(20)]
    canonical = fan.canonical_class()
    h = cohomology_dims_many(fan, classes + [canonical - d for d in classes])
    assert h[:20] == [v[::-1] for v in h[20:]]
