import inspect
import random
from itertools import product

import pytest

from excol import (
    BundleSpec,
    CenterSpec,
    LineBundle,
    PushforwardTwist,
    bott_dims,
    build_projective_bundle_fan,
    cohomology_dims,
    cohomology_on_bundle,
    ext_lemA,
    ext_line_to_pushforward,
    make_blowup,
)
from excol.cli import enumerate_centers, enumerate_specs
from excol.errors import KOutOfRange
from excol.mutation import graded_hom
from excol.splitcalc import pushforward_levels, sym_degree_sums
from fan_helpers import center_geometry, sym_conormal, y_cohomology
from oracle_helpers import e_cohomology

NO_SYM = "^no formula for Sym\\^-1 of the conormal bundle$"


def test_bott_dims():
    assert bott_dims(2, 0) == (1, 0, 0)
    assert bott_dims(2, 2) == (6, 0, 0)
    assert bott_dims(2, -1) == (0, 0, 0)
    assert bott_dims(2, -2) == (0, 0, 0)
    assert bott_dims(2, -3) == (0, 0, 1)
    assert bott_dims(2, -5) == (0, 0, 6)
    assert bott_dims(0, 0) == (1,)
    # every line bundle on a point is trivial
    assert bott_dims(0, -1) == (1,)


def test_sym_degree_sums():
    assert sym_degree_sums((0, 1), 2) == [0, 1, 2]
    assert sym_degree_sums((0, 1, 1), 1) == [0, 1, 1]
    assert sym_degree_sums((0,), 3) == [0]
    assert sym_degree_sums((0, 1), -1) == []


def test_pushforward_levels():
    assert pushforward_levels((0, 1), 2) == {0: [0, 1, 2]}
    assert pushforward_levels((0, 1), 0) == {0: [0]}
    assert pushforward_levels((0, 1), -1) == {}
    assert pushforward_levels((0, 1), -2) == {1: [-1]}
    assert pushforward_levels((0, 1), -3) == {1: [-1, -2]}
    assert pushforward_levels((0, 0, 0), -2) == {}
    assert pushforward_levels((0, 0, 0), -3) == {2: [0]}


def test_cohomology_on_bundle_examples():
    # P^1 x P^1: O(2,3)
    assert cohomology_on_bundle(1, (0, 0), 2, 3)[0] == 12
    # fiber-degree band gives full acyclicity
    assert cohomology_on_bundle(2, (0, 1), -1, -1) == (0, 0, 0, 0)
    # dual level: beta = -r-1 lands in top fiber degree
    assert cohomology_on_bundle(1, (0, 1), -1, -2) == (0, 0, 1)
    assert cohomology_on_bundle(1, (0, 1), 0, -2) == (0, 0, 0)


def test_public_formulas_take_unhashable_arguments(bl_p2p1):
    """Only the private Ext core is memoized: the public formulas keep
    their signatures and still take a list of degrees, or lists for the
    classes."""
    assert list(inspect.signature(cohomology_on_bundle).parameters) == [
        "s",
        "degrees",
        "alpha",
        "beta",
    ]
    assert list(inspect.signature(ext_lemA).parameters) == ["geom", "m_class", "k", "l_class"]
    assert list(inspect.signature(ext_line_to_pushforward).parameters) == [
        "geom",
        "j",
        "l_class",
        "m_class",
    ]
    assert cohomology_on_bundle(1, [0, 1], -1, -2) == (0, 0, 1)
    assert cohomology_on_bundle(1, [0, 0], 2, 3) == cohomology_on_bundle(1, (0, 0), 2, 3)
    geom = bl_p2p1.geometry
    for alpha, beta in ((0, 0), (1, -2), (-3, 1)):
        assert ext_lemA(geom, [0, 0], 2, [alpha, beta]) == ext_lemA(geom, (0, 0), 2, (alpha, beta))
        assert ext_line_to_pushforward(geom, 1, [alpha, beta], [0, 0]) == (
            ext_line_to_pushforward(geom, 1, (alpha, beta), (0, 0))
        )


@pytest.mark.parametrize("spec", [BundleSpec(1, (0, 0)), BundleSpec(2, (0, 1)), BundleSpec(1, (0, 0, 2))])
def test_fast_path_matches_oracle(spec):
    fan = build_projective_bundle_fan(spec)
    for alpha in range(-4, 5):
        for beta in range(-4, 5):
            fast = cohomology_on_bundle(spec.s, spec.fiber_degrees, alpha, beta)
            assert fast == cohomology_dims(fan, fan.pic_class((alpha, beta))), (
                spec,
                alpha,
                beta,
            )


def test_ext_lemA_self_pairing_is_shifted_point(bl_p1p1):
    geom = bl_p1p1.geometry
    # RHom(M, L) = C[-1] when M is the restriction of L
    assert ext_lemA(geom, (0, 0), 1, (0, 0)) == (0, 1, 0)
    assert ext_lemA(geom, (2, 1), 1, (2, 1)) == (0, 1, 0)


def test_ext_lemA_fiber_line():
    # Y = P^1 sitting in the fibers of X = P^1 x P^1 x P^1 over P^1
    geom = center_geometry(BundleSpec(1, (0, 0, 0)), CenterSpec(frozenset({"b1", "f1"})))
    assert (geom.s_prime, geom.r_prime) == (0, 1)
    hom = ext_lemA(geom, (0, 0), 1, (0, 1))
    assert hom[1] == 2 and sum(hom) == 2


def test_ext_lemA_k_range(bl_p1p1, bl_p2p1):
    """ext_lemA takes every k >= 1, k = c included, where it is E's
    oracle value shifted by one; k = 0 asks for Sym^-1 and is refused."""
    assert ext_lemA(bl_p1p1.geometry, (0, 0), 2, (0, 0)) == (0, 2, 0)
    for bl in (bl_p1p1, bl_p2p1):
        c = bl.geometry.codim
        (on_e,) = e_cohomology(bl, [(1, 1, 1 - c)])
        assert ext_lemA(bl.geometry, (0, 0), c, (1, 1)) == (0, *on_e)
        with pytest.raises(KOutOfRange, match=NO_SYM):
            ext_lemA(bl.geometry, (0, 0), 0, (0, 0))
    # codim 3 at k = 2: Sym^1 of the conormal bundle appears
    hom = ext_lemA(bl_p2p1.geometry, (0, 0), 2, (1, 1))
    assert sum(hom) == sum(
        sum(y_cohomology(bl_p2p1.geometry, 1 + ta, 1 + tb))
        for ta, tb in bl_p2p1.geometry.conormal_summands
    )


def test_ext_line_to_pushforward_basics(bl_p1p1):
    """Self-pairing is H^*(O_Y); j = 2 is E's oracle value, and j = -1
    asks for Sym^-1 and is refused."""
    geom = bl_p1p1.geometry
    assert ext_line_to_pushforward(geom, 0, (1, 1), (1, 1)) == (1, 0, 0)
    (on_e,) = e_cohomology(bl_p1p1, [(0, 0, -2)])
    assert ext_line_to_pushforward(geom, 2, (0, 0), (0, 0)) == (*on_e, 0) == (3, 0, 0)
    with pytest.raises(KOutOfRange, match=NO_SYM):
        ext_line_to_pushforward(geom, -1, (0, 0), (0, 0))


def test_ext_core_is_the_cohomology_of_one_line_bundle_on_e():
    """On each of the 437 blow-ups of the s + r <= 4, degree <= 1 family at
    codim c = 2, 3 and 4, each its own labelled type of cones and center,
    graded_hom of a line bundle and a pushforward is the oracle's h^* on
    E = V(e) of one class, for the classes d = (da, db) in {-2, 0, 1} x
    {-1, 0, 2} and j in 0..c+1: Ext^i(O(jE), i_*d) = H^i(E, (d - jE)|_E)
    and, by Grothendieck duality for the divisor E,
    Ext^i(i_*O((j + 1)E), d) = H^{i-1}(E, (d - jE)|_E), the same class.
    So the Ext core is exact at every twist m = j >= 0 of both formulas
    (m = k - 1 with k = j + 1): 37,404 checks."""
    diffs = list(product((-2, 0, 1), (-1, 0, 2)))
    cases = checks = 0
    mismatches = []
    for spec in enumerate_specs(4, 1):
        for codim in (2, 3, 4):
            for center in enumerate_centers(spec, codim):
                bl = make_blowup(spec, center)
                grid = [(d, j) for d in diffs for j in range(codim + 2)]
                on_e = e_cohomology(bl, [(*d, -j) for d, j in grid])
                for ((da, db), j), h in zip(grid, on_e):
                    for a, b, want in (
                        (LineBundle(0, 0, j), PushforwardTwist(da, db, 0), (*h, 0)),
                        (PushforwardTwist(0, 0, j + 1), LineBundle(da, db, 0), (0, *h)),
                    ):
                        if graded_hom(bl, a, b) != want:
                            mismatches.append((spec, center, a, b, want))
                        checks += 1
                cases += 1
    assert mismatches == []
    assert (cases, checks) == (437, 37404)


def test_ext_line_to_pushforward_band_zero():
    # j=0 with beta difference inside the empty band -r' <= . <= -1
    geom = center_geometry(BundleSpec(1, (0, 0, 0)), CenterSpec(frozenset({"b1", "f1"})))
    for alpha in range(-2, 3):
        assert ext_line_to_pushforward(geom, 0, (alpha, 1), (0, 0)) == (0, 0, 0, 0)


def test_ext_line_to_pushforward_conormal_twist(bl_p2p1):
    geom = bl_p2p1.geometry  # Y is a point, conormal (-1,0),(-1,0),(0,-1)
    hom = ext_line_to_pushforward(geom, 1, (0, 0), (0, 0))
    # each conormal summand contributes h^*(point) of a degree-0 class: but
    # the (alpha, beta) twists are nonzero, so the point-bundle formula
    # reduces them through the surviving fiber degree
    expected = [0] * (bl_p2p1.spec.dim + 1)
    for ta, tb in geom.conormal_summands:
        for i, x in enumerate(y_cohomology(geom, ta, tb)):
            expected[i] += x
    assert hom == tuple(expected)


def test_lemA_triangle_euler_identity(bl_p2p1):
    """chi of the pushforward equals the difference of two line-bundle chis."""
    from oracle_helpers import euler_pairing

    geom = bl_p2p1.geometry
    fan = bl_p2p1.fan_xt
    rng = random.Random(5)
    for _ in range(8):
        ma, mb, la, lb = (rng.randint(-2, 2) for _ in range(4))
        k = rng.randint(1, bl_p2p1.geometry.codim - 1)
        lhs = -sum(
            sum(
                (-1) ** i * x
                for i, x in enumerate(y_cohomology(geom, la + ta - ma, lb + tb - mb))
            )
            for ta, tb in sym_conormal(geom, k - 1)
        )
        hi = euler_pairing(fan, fan.pic_class((ma, mb, k)), fan.pic_class((la, lb, 0)))
        lo = euler_pairing(fan, fan.pic_class((ma, mb, k - 1)), fan.pic_class((la, lb, 0)))
        assert lhs == hi - lo
