import errno
import functools
import hashlib
import itertools
import json
import operator
import os
import random
import re
import tempfile
import time
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from excol import (
    BundleSpec,
    CenterSpec,
    bott_dims,
    build_projective_bundle_fan,
    cohomology_dims,
    make_blowup,
    projective_space_fan,
)
from excol.cohomology import DiskCache, cohomology_dims_many
from excol.kernels import (
    _INT64_MAX,
    _dims_of_divisors,
    _lift,
    _mask_tables,
    _plan,
    _polytope_boxes,
    _support_ranks,
)
from excol import cohomology, kernels
from excol import fan as fan_module
from excol.cli import enumerate_centers, enumerate_specs, run_case
from excol.errors import BoxTooLarge, InvalidSpec, NonLineBundlePresent
from excol.fan import Fan, PicClass
from excol.intlinalg import determinant, inverse
from excol.verify import certify
from fan_helpers import replace
from oracle_helpers import (
    bit_masks,
    dense_rank_table,
    euler_pairing,
    induced_ranks,
    membership,
    polytopes_bounded,
    reduced_cohomology_ranks,
)
from test_independence import PACKAGE_DIR, _import_graph, _reachable


def test_reduced_cohomology_empty_complex():
    assert reduced_cohomology_ranks((frozenset(),), 1) == (1, 0, 0)


def test_reduced_cohomology_two_points():
    assert reduced_cohomology_ranks((frozenset({0}), frozenset({1})), 1) == (0, 1, 0)


def test_reduced_cohomology_circle():
    edges = (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))
    assert reduced_cohomology_ranks(edges, 1) == (0, 0, 1)


def test_reduced_cohomology_contractible():
    assert reduced_cohomology_ranks((frozenset({0, 1, 2}),), 2) == (0, 0, 0, 0)


def test_reduced_cohomology_sphere():
    facets = [frozenset(f) for f in itertools.combinations(range(4), 3)]
    assert reduced_cohomology_ranks(facets, 2) == (0, 0, 0, 1)


def test_reduced_cohomology_hollow_triangle_with_room_above():
    edges = (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))
    assert reduced_cohomology_ranks(edges, 2) == (0, 0, 1, 0)


def test_reduced_cohomology_point_and_disjoint_edge():
    assert reduced_cohomology_ranks((frozenset({0}), frozenset({1, 2})), 1) == (0, 1, 0)


def test_p1_line_bundles():
    fan = projective_space_fan(1)
    assert cohomology_dims(fan, fan.pic_class((3,))) == (4, 0)
    assert cohomology_dims(fan, fan.pic_class((-1,))) == (0, 0)
    assert cohomology_dims(fan, fan.pic_class((-2,))) == (0, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_projective_space_matches_bott(n):
    fan = projective_space_fan(n)
    for d in range(-2 * n - 1, 2 * n + 2):
        assert cohomology_dims(fan, fan.pic_class((d,))) == bott_dims(n, d)


def test_p1xp1_kunneth():
    fan = build_projective_bundle_fan(BundleSpec(1, (0, 0)))
    assert cohomology_dims(fan, fan.pic_class((2, 3))) == (12, 0, 0)
    assert cohomology_dims(fan, fan.pic_class((-2, 1))) == (0, 2, 0)
    assert cohomology_dims(fan, fan.pic_class((-2, -2))) == (0, 0, 1)


def test_blowup_point_p1xp1(bl_p1p1):
    xt = bl_p1p1.fan_xt
    # h^0 drops by one when the section must vanish on the center
    assert cohomology_dims(xt, xt.pic_class((1, 1, -1))) == (3, 0, 0)
    assert cohomology_dims(xt, xt.pic_class((1, 1, 0))) == (4, 0, 0)
    assert cohomology_dims(xt, xt.pic_class((0, 0, 0))) == (1, 0, 0)


def test_lift_invariance(bl_p1p1):
    """The answer must not depend on the chosen T-divisor representative."""
    rng = random.Random(7)
    for fan in (bl_p1p1.fan_x, bl_p1p1.fan_xt):
        for _ in range(6):
            coords = tuple(rng.randint(-3, 3) for _ in range(fan.pic_rank))
            cls = fan.pic_class(coords)
            base = cohomology_dims(fan, cls)
            u = [rng.randint(-2, 2) for _ in range(fan.dim)]
            principal = [
                sum(ui * v[d] for d, ui in enumerate(u)) for v in fan.rays
            ]
            lift = [
                a + b for a, b in zip(_lift(fan, [cls.coords])[0], principal)
            ]
            assert _dims_of_divisors(fan, [lift]) == [base]


# (class, box lo, box hi) of the arrangement box (_python_box), recorded
# when the box was still computed by Gauss-Jordan elimination over the
# rationals
BOX_TABLE = {
    (BundleSpec(2, (0, 1, 2)), ("b1", "f1")): [
        ((-6, -2, 12), (-7, -19, -13, -4), (7, 7, 7, 11)),
        ((-10, 2, 4), (-1, -15, -7, -1), (11, 1, 11, 9)),
        ((5, -9, -5), (-19, -19, -14, -15), (10, 11, 6, 5)),
        ((-11, 7, -4), (-1, -16, -1, -1), (16, 4, 12, 9)),
        ((-4, 6, -7), (-1, -12, -1, -3), (13, 9, 9, 7)),
        ((11, 5, 4), (-21, -1, -12, -17), (11, 26, 22, 10)),
        ((-11, -5, -8), (-11, -30, -22, -14), (25, 1, 12, 17)),
        ((8, -9, -10), (-19, -21, -11, -20), (12, 19, 11, 2)),
        ((6, -5, 7), (-14, -5, -8, -8), (1, 14, 1, 3)),
        ((12, -6, 5), (-18, -1, -13, -10), (1, 18, 1, 1)),
    ],
    (BundleSpec(1, (0, 1, 1, 1)), ("b0", "f1", "f2")): [
        ((4, -10, 11), (-12, -12, -12, -16), (12, 1, 1, 8)),
        ((-9, 9, 9), (-10, -10, -10, -1), (28, 10, 10, 19)),
        ((3, -12, -10), (-35, -13, -13, -32), (11, 20, 20, 8)),
        ((5, -9, 10), (-11, -11, -11, -16), (11, 1, 1, 6)),
        ((-7, -10, 8), (-13, -11, -11, -20), (9, 10, 10, 16)),
        ((6, -11, 6), (-17, -12, -12, -13), (7, 1, 1, 1)),
        ((-11, -2, 5), (-6, -6, -6, -11), (12, 12, 12, 17)),
        ((10, -9, -3), (-22, -11, -11, -14), (4, 4, 4, 1)),
        ((-9, 6, -11), (-12, -1, -1, -9), (12, 15, 15, 21)),
        ((-10, 10, 12), (-13, -13, -13, -3), (33, 11, 11, 23)),
    ],
}


def test_arrangement_box_table():
    for (spec, center), rows in BOX_TABLE.items():
        fan = make_blowup(spec, CenterSpec(frozenset(center))).fan_xt
        for coords, lo, hi in rows:
            (coeffs,) = _lift(fan, [coords]).tolist()
            assert _python_box(fan, coeffs) == (list(lo), list(hi)), coords


FAMILY = [
    (spec, center.ray_names)
    for spec in enumerate_specs(4, 1)
    for codim in (2, 3)
    for center in enumerate_centers(spec, codim)
]


@functools.lru_cache(maxsize=None)
def _blowup(spec, center):
    return make_blowup(spec, CenterSpec(frozenset(center)))


@st.composite
def family_divisors(draw):
    bl = _blowup(*draw(st.sampled_from(FAMILY)))
    fan = bl.fan_xt if draw(st.booleans()) else bl.fan_x
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=fan.n_rays, max_size=fan.n_rays))
    return fan, tuple(coeffs)


def _vertex_maps(fan):
    """Reference vertex maps, one dim x dim solve per subset: (S, M_S, det_S)
    for every dim-subset S of rays with R_S invertible, where
    det_S = |det R_S| and M_S = det_S * R_S^-1, so the arrangement vertex
    {u : <u, v_i> = -a_i for i in S} is M_S (-a_S) / det_S."""
    maps = []
    for subset in itertools.combinations(range(fan.n_rays), fan.dim):
        try:
            rows, det = inverse([fan.rays[i] for i in subset])
        except ValueError:
            continue  # singular: not a vertex
        maps.append((subset, rows, abs(det)))
    return maps


def _python_box_matrix(fan):
    """(fields, slacks) from the reference vertex maps.  slacks (vertices x
    tested rays x rays, Python ints) maps a to det_S * (<vertex, v_rho> +
    a_rho), the slack of each vertex in every section inequality, as the
    product of the rays with scatter (-M_S scattered to the rays of S).
    fields are the plan's vertex maps, scatter to off; their tests keep the rows of slacks on T,
    the rays off S in ascending order, and reach is max(t, (V + 1) s + V,
    2 W s) for the largest L1 norms s of the vertex maps' rows, t of the
    slacks' rows and V of a ray, and W the largest |entry| of a ray."""
    maps = _vertex_maps(fan)
    n, dim = fan.n_rays, fan.dim
    scatter = np.zeros((len(maps), dim, n), dtype=np.int64)
    for j, (subset, rows, _det) in enumerate(maps):
        scatter[j][:, list(subset)] = [[-m for m in row] for row in rows]
    dets = np.array([[det] for _, _, det in maps], dtype=np.int64)
    s = max(sum(map(abs, row)) for _, rows, _ in maps for row in rows)
    slacks = np.array(fan.rays, dtype=object) @ scatter.astype(object)
    slacks[:, range(n), range(n)] += dets
    off = np.array([[r for r in range(n) if r not in subset] for subset, _, _ in maps]).T
    tests = slacks[range(len(maps)), off]
    v = max(sum(map(abs, ray)) for ray in fan.rays)
    w = max(abs(x) for ray in fan.rays for x in ray)
    reach = max(abs(slacks).sum(axis=2).max(), (v + 1) * s + v, 2 * w * s)
    return (scatter, dets, reach, tests.astype(np.int64), off), slacks


def _assert_same_box_matrix(fan, want):
    """fan's plan holds the reference vertex maps, and the rays off each
    vertex its tables were built from (kernels._vertex_maps) are the
    reference's."""
    got, off = _plan(fan), kernels._vertex_maps(fan)[4]
    scatter, dets, reach, tests = got.scatter, got.dets, got.reach, got.tests
    for a, b in ((scatter, want[0]), (dets, want[1]), (tests, want[3])):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    assert np.array_equal(off, want[4])
    assert reach == want[2] and type(reach) is int


def test_box_matrix_matches_per_subset_inverses():
    """The Picard-coordinate vertex maps (one p x p adjugate per ray subset)
    equal the per-subset dim x dim inverses, bit for bit, on every X and
    blow-up fan of the s + r <= 4, degree <= 1 family and on P^1..P^4.  A
    vertex's slack vanishes on the dim rays of S, so the tests kept on the
    p rays off S (T) lose nothing."""
    fans = [projective_space_fan(n) for n in range(1, 5)]
    fans += [build_projective_bundle_fan(spec) for spec in enumerate_specs(4, 1)]
    fans += [_blowup(*case).fan_xt for case in FAMILY]
    assert len(fans) == 4 + 16 + 362
    for fan in fans:
        want, slacks = _python_box_matrix(fan)
        on_t = np.zeros(slacks.shape[:2], dtype=bool)
        on_t[range(len(on_t)), want[4]] = True
        assert not slacks[~on_t].any()
        _assert_same_box_matrix(fan, want)


def _with_basis_shifted(fan, k):
    """fan with every basis divisor moved by k times the sum of the lattice
    rows, a principal divisor: the same classes, so a Z-basis still, with a
    B^-1 of entries near k."""
    shift = [k * sum(ray) for ray in fan.rays]
    basis = tuple(tuple(c + t for c, t in zip(bd, shift)) for bd in fan.basis_divisors)
    return replace(fan, basis_divisors=basis)


@pytest.mark.parametrize("k", [3, 2**40])
@pytest.mark.parametrize("case", [None] + list(BOX_TABLE))
def test_box_matrix_ignores_the_basis(case, k):
    """The vertex maps depend on the rays alone, however large the entries
    of B^-1 the basis gives: past the int64 bound the products are formed
    in Python ints (k = 2^40), and still give the int64 matrices."""
    fan = projective_space_fan(2) if case is None else _blowup(*case).fan_xt
    shifted = _with_basis_shifted(fan, k)
    assert max(abs(x) for row in shifted._basis_inverse for x in row) >= k
    _assert_same_box_matrix(shifted, _python_box_matrix(fan)[0])


def test_box_matrix_past_int64_raises():
    """A vertex map with an entry past int64 (the Hirzebruch fan of
    O + O(2^70) over P^1) is a BoxTooLarge naming the fan, not a wrapped
    value or an OverflowError."""
    fan = build_projective_bundle_fan(BundleSpec(1, (0, 2**70)))
    with pytest.raises(BoxTooLarge, match=re.escape(f"fan {fan.basis_tag}: vertex maps reach")):
        _plan(fan)


def test_rank_table_refuses_too_many_primitive_collections():
    """P^1 x P^1 blown up three times is a 7-ray surface with 14 primitive
    collections (its pairs of non-adjacent rays), whose rank table would
    rank 2^14 Taylor sets for minutes and past 1 GB: cohomology_dims raises
    BoxTooLarge naming the fan, m and the budget within a second."""
    bl = make_blowup(BundleSpec(1, (0, 0)), CenterSpec(frozenset({"b1", "f1"})))
    double = fan_module.star_subdivide(bl.fan_xt, CenterSpec(frozenset({"b1", "e"})))
    fan = fan_module.star_subdivide(double, CenterSpec(frozenset({"e", "e2"})))
    assert fan.n_rays == 7 and len(fan.primitive_collections) == 14
    t0 = time.perf_counter()
    with pytest.raises(BoxTooLarge) as info:
        cohomology_dims(fan, fan.pic_class((0,) * 5))
    assert time.perf_counter() - t0 < 1.0
    assert str(info.value) == (
        "fan X(s=1,a=(0, 0))+E+E+E: 14 primitive collections, 2^14 Taylor sets "
        "to rank (budget 10 collections)"
    )


def test_oracle_rejects_a_basis_that_is_not_a_z_basis():
    """The oracle reads Fan._basis_inverse, so a hand-built fan whose basis
    divisor is twice a generator of Pic is an InvalidSpec, not an answer."""
    fan = replace(projective_space_fan(2), basis_divisors=((0, 2, 0),))
    with pytest.raises(InvalidSpec, match="not a Z-basis"):
        cohomology_dims(fan, fan.pic_class((1,)))


@pytest.mark.parametrize("warm", [True, False])
def test_oracle_rejects_an_invalid_fan_warm_or_fresh(monkeypatch, warm):
    """A hand-built fan with P^2's labelled cones, whose rays put two cones
    on one side of a facet, is an InvalidSpec before anything is counted,
    whether a P^2 batch has filled the type's rank table in this process or
    the table is empty: the fan is checked where it enters the oracle, not
    per type."""
    if warm:
        p2 = projective_space_fan(2)
        assert cohomology_dims(p2, p2.pic_class((1,))) == (3, 0, 0)
    else:
        monkeypatch.setattr(kernels, "_RANK_TABLES", {})
    bad = replace(projective_space_fan(2), rays=((1, 1), (1, 0), (0, 1)))
    calls = _count_kernel_calls(monkeypatch)
    with pytest.raises(InvalidSpec, match="lie on one side of facet"):
        cohomology_dims(bad, bad.pic_class((0,)))
    assert calls == [] and "_oracle_plan" not in bad.__dict__
    assert warm or kernels._RANK_TABLES == {}


@pytest.mark.parametrize("n", [63, 100])
def test_projective_spaces_of_64_rays_and_more(n):
    """P^63 has 64 rays and P^100 has 101, past any int64 bit mask: the
    oracle holds support sets as membership rows, so O gets (1, 0, ..., 0)
    and O(-n-1), the canonical class, h^n = 1 (Bott)."""
    fan = projective_space_fan(n)
    assert cohomology_dims(fan, fan.pic_class((0,))) == (1,) + (0,) * n
    assert cohomology_dims(fan, fan.pic_class((-n - 1,))) == (0,) * n + (1,)


def _python_box(fan, coeffs):
    """Reference box in Python ints, one vertex map at a time."""
    floors, ceils = [], []
    for subset, rows, det in _vertex_maps(fan):
        rhs = [-coeffs[i] for i in subset]
        scaled = [sum(m * c for m, c in zip(row, rhs)) for row in rows]
        floors.append([x // det for x in scaled])
        ceils.append([-(-x // det) for x in scaled])
    lo = [min(col) - 1 for col in zip(*floors)]
    hi = [max(col) + 1 for col in zip(*ceils)]
    return lo, hi


@settings(max_examples=150, deadline=None)
@given(family_divisors())
def test_vertex_maps_match_per_subset_solves(divisor):
    """The per-fan vertex maps give, for every invertible ray subset S, the
    vertex of the arrangement on S, and every polytope box lies inside the
    box of those vertices, the arrangement box the budget once applied
    to."""
    fan, coeffs = divisor
    maps = {subset: (rows, det) for subset, rows, det in _vertex_maps(fan)}
    for subset in itertools.combinations(range(fan.n_rays), fan.dim):
        det_rs = determinant([fan.rays[i] for i in subset])
        assert (subset in maps) == (det_rs != 0), subset
        if not det_rs:
            continue
        rows, det = maps[subset]
        assert det == abs(det_rs)
        rhs = [-coeffs[i] for i in subset]
        scaled = [sum(m * c for m, c in zip(row, rhs)) for row in rows]
        # det_S * vertex satisfies <u, v_i> = -a_i for every i in S, exactly
        for i in subset:
            assert sum(x * v for x, v in zip(scaled, fan.rays[i])) == -det * coeffs[i]
    lo, hi = map(np.array, _python_box(fan, coeffs))
    _rows, _masks, plo, phi = _boxes(fan, [coeffs], _nonacyclic_masks(fan))
    assert (lo <= plo).all() and (plo <= phi).all() and (phi <= hi).all()


def _nonacyclic_masks(fan):
    """The support sets of fan's rank table, as bit masks (Python ints)."""
    return bit_masks(_support_ranks(fan)[0])


def _boxes(fan, coeffs, masks):
    """(rows, masks, lo, hi) of the T-divisors coeffs and the support sets
    of the bit masks in masks: _polytope_boxes's rows, lo and hi, from fan's
    plan with the tables and fold rows of masks' membership rows in place of
    its type's, and the bit mask of the row its support index gives each
    box.  The point budget is lifted past the count of any int64 box: these
    are the boxes' geometry, which the budget check inside _polytope_boxes
    would cut short."""
    plan = _plan(fan)
    members = membership(masks, fan.n_rays)
    off = kernels._vertex_maps(fan)[4]
    verts, on, low = _mask_tables(plan.scatter, plan.tests, off, members)
    plan = plan._replace(verts=verts, on=on, low=low, folds=kernels.Folds(fan.rays, members))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "MAX_BOX_POINTS", 1 << 64 * fan.dim)
        rows, lo, hi, index = _polytope_boxes(plan, coeffs)
    assert index.dtype == np.int64 and plan.folds.masks is members
    return rows, np.array(bit_masks(members[index]), dtype=np.int64), lo, hi


def _python_polytope_boxes(fan, coeffs, masks):
    """Reference polytope boxes of one T-divisor in Python ints: for each
    mask S, the lattice box [ceil(min), floor(max)] of the arrangement
    vertices of a + 1_S that meet every inequality of P_S, one vertex map at
    a time, when it holds a lattice point."""
    out = []
    for mask in masks:
        b = [c + (mask >> i & 1) for i, c in enumerate(coeffs)]
        floors, ceils = [], []
        for subset, rows, det in _vertex_maps(fan):
            scaled = [sum(-m * b[i] for m, i in zip(row, subset)) for row in rows]
            slack = [
                sum(x * v for x, v in zip(scaled, ray)) + det * b[r]
                for r, ray in enumerate(fan.rays)
            ]
            if all(s <= 0 if mask >> r & 1 else s >= 0 for r, s in enumerate(slack)):
                floors.append([x // det for x in scaled])
                ceils.append([-(-x // det) for x in scaled])
        if floors:
            lo = [min(col) for col in zip(*ceils)]
            hi = [max(col) for col in zip(*floors)]
            if all(a <= b for a, b in zip(lo, hi)):
                out.append((0, mask, lo, hi))
    return out


def _polytope_arrays(boxes, dim):
    """A list of (row, mask, lo, hi), as _python_polytope_boxes gives it, as
    the four int64 arrays (rows, masks, lo, hi) of _boxes."""
    rows, masks, lo, hi = zip(*boxes) if boxes else ((), (), (), ())
    return (
        np.array(rows, dtype=np.int64),
        np.array(masks, dtype=np.int64),
        np.array(lo, dtype=np.int64).reshape(-1, dim),
        np.array(hi, dtype=np.int64).reshape(-1, dim),
    )


def _assert_same_polytopes(got, boxes, dim):
    for a, b in zip(got, _polytope_arrays(boxes, dim), strict=True):
        assert a.dtype == np.int64 and np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_polytope_boxes_match_per_row_boxes(data):
    """A batch of rows, duplicates included, gets each row's polytope boxes
    in (row, mask) order, however SLACK_VALUES splits it into chunks: one
    row per chunk at 1 and around V * M (V vertices, M masks), three at
    3 V M + 1."""
    fan, first = data.draw(family_divisors())
    row = st.lists(st.integers(-30, 30), min_size=fan.n_rays, max_size=fan.n_rays)
    rows = [first] + data.draw(st.lists(row.map(tuple), max_size=4))
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))
    masks = _nonacyclic_masks(fan)
    want = [
        (i, mask, lo, hi)
        for i, coeffs in enumerate(rows)
        for _row, mask, lo, hi in _python_polytope_boxes(fan, coeffs, masks)
    ]
    values = len(_plan(fan).dets) * len(masks)
    for slack_values in (1, values - 1, values + 1, 3 * values + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "SLACK_VALUES", slack_values)
            got = _boxes(fan, rows, masks)
        _assert_same_polytopes(got, want, fan.dim)


def test_polytope_boxes_drop_empty_lattice_boxes():
    """P_S(a) can have vertices but no lattice point in their box: on the
    Hirzebruch fan of O + O(2) over P^1, S = {x0, x1, x3} and a = (3, 6, -2,
    2) give lo = [-7, -5], hi = [-7, -6].  No such box is formed, since the
    kernel divides by the box widths; every mask is checked against the
    reference."""
    fan = build_projective_bundle_fan(BundleSpec(1, (0, 2)))
    rows = [(3, 6, -2, 2), (5, 6, 3, -4)]
    masks = list(range(1 << fan.n_rays))
    want = [
        (i, mask, lo, hi)
        for i, coeffs in enumerate(rows)
        for _row, mask, lo, hi in _python_polytope_boxes(fan, coeffs, masks)
    ]
    got = _boxes(fan, rows, masks)
    _assert_same_polytopes(got, want, fan.dim)
    assert 0b1011 not in got[1].tolist()


def _guard_edge(fan):
    """The largest max|a| the int64 guard of _dims_of_divisors admits."""
    return (_INT64_MAX - 1) // _plan(fan).reach - 1


GUARD_ERROR = r"values bounded by \d+ \(int64 limit 9223372036854775807\)$"
BUDGET_ERROR = r"support set \d+: polytope box lo=.* points \(budget 100000000\)$"


@pytest.mark.parametrize("case", [None] + list(BOX_TABLE))
def test_polytope_product_guard(case):
    """The largest coefficient the int64 guard admits gives the exact
    polytope boxes; one more raises BoxTooLarge naming the T-divisor, from
    the pass, where the guard sits."""
    fan = projective_space_fan(2) if case is None else _blowup(*case).fan_xt
    masks = _nonacyclic_masks(fan)
    for sign in (1, -1):
        coeffs = [0] * fan.n_rays
        coeffs[-1] = sign * _guard_edge(fan)
        got = _boxes(fan, [coeffs], masks)
        want = _python_polytope_boxes(fan, coeffs, masks)
        assert want
        _assert_same_polytopes(got, want, fan.dim)
        coeffs[-1] += sign
        past = re.escape(f"T-divisor {tuple(coeffs)}: ") + GUARD_ERROR
        with pytest.raises(BoxTooLarge, match=past):
            _dims_of_divisors(fan, [coeffs])


@pytest.mark.parametrize("case", [None] + list(BOX_TABLE))
def test_guard_refuses_only_over_budget_arrangement_boxes(case):
    """The guard bounds the kernel's values too, so its edge lies below the
    edge of the box product alone; but one step past it, the arrangement
    box, which the budget once applied to, is already far over budget."""
    fan = projective_space_fan(2) if case is None else _blowup(*case).fan_xt
    for sign in (1, -1):
        coeffs = [0] * fan.n_rays
        coeffs[-1] = sign * (_guard_edge(fan) + 1)
        lo, hi = _python_box(fan, coeffs)
        assert prod(b - a + 1 for a, b in zip(lo, hi)) > kernels.MAX_BOX_POINTS
        with pytest.raises(BoxTooLarge, match=GUARD_ERROR):
            _dims_of_divisors(fan, [coeffs])


# h^0 of the principal T-divisors one step below, at and one step above
# two edges, or None where the pass raises BoxTooLarge: max|a| * s <
# 2^63 - 1 for the largest L1 norm s of a vertex map's row ("box"), which
# once guarded the arrangement boxes on its own, and the guard of
# _dims_of_divisors ("polytope").  A class whose lift reaches either edge
# raises: its polytope boxes are far over budget, or it is past the guard.
PRINCIPAL_H0_AT_EDGE = {"box": (None, None, None), "polytope": (1, 1, None)}


@pytest.mark.parametrize("edge", list(PRINCIPAL_H0_AT_EDGE))
@pytest.mark.parametrize("case", [None] + list(BOX_TABLE))
def test_guard_edges_through_the_pass(case, edge):
    """The principal T-divisors are counted exactly in int64 up to the
    guard's edge, and every input past it raises BoxTooLarge naming the
    bound, through cohomology_dims_many for classes and through the pass
    itself for T-divisors."""
    fan = projective_space_fan(2) if case is None else _blowup(*case).fan_xt
    s = int(abs(_plan(fan).scatter).sum(axis=2).max())
    edges = {"box": (_INT64_MAX - 1) // s, "polytope": _guard_edge(fan)}
    # an axis on which the rays reach 1, so t e_k has max|a| = t
    k = next(d for d in range(fan.dim) if max(abs(v[d]) for v in fan.rays) == 1)
    for step, h0 in zip((-1, 0, 1), PRINCIPAL_H0_AT_EDGE[edge]):
        t = edges[edge] + step
        for sign in (1, -1):
            single = [0] * fan.n_rays
            single[-1] = sign * t
            cls = fan.class_of_divisor(single)
            assert max(map(abs, _lift(fan, [cls.coords])[0])) == t
            past = t > _guard_edge(fan)
            with pytest.raises(BoxTooLarge, match=GUARD_ERROR if past else BUDGET_ERROR):
                cohomology_dims_many(fan, [cls])
            principal = [-sign * t * v[k] for v in fan.rays]
            if h0 is None:
                with pytest.raises(BoxTooLarge, match=GUARD_ERROR):
                    _dims_of_divisors(fan, [principal])
            else:
                assert _dims_of_divisors(fan, [principal]) == [(h0,) + (0,) * fan.dim]


def _every_mask(lo, hi, rays, coeffs):
    """The counts of every support set over each box (rows of lo, hi and
    coeffs), from one kernel batch holding each box once per mask: a
    (boxes x 2^R) list."""
    nmasks = 1 << len(rays)
    counts = kernels.count_support_sets(
        np.repeat(lo, nmasks, axis=0),
        np.repeat(hi, nmasks, axis=0),
        np.repeat(coeffs, nmasks, axis=0),
        np.tile(np.arange(nmasks), len(lo)),
        kernels.Folds(rays, membership(range(nmasks), len(rays))),
    )
    return counts.reshape(len(lo), nmasks).tolist()


def _full_box_counts(fan, coeffs):
    """Reference: the support-set counts over a's whole arrangement box, from
    one mask per box point."""
    lo, hi = _python_box(fan, coeffs)
    axes = np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(lo, hi)), indexing="ij")
    points = np.stack(axes, axis=-1).reshape(-1, fan.dim)
    support = points @ np.array(fan.rays).T < -np.array(coeffs)
    masks = (support << np.arange(fan.n_rays)).sum(axis=1)
    return np.bincount(masks, minlength=1 << fan.n_rays).tolist()


POLYTOPE_FANS = [
    projective_space_fan(2),
    make_blowup(BundleSpec(2, (0, 0)), CenterSpec(frozenset({"b1", "b2", "f1"}))).fan_xt,
] + [make_blowup(spec, CenterSpec(frozenset(center))).fan_xt for spec, center in BOX_TABLE]


@st.composite
def small_divisors(draw):
    fan = draw(st.sampled_from(POLYTOPE_FANS))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=fan.n_rays, max_size=fan.n_rays))
    return fan, coeffs


@settings(max_examples=120, deadline=None)
@given(small_divisors())
@example((POLYTOPE_FANS[0], [-2, 1, 3]))  # P_S empty for S = every ray
@example((POLYTOPE_FANS[0], [-1, 0, 0]))  # every P_S empty
def test_polytope_pass_matches_full_box_count(divisor):
    """Per non-acyclic support set S, the polytope box counts exactly the
    characters the whole arrangement box has with support S, and h matches
    the full-box count weighted by every support complex's ranks."""
    fan, coeffs = divisor
    full = _full_box_counts(fan, coeffs)
    want = [0] * (fan.dim + 1)
    for mask in np.flatnonzero(full).tolist():
        ranks = _induced_ranks(fan, mask)
        want = [h + int(full[mask]) * r for h, r in zip(want, ranks)]
    assert _dims_of_divisors(fan, [coeffs]) == [tuple(want)]

    lo, hi = map(np.array, _python_box(fan, coeffs))
    masks = _nonacyclic_masks(fan)
    polytopes = _boxes(fan, [coeffs], masks)
    _assert_same_polytopes(polytopes, _python_polytope_boxes(fan, coeffs, masks), fan.dim)
    _rows, pmasks, plo, phi = polytopes
    # a support set with characters has a non-empty polytope
    assert {m for m in masks if full[m]} <= set(pmasks.tolist())
    # P_S lies in the bounded chamber union its inequalities loosen to, whose
    # vertices are arrangement vertices of a: no polytope box leaves the
    # arrangement box
    assert (lo <= plo).all() and (plo <= phi).all() and (phi <= hi).all()
    if len(pmasks):
        folds = kernels.Folds(fan.rays, membership(pmasks.tolist(), fan.n_rays))
        counts = kernels.count_support_sets(
            plo, phi, [coeffs] * len(pmasks), np.arange(len(pmasks)), folds
        )
        assert counts.tolist() == [full[mask] for mask in pmasks.tolist()]


def test_exact_boxes_count_what_padded_boxes_count(monkeypatch):
    """Every box of every 4/1 certify batch, padded by 1 on every side,
    holds no further point with the box's support set: the exact lattice
    box of the qualifying vertices holds all of the bounded P_S, so a wrong
    vertex set would show here."""
    calls = _count_kernel_calls(monkeypatch)
    for spec, center in FAMILY:
        report, err = run_case(spec, CenterSpec(frozenset(center)), cache=False)
        assert err is None and report.all_passed
    assert len(calls) == len(FAMILY)
    monkeypatch.undo()
    for lo, hi, coeffs, index, folds in calls:
        counts = kernels.count_support_sets(lo, hi, coeffs, index, folds)
        padded = kernels.count_support_sets(lo - 1, hi + 1, coeffs, index, folds)
        assert np.array_equal(counts, padded)


def test_serre_duality(bl_p2p1):
    rng = random.Random(11)
    fan = bl_p2p1.fan_xt
    k = fan.canonical_class()
    n = fan.dim
    for _ in range(10):
        cls = fan.pic_class(tuple(rng.randint(-3, 3) for _ in range(3)))
        h = cohomology_dims(fan, cls)
        hd = cohomology_dims(fan, k - cls)
        assert h == tuple(reversed(hd)), (cls.coords, h, hd)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(list(BOX_TABLE)),
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
)
def test_serre_duality_on_dim4_blowups(case, coords):
    """h^i(L) == h^(n-i)(K - L) on random classes, through the whole oracle."""
    fan = _blowup(*case).fan_xt
    cls = fan.pic_class(coords)
    n = fan.dim
    h = cohomology_dims(fan, cls)
    hd = cohomology_dims(fan, fan.canonical_class() - cls)
    assert [h[i] for i in range(n + 1)] == [hd[n - i] for i in range(n + 1)]


def test_euler_pairing_p2():
    fan = projective_space_fan(2)
    o = fan.pic_class((0,))
    for d in range(-4, 5):
        assert euler_pairing(fan, o, fan.pic_class((d,))) == (d + 1) * (d + 2) // 2


def test_disk_cache_read_write(tmp_path):
    fan = projective_space_fan(2)
    cache = DiskCache(str(tmp_path))
    cls = fan.pic_class((4,))
    value = cohomology_dims(fan, cls, cache=cache)
    assert value == (15, 0, 0)
    assert cache.get(fan) == {(4,): (15, 0, 0)}
    # a poisoned entry that put writes, checksum and all, replaces the file
    # whole and is believed by a fresh fan object: proves the read path
    cache.put(fan, {(4,): (99, 0, 0)})
    fresh = projective_space_fan(2)
    assert cohomology_dims(fresh, fresh.pic_class((4,)), cache=cache) == (99, 0, 0)
    # the file is the only copy: the fan object that computed the value
    # believes it too, also a file it reads for the first time
    assert cohomology_dims(fan, cls, cache=cache) == (99, 0, 0)
    other = DiskCache(str(tmp_path / "other"))
    other.put(fan, {(4,): (99, 0, 0)})
    assert cohomology_dims(fan, cls, cache=other) == (99, 0, 0)
    # and without a cache the value is computed afresh
    assert cohomology_dims(fan, cls) == (15, 0, 0)


def test_put_writes_what_json_dumps_writes(tmp_path):
    """put's file is byte for byte the header line, the SHA-256 of the body
    and the body, json.dumps of the [coords, h] entries, for negative, zero,
    multi-digit and int64-extreme entries, and get reads them back."""
    fan = make_blowup(BundleSpec(1, (0, 1)), CenterSpec(frozenset({"b1", "f1"}))).fan_xt
    entries = {
        (0, 0, 0): (1, 0, 0),
        (-1, 12, -305): (0, 7, 0),
        (123456789012, -9, 10): (10, 0, 4567),
        (2**63 - 1, -(2**63), 0): (2**63 - 1, 0, 1),
    }
    cache = DiskCache(str(tmp_path))
    cache.put(fan, entries)
    body = json.dumps([[list(c), list(h)] for c, h in entries.items()])
    with open(cache._path(fan)[0]) as fh:
        assert fh.read() == _cache_file(_header(fan), body)
    assert cache.get(fan) == entries


def test_cache_file_is_keyed_by_rays_cones_and_basis(bl_p1p1):
    """The same case built twice maps to the same file, as does a fan with
    other ray names and another basis tag, and the isomorphic blow-up of
    P^1 x P^1 at b0,f1 (b0 <-> b1 keeps H and xi); a fan that is not
    isomorphic to it (F_1 blown up at b1,f1), or other basis divisors, map
    to another file.  The header is the source digest and the key."""
    cache = DiskCache("root")
    fan = bl_p1p1.fan_xt
    path = cache._path(fan)
    assert cache._path(make_blowup(bl_p1p1.spec, bl_p1p1.center).fan_xt) == path
    names = tuple(n.upper() for n in fan.ray_names)
    assert cache._path(replace(fan, ray_names=names, basis_tag="other")) == path
    twin = make_blowup(bl_p1p1.spec, CenterSpec(frozenset({"b0", "f1"}))).fan_xt
    assert twin.rays != fan.rays and cache._path(twin) == path
    other_fan = make_blowup(BundleSpec(1, (0, 1)), bl_p1p1.center).fan_xt
    other_basis = replace(fan, basis_divisors=fan.basis_divisors[::-1])
    assert len({path[0], cache._path(other_fan)[0], cache._path(other_basis)[0]}) == 3
    p2 = projective_space_fan(2)
    # every ray of P^2 has class H; the cones {1, 2}, {0, 2}, {0, 1} as masks
    header = cohomology._source_digest().encode() + b" [[[1], [1], [1]], [3, 5, 6]]"
    assert cache._path(p2) == (
        os.path.join("root", hashlib.sha256(header).hexdigest() + ".jsonl"), header
    )


def test_a_fan_with_its_rays_relabelled_shares_the_file(tmp_path, monkeypatch, bl_p2p1):
    """P^2 x P^1 blown up at b1,b2,f1 with its rays in another order (the
    ray tuple, the names, the cone indices and the basis divisors' entries
    permuted alike) is the same variety with the same basis: it reads the
    file the fan filled, without a kernel call, and gets the h-vectors it
    computes without a cache."""
    fan = bl_p2p1.fan_xt
    perm = [4, 5, 0, 3, 2, 1]  # new ray k is old ray perm[k]
    assert sorted(perm) == list(range(fan.n_rays))
    pos = {old: new for new, old in enumerate(perm)}
    relabelled = Fan(
        dim=fan.dim,
        ray_names=tuple(fan.ray_names[i] for i in perm),
        rays=tuple(fan.rays[i] for i in perm),
        max_cones=tuple(tuple(sorted(pos[i] for i in cone)) for cone in fan.max_cones),
        basis_tag=fan.basis_tag,
        basis_divisors=tuple(tuple(bd[i] for i in perm) for bd in fan.basis_divisors),
    )
    assert relabelled.rays != fan.rays
    cache = DiskCache(str(tmp_path))
    assert cache._path(relabelled) == cache._path(fan)
    coords = list(itertools.product(range(-2, 2), range(-1, 2), range(-1, 3)))
    expected = cohomology_dims_many(fan, [fan.pic_class(c) for c in coords], cache)
    calls = _count_kernel_calls(monkeypatch)
    classes = [relabelled.pic_class(c) for c in coords]
    assert cohomology_dims_many(relabelled, classes, cache) == expected
    assert calls == []
    assert cohomology_dims_many(relabelled, classes) == expected
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(cache._path(fan)[0])]


def test_same_ray_classes_with_other_cones_get_another_file(bl_p1p1):
    """A planted fan with the rays and basis of P^1 x P^1 blown up at b1,f1,
    so the same sorted class rows, but five cones in which ray 0 lies in
    three: the fan's five cones form a 5-cycle, where every ray lies in
    two, so no relabelling of the rays matches them, and the file differs.
    The planted cones are no fan, so the planted fan has no B^-1 of its
    own: it gets fan's, as star_subdivide gives a blow-up its parent's."""
    fan = bl_p1p1.fan_xt
    planted = replace(fan, max_cones=((0, 1), (1, 2), (0, 2), (0, 3), (3, 4)))
    planted.__dict__["_basis_inverse"] = fan._basis_inverse
    assert [sum(rho in cone for cone in fan.max_cones) for rho in range(5)] == [2] * 5
    assert sum(0 in cone for cone in planted.max_cones) == 3
    rows, masks = json.loads(_header(fan).split(" ", 1)[1])
    planted_rows, planted_masks = json.loads(_header(planted).split(" ", 1)[1])
    assert planted_rows == rows and planted_masks != masks
    cache = DiskCache("root")
    assert cache._path(planted)[0] != cache._path(fan)[0]


def test_cache_tells_apart_fans_that_differ_only_in_basis_divisors(tmp_path):
    """O(1, -3) is one bundle on a and another on b, whose basis divisors
    are a's reversed; a cache shared by both gives each its own h-vector."""
    a = build_projective_bundle_fan(BundleSpec(1, (0, 2)))
    b = replace(a, basis_divisors=a.basis_divisors[::-1])
    assert cohomology_dims(a, a.pic_class((1, -3))) == (0, 0, 2)
    assert cohomology_dims(b, b.pic_class((1, -3))) == (0, 2, 0)
    cache = DiskCache(str(tmp_path))
    assert cohomology_dims(a, a.pic_class((1, -3)), cache=cache) == (0, 0, 2)
    assert cohomology_dims(b, b.pic_class((1, -3)), cache=cache) == (0, 2, 0)


BASIS_CHANGE_FANS = [
    build_projective_bundle_fan(BundleSpec(1, (0, 2))),
    build_projective_bundle_fan(BundleSpec(2, (0, 1, 1))),
    _blowup(BundleSpec(1, (0, 0)), ("b1", "f1")).fan_xt,
    _blowup(BundleSpec(2, (0, 1)), ("b1", "b2", "f1")).fan_xt,
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cache_agrees_with_no_cache_under_a_change_of_basis(data):
    """A fan's basis divisors permuted, or one added to another (the same
    tag): with one cache filled by the fan first, the changed fan's cached
    h-vectors are its uncached ones."""
    fan = data.draw(st.sampled_from(BASIS_CHANGE_FANS))
    basis = list(fan.basis_divisors)
    p = len(basis)
    if data.draw(st.booleans()):
        basis = data.draw(st.permutations(basis))
    else:
        i, j = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
        basis[j] = tuple(map(operator.add, basis[j], basis[i]))
    changed = replace(fan, basis_divisors=tuple(basis))
    coords = st.tuples(*[st.integers(-4, 4)] * p)
    classes = data.draw(st.lists(coords, min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as root:
        cache = DiskCache(root)
        cohomology_dims_many(fan, [fan.pic_class(c) for c in classes], cache)
        changed_classes = [changed.pic_class(c) for c in classes]
        assert cohomology_dims_many(changed, changed_classes, cache) == cohomology_dims_many(
            changed, changed_classes
        )


def test_library_calls_do_no_disk_io(tmp_path, monkeypatch):
    """Without a DiskCache the oracle leaves the disk alone, wherever
    EXCOL_CACHE_DIR points; cache=False, as the oracle-scan benchmark
    passes it, is no DiskCache either."""
    monkeypatch.setenv("EXCOL_CACHE_DIR", str(tmp_path))
    fan = projective_space_fan(2)
    assert cohomology_dims(fan, fan.pic_class((4,))) == (15, 0, 0)
    assert cohomology_dims(fan, fan.pic_class((-6,)), cache=False) == (0, 0, 10)
    assert euler_pairing(fan, fan.pic_class((0,)), fan.pic_class((-3,))) == 1
    assert certify(fan, [fan.pic_class((d,)) for d in range(3)]).all_passed
    assert list(tmp_path.iterdir()) == []


def _count_kernel_calls(monkeypatch):
    calls = []
    real = kernels.count_support_sets

    def counted(*args):
        lo, hi = args[:2]
        assert (lo <= hi).all()
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "count_support_sets", counted)
    return calls


def _header(fan, version=None):
    """The header line of fan's file: the source digest (or version), then
    json.dumps of the fan's ray classes, sorted, and its max cones as bit
    masks over the rays in that order (equal classes keep their index
    order), sorted."""
    version = version or cohomology._source_digest()
    n = fan.n_rays
    units = [[int(i == rho) for i in range(n)] for rho in range(n)]
    rows = [list(fan.class_of_divisor(unit).coords) for unit in units]
    order = sorted(range(n), key=lambda rho: rows[rho])
    masks = sorted(sum(2 ** order.index(rho) for rho in cone) for cone in fan.max_cones)
    return f"{version} {json.dumps([[rows[rho] for rho in order], masks])}\n"


def _cache_file(header, body, signed=None):
    """A cache file: header, the SHA-256 of signed (by default the body)
    and the body."""
    digest = hashlib.sha256((body if signed is None else signed).encode()).hexdigest()
    return f"{header}{digest}\n{body}"


P2 = projective_space_fan(2)
# what put writes for O(4) on P^2, and what a file that reads it holds
GOOD_BODY = "[[[4], [15, 0, 0]]]"
GOOD_FILE = _cache_file(_header(P2), GOOD_BODY)


def _edited(body):
    """P2's file with its body edited to body, under the old checksum."""
    return _cache_file(_header(P2), body, signed=GOOD_BODY)


BAD_CACHE_FILES = {
    "wrong version": _cache_file(_header(P2, "0" * 64), "[[[4], [99, 0, 0]]]"),
    "foreign fan": _cache_file(_header(projective_space_fan(3)), "[[[4], [99, 0, 0, 0]]]"),
    "old format": "[99, 0, 0]\n",
    "append layout": _header(P2) + "[[4], [99, 0, 0]]\n",
    "edited entry": _edited("[[[4], [99, 0, 0]]]"),
    "wrong-length h": _edited("[[[4], [99, 0]]]"),
    "negative h": _edited("[[[4], [99, -1, 0]]]"),
    "float coords": _edited("[[[4.0], [99, 0, 0]]]"),
    "bool h": _edited("[[[4], [99, false, 0]]]"),
    # a write torn after the entry of O(3): the checksum is the whole body's
    "truncated last line": _cache_file(
        _header(P2), "[[[3], [10, 0, 0]], [[4], [99, 0, 0]]]"
    )[:-8],
    # valid JSON, but not what put wrote under that checksum
    "no spaces": _edited("[[[4],[99,0,0]]]"),
    "negative zero": _edited("[[[-0], [99, 0, 0]]]"),
    "trailing space": _edited("[[[4], [99, 0, 0]]] "),
    "CRLF ending": _cache_file(_header(P2), "[[[4], [99, 0, 0]]]").replace("\n", "\r\n"),
    # the checksum matches, but the body does not parse as a list of entries
    "non-JSON line": _cache_file(_header(P2), "{4: [99, 0, 0]}"),
    "past json's int size limit": _cache_file(
        _header(P2), f"[[[1{'0' * 5000}], [99, 0, 0]], [[4], [1{'0' * 5000}, 0, 0]]]"
    ),
    "nested past the recursion limit": _cache_file(_header(P2), "[" * 10**5 + "]" * 10**5),
    "not a list of entries": _cache_file(_header(P2), "[4, 99]"),
}


@pytest.mark.parametrize("name", list(BAD_CACHE_FILES))
def test_malformed_cache_file_is_recomputed(tmp_path, monkeypatch, name):
    """A file whose header or checksum does not match, or whose body does
    not parse as a list of entries, reads as no entry at all, not as some
    other class: its class is recomputed, and the file is replaced whole by
    a good one holding the recomputed entry, with no temp file left."""
    cache = DiskCache(str(tmp_path))
    fan = projective_space_fan(2)
    with open(cache._path(fan)[0], "w") as fh:
        fh.write(BAD_CACHE_FILES[name])
    calls = _count_kernel_calls(monkeypatch)
    assert cohomology_dims(fan, fan.pic_class((4,)), cache=cache) == (15, 0, 0)
    assert len(calls) == 1
    assert cache.get(fan) == {(4,): (15, 0, 0)}
    assert [p.read_text() for p in tmp_path.iterdir()] == [GOOD_FILE]
    fresh = projective_space_fan(2)
    assert cohomology_dims(fresh, fresh.pic_class((4,)), cache=cache) == (15, 0, 0)
    assert len(calls) == 1
    if name == "truncated last line":
        # a damaged file is discarded whole: the complete entry before the
        # tear is recomputed too
        assert cohomology_dims(fan, fan.pic_class((3,)), cache=cache) == (10, 0, 0)
        assert len(calls) == 2


def test_a_file_of_another_source_digest_is_not_read(tmp_path, monkeypatch):
    """The version is the SHA-256 of the package's source, its modules in
    sorted path order: a file written under another digest is another file,
    never read, and a library call without a DiskCache computes no digest
    (so reads no source)."""
    sources = [path.read_bytes() for path in sorted(PACKAGE_DIR.glob("*.py"))]
    assert cohomology._source_digest() == hashlib.sha256(b"".join(sources)).hexdigest()
    fan = projective_space_fan(2)
    cache = DiskCache(str(tmp_path))
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_source_digest", lambda: "0" * 64)
        cache.put(fan, {(4,): (99, 0, 0)})
        assert cohomology_dims(fan, fan.pic_class((4,)), cache=cache) == (99, 0, 0)
    calls = _count_kernel_calls(monkeypatch)
    assert cache.get(fan) == {}
    assert cohomology_dims(fan, fan.pic_class((4,)), cache=cache) == (15, 0, 0)
    assert len(calls) == 1
    assert len(list(tmp_path.iterdir())) == 2
    cohomology._source_digest.cache_clear()
    assert cohomology_dims(fan, fan.pic_class((5,))) == (21, 0, 0)
    assert cohomology._source_digest.cache_info().misses == 0


def test_the_source_digest_reads_every_module_the_oracle_imports(monkeypatch):
    """Every package module that cohomology reaches through the imports
    test_independence parses is a file _source_digest reads, so an edit to
    any of them starts every fan's cache file afresh."""
    oracle = {"cohomology"} | _reachable(_import_graph(), "cohomology")
    # the walk must see real edges, or the check below would pass vacuously
    assert {"kernels", "fan", "intlinalg", "errors"} <= oracle
    read = []
    monkeypatch.setattr(
        cohomology, "open", lambda path, *a: read.append(path) or open(path, *a), raising=False
    )
    cohomology._source_digest.cache_clear()
    cohomology._source_digest()
    want = {(PACKAGE_DIR / f"{name}.py").resolve() for name in oracle}
    assert want <= {Path(path).resolve() for path in read}


def test_a_failed_put_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    """A put whose write raises OSError (a full disk, say) raises it, and
    leaves the fan's file as it was and no temp file behind."""
    fan = projective_space_fan(2)
    cache = DiskCache(str(tmp_path))
    assert cohomology_dims(fan, fan.pic_class((4,)), cache=cache) == (15, 0, 0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def full(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch, pytest.raises(OSError, match="No space"):
        patch.setattr(os, "write", full)
        cohomology_dims(fan, fan.pic_class((3,)), cache=cache)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert cache.get(fan) == {(4,): (15, 0, 0)}


def test_box_outside_int64_is_rejected():
    """A principal divisor far out has a 3x3 arrangement box (Python-int
    reference) and one lattice point, whose kernel values would overflow
    int64; the pass must raise, not wrap."""
    fan = projective_space_fan(2)
    m = (2**61 - 1, 2**61 - 1)
    coeffs = tuple(-sum(x * y for x, y in zip(m, ray)) for ray in fan.rays)
    lo, hi = _python_box(fan, coeffs)
    assert [b - a + 1 for a, b in zip(lo, hi)] == [3, 3]
    with pytest.raises(BoxTooLarge) as info:
        _dims_of_divisors(fan, [coeffs])
    assert str(info.value) == (
        "T-divisor (4611686018427387902, -2305843009213693951, "
        "-2305843009213693951): values bounded by 36893488147419103224 "
        "(int64 limit 9223372036854775807)"
    )


def _brute_force_sweep(lo, hi, rays, coeffs):
    """Reference sweep: visit every box point and build its mask by hand."""
    counts = [0] * (1 << len(rays))
    for u in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        mask = 0
        for r, (ray, c) in enumerate(zip(rays, coeffs)):
            if sum(x * y for x, y in zip(u, ray)) < -c:
                mask |= 1 << r
        counts[mask] += 1
    return counts


def _assert_kernel_matches_brute_force(lo, hi, rays, coeffs):
    """Every mask of every box of the batch, against _brute_force_sweep."""
    counts = _every_mask(lo, hi, rays, coeffs)
    for b in range(len(lo)):
        assert counts[b] == _brute_force_sweep(lo[b], hi[b], rays, coeffs[b])
        assert sum(counts[b]) == np.prod([y - x + 1 for x, y in zip(lo[b], hi[b])])


def test_kernel_matches_brute_force():
    """Random batches of one to four boxes, with widths 1 to 6, in dims 1 to 3."""
    rng = random.Random(3)
    dims = [1, 1, 2, 2, 3, 3] + [rng.randint(1, 3) for _ in range(6)]
    for n in dims:
        nrays = rng.randint(2, 5)
        rays = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(nrays)]
        nboxes = rng.randint(1, 4)
        coeffs = [[rng.randint(-3, 3) for _ in range(nrays)] for _ in range(nboxes)]
        lo = [[rng.randint(-4, 1) for _ in range(n)] for _ in range(nboxes)]
        hi = [[x + rng.randint(0, 5) for x in row] for row in lo]
        _assert_kernel_matches_brute_force(lo, hi, rays, coeffs)


# Batches of boxes (lo, hi).  The kernel's interval axis minimises the
# batch's rest points (the points over the other axes), so it is the axis
# named in each comment.
@pytest.mark.parametrize(
    "lo, hi",
    [
        # dim 1, and width 1 on the interval axis (0)
        ([[-4], [0]], [[5], [0]]),
        # a width-2 rest axis, and width 2 on the interval axis (0)
        ([[-3, -1], [0, 0]], [[5, 0], [1, 3]]),
        # a width-1 rest axis, and width 1 on the interval axis (0)
        ([[-4, 2, -1], [0, -1, 0]], [[4, 2, 1], [0, 1, 2]]),
        # interval axis 1, width 1 on a rest axis
        ([[3, -2], [-1, 0]], [[3, 2], [0, 4]]),
        # interval axis 2, width 2 on it in the second box
        ([[0, -1, -2], [1, 0, 0]], [[1, 1, 2], [2, 0, 1]]),
        # dim 4, interval axis 3
        ([[-2, -1, 0, -2], [0, 0, 0, -6]], [[6, 1, 1, 0], [1, 1, 1, 5]]),
    ],
)
@pytest.mark.parametrize("chunk_points", [1, 2, 3])
def test_slab_kernel_matches_brute_force(monkeypatch, lo, hi, chunk_points):
    """Chunks of 1, 2 or 3 rest points, so chunk boundaries fall inside the
    boxes and between them."""
    rng = random.Random(len(lo[0]) * 10 + chunk_points)
    monkeypatch.setattr(kernels, "CHUNK_POINTS", chunk_points)
    for _ in range(3):
        rays = [[rng.randint(-2, 2) for _ in lo[0]] for _ in range(rng.randint(2, 4))]
        coeffs = [[rng.randint(-3, 3) for _ in rays] for _ in lo]
        _assert_kernel_matches_brute_force(lo, hi, rays, coeffs)


_induced_ranks = functools.cache(induced_ranks)


def _dense(fan):
    """fan's rank rows rebuilt into one row per mask of all 2^n_rays."""
    members, ranks = _support_ranks(fan)
    table = np.zeros((1 << fan.n_rays, fan.dim + 1), dtype=np.int64)
    table[bit_masks(members)] = ranks
    return table


def _labelled_types(max_dim=4):
    """{max_cones: fan} over P^1..P^max_dim and the X and blow-up fans of
    the s + r <= max_dim, degree <= 1 family; max_dim 4 gives the types
    test_rank_tables_frozen covers."""
    fans = [projective_space_fan(n) for n in range(1, max_dim + 1)]
    for spec in enumerate_specs(max_dim, 1):
        fans.append(build_projective_bundle_fan(spec))
        for codim in (2, 3):
            fans.extend(make_blowup(spec, c).fan_xt for c in enumerate_centers(spec, codim))
    return {fan.max_cones: fan for fan in fans}


@pytest.mark.parametrize(
    "spec, center",
    [
        (BundleSpec(2, (0, 1)), ("b1", "b2", "f1")),
        (BundleSpec(2, (0, 1, 2)), ("b1", "f1")),
    ],
)
def test_rank_table_matches_support_complexes(spec, center):
    fan = make_blowup(spec, CenterSpec(frozenset(center))).fan_xt
    members, ranks = _support_ranks(fan)
    assert members.dtype == np.int64 and members.shape == (len(ranks), fan.n_rays)
    assert set(members.flat) <= {0, 1}
    masks = bit_masks(members)
    assert masks == sorted(masks) and ranks.any(axis=1).all()
    assert [tuple(row) for row in _dense(fan).tolist()] == [
        _induced_ranks(fan, mask) for mask in range(1 << fan.n_rays)
    ]


def test_rank_tables_match_support_complexes_over_family():
    """On the 4/1 types and one degree-2 type, every row of every table is
    the directly computed rank vector of its support complex, and the
    direct ranks of S and of its complement are mirror images (Alexander
    duality on the boundary sphere), as dense_rank_table assumes.  On the
    215 further types of 5/1, the rows are the nonzero rows of
    dense_rank_table."""
    types = _labelled_types()
    assert len(types) == 137
    # and one degree-2 type outside the family
    fan = make_blowup(BundleSpec(2, (0, 1, 2)), CenterSpec(frozenset({"b1", "f1"}))).fan_xt
    types[fan.max_cones] = fan
    for cones, fan in types.items():
        full = (1 << fan.n_rays) - 1
        table = [tuple(row) for row in _dense(fan).tolist()]
        for mask in range(full + 1):
            direct = _induced_ranks(fan, mask)
            assert table[mask] == direct, (cones, mask)
            assert _induced_ranks(fan, full ^ mask) == direct[::-1], (cones, mask)
    more = {cones: fan for cones, fan in _labelled_types(5).items() if cones not in types}
    assert len(more) == 215
    for cones, fan in more.items():
        members, ranks = _support_ranks(fan)
        reference = dense_rank_table(fan)
        nonzero = np.flatnonzero(reference.any(axis=1))
        assert bit_masks(members) == nonzero.tolist(), cones
        assert ranks.tolist() == reference[nonzero].tolist(), cones


def test_rank_table_makes_at_most_2_to_the_m_rank_calls(monkeypatch):
    """A fresh table of a type with m primitive collections makes at most
    2^m rational_rank calls, one per Taylor basis set J at most, and its
    nonzero rows are unions of primitive collections; a second fan of the
    type makes none."""
    monkeypatch.setattr(kernels, "_RANK_TABLES", {})
    calls = []
    real = kernels.rational_rank

    def counted(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(kernels, "rational_rank", counted)
    total = 0
    for fan in _labelled_types(3).values():
        calls.clear()
        members, _ranks = _support_ranks(fan)
        prims = [sum(1 << i for i in p) for p in fan.primitive_collections]
        assert len(calls) <= 1 << len(prims)
        total += len(calls)
        unions = {
            functools.reduce(operator.or_, J, 0)
            for k in range(len(prims) + 1)
            for J in itertools.combinations(prims, k)
        }
        assert set(bit_masks(members)) <= unions
    assert total
    spec, center = BundleSpec(2, (0, 0, 1)), CenterSpec(frozenset({"b1", "f1"}))
    _support_ranks(make_blowup(spec, center).fan_xt)
    calls.clear()
    _support_ranks(make_blowup(spec, center).fan_xt)
    assert calls == []


def test_rank_tables_frozen():
    """One digest over the rank table of every labelled type of P^1..P^4 and
    of the s + r <= 4, degree <= 1 family, X and blow-up fans alike, each
    rebuilt with one row per mask."""
    types = _labelled_types()
    digest = hashlib.sha256()
    for cones in sorted(types):
        digest.update(json.dumps([cones, _dense(types[cones]).tolist()]).encode())
    assert len(types) == 137
    assert digest.hexdigest() == (
        "8f3085445fa7df5cc543213b0b1388fafac626cf0d3e388f7fb0762c52a73440"
    )


def test_rank_table_is_shared_per_labelled_type():
    spec = BundleSpec(1, (0, 1, 1))
    a = make_blowup(spec, CenterSpec(frozenset({"b0", "f1"}))).fan_xt
    b = make_blowup(spec, CenterSpec(frozenset({"b0", "f1"}))).fan_xt
    c = make_blowup(spec, CenterSpec(frozenset({"b1", "f2"}))).fan_xt
    assert a is not b and a.max_cones == b.max_cones
    assert _support_ranks(a) is _support_ranks(b)
    # same number of rays, other cones: a table of its own, with its own ranks
    assert c.n_rays == a.n_rays and c.max_cones != a.max_cones
    assert _support_ranks(c) is not _support_ranks(a)
    assert _dense(c).tolist() != _dense(a).tolist()


def test_rank_rows_of_a_16_ray_blowup():
    """P^12 x P^1 blown up along b1, f1: 16 rays, where a dense table has
    65,536 rows.  Its 5 primitive collections give 12 nonzero rows, the
    ones a complex of at most 3 vertices, checked directly, or of at least
    13, mirrored from its complement's by Alexander duality; and h(O) is
    (1, 0, ..., 0), as on every smooth complete toric variety."""
    fan = make_blowup(BundleSpec(12, (0, 0)), CenterSpec(frozenset({"b1", "f1"}))).fan_xt
    assert (fan.n_rays, fan.dim) == (16, 13)
    members, ranks = _support_ranks(fan)
    assert len(fan.primitive_collections) == 5 and len(members) == 12
    full = (1 << fan.n_rays) - 1
    for mask, row in zip(bit_masks(members), ranks.tolist()):
        if mask.bit_count() <= 3:
            assert tuple(row) == _induced_ranks(fan, mask), mask
        else:
            assert (full ^ mask).bit_count() <= 3, mask
            assert tuple(row) == _induced_ranks(fan, full ^ mask)[::-1], mask
    assert cohomology_dims(fan, fan.pic_class((0, 0, 0))) == (1,) + (0,) * fan.dim


def test_canonical_class_of_a_dim_13_blowup():
    """h(K) = (0, ..., 0, 1) by Serre duality on P^12 x P^1 blown up along
    b1, f1: one lattice point in one polytope, though the arrangement box
    of K's lift holds about 10^16 points."""
    fan = make_blowup(BundleSpec(12, (0, 0)), CenterSpec(frozenset({"b1", "f1"}))).fan_xt
    assert cohomology_dims(fan, fan.canonical_class()) == (0,) * fan.dim + (1,)


@pytest.mark.parametrize(
    "spec, center",
    [
        (BundleSpec(3, (0, 1, 1, 1, 1)), ("b3", "f1")),
        (BundleSpec(4, (0, 1, 1, 1)), ("b3", "b4", "f2")),
    ],
)
def test_dim_7_blowups_certify(spec, center):
    """Two dim-7 cases of the s + r <= 7, degree <= 1 family whose
    arrangement boxes are over the point budget, though every polytope box
    the kernel sweeps is within it."""
    report, err = run_case(spec, CenterSpec(frozenset(center)), cache=False)
    assert err is None and report.all_passed


def test_every_nonzero_row_of_the_family_is_bounded():
    """Per fan, not per type: on every X and blow-up fan of the s + r <= 4,
    degree <= 1 family, every nonzero rank row's S has bounded polytopes,
    by the extreme-ray reference.  The oracle counts each P_S in its lattice
    box on the strength of this: a smooth complete fan (validate_fan) has
    finite cohomology, so no such P_S is unbounded.  The reference itself,
    by hand on P^2: P_S is the sections' triangle for S empty and its
    negative for S every ray, and a cone for S = {x0}."""
    p2 = projective_space_fan(2)
    assert [polytopes_bounded(p2, mask) for mask in (0b000, 0b111, 0b001)] == [True, True, False]
    fans = [build_projective_bundle_fan(spec) for spec in enumerate_specs(4, 1)]
    fans += [_blowup(*case).fan_xt for case in FAMILY]
    for fan in fans:
        for mask in _nonacyclic_masks(fan):
            assert polytopes_bounded(fan, mask), (fan.basis_tag, mask)


def test_batch_sweeps_each_missing_class_once(monkeypatch):
    fan = projective_space_fan(2)
    calls = _count_kernel_calls(monkeypatch)
    classes = [fan.pic_class((d,)) for d in (2, -4, 2, 0, -4)]
    got = cohomology_dims_many(fan, classes)
    assert got == [bott_dims(2, d) for d in (2, -4, 2, 0, -4)]
    # each distinct class has one non-empty polytope (P_0 for h^0, P_111 for
    # h^2), all swept in one call, and no (class, mask) box is swept twice
    [(lo, hi, coeffs, index, folds)] = calls
    masks = folds.masks[index]
    swept = {tuple(map(tuple, box)) for box in zip(lo, hi, coeffs, masks)}
    assert len(masks) == len(swept) == 3
    # nothing is kept between cacheless batches: a second batch on the same
    # fan object sweeps its classes again
    calls.clear()
    assert cohomology_dims_many(fan, classes[:2]) == got[:2]
    [(_lo, _hi, _coeffs, index, folds)] = calls
    assert len(folds.masks[index]) == 2


def test_each_fan_object_is_validated_once(monkeypatch):
    """Batches on make_blowup fans validate nothing: X is validated where
    its B^-1 is first read, and its blow-up gets that B^-1, bordered.  Two
    batches on a replace copy of the blow-up, which has no B^-1, validate
    it once; a star_subdivide of a copy of X validates that copy once, and
    batches on the blow-up it gives validate nothing more."""
    spec, center = BundleSpec(2, (0, 0, 1)), CenterSpec(frozenset({"b1", "b2", "f1"}))
    bl = make_blowup(spec, center)
    validated = []
    real = fan_module.validate_fan
    monkeypatch.setattr(fan_module, "validate_fan", lambda f: validated.append(f) or real(f))
    other = make_blowup(spec, CenterSpec(frozenset({"b0", "f0"})))
    classes = [(0, 0, 0), (1, -1, 2), (-2, 1, -1)]
    for fan in (bl.fan_xt, bl.fan_x, other.fan_xt, bl.fan_xt):
        cohomology_dims_many(fan, [fan.pic_class(c[: fan.pic_rank]) for c in classes])
    assert validated == []
    copy = replace(bl.fan_xt)
    want = cohomology_dims_many(bl.fan_xt, [bl.fan_xt.pic_class(c) for c in classes])
    for _ in range(2):
        assert cohomology_dims_many(copy, [copy.pic_class(c) for c in classes]) == want
    assert len(validated) == 1 and validated[0] is copy
    validated.clear()
    sub = fan_module.star_subdivide(replace(bl.fan_x), center)
    assert len(validated) == 1 and validated[0] is not bl.fan_x
    assert cohomology_dims_many(sub, [sub.pic_class(c) for c in classes]) == want
    assert len(validated) == 1


def test_plan_is_built_once_per_fan(monkeypatch):
    """25 single-class batches on one 4/1 blow-up build its plan once, on
    the first; a fresh copy of the fan builds its own."""
    built = []
    real = kernels._vertex_maps
    monkeypatch.setattr(kernels, "_vertex_maps", lambda f: built.append(f) or real(f))
    fan = make_blowup(BundleSpec(2, (0, 0, 1)), CenterSpec(frozenset({"b1", "b2", "f1"}))).fan_xt
    classes = [fan.pic_class((d, e, d - e)) for d in range(-2, 3) for e in range(-2, 3)]
    assert len(classes) == 25
    got = [cohomology_dims(fan, cls) for cls in classes]
    assert built == [fan]
    fresh = replace(fan)
    assert cohomology_dims_many(fresh, [fresh.pic_class(cls.coords) for cls in classes]) == got
    assert len(built) == 2 and built[1] is fresh


def _interval_axes(calls):
    """The interval axis of each recorded kernel call: the axis with the
    fewest points on the other axes over the call's boxes."""
    axes = []
    for lo, hi, *_ in calls:
        widths = hi - lo + 1
        axes.append(int((widths.prod(axis=1)[:, None] // widths).sum(axis=0).argmin()))
    return axes


def test_each_axis_is_folded_once_per_fan(monkeypatch):
    """25 single-class batches on one oracle-scan fan, whose boxes choose
    interval axes 0 and 1, fold each of those axes once, on the first batch
    that chooses it, into the Folds of the fan's plan; a fresh copy of the
    fan folds them again into its own."""
    filled = []
    real = kernels.Folds.__missing__
    monkeypatch.setattr(
        kernels.Folds, "__missing__", lambda folds, k: filled.append((folds, k)) or real(folds, k)
    )
    calls = _count_kernel_calls(monkeypatch)
    fan = make_blowup(BundleSpec(2, (0, 1, 2)), CenterSpec(frozenset({"b1", "f1"}))).fan_xt
    coords = [(d, 2, e) for d in range(-2, 3) for e in range(-2, 3)]
    got = [cohomology_dims(fan, fan.pic_class(c)) for c in coords]
    axes = _interval_axes(calls)
    assert len(axes) == 25 and set(axes) == {0, 1}
    folds = _plan(fan).folds
    assert [k for _, k in filled] == list(dict.fromkeys(axes))
    assert all(f is folds for f, _ in filled) and sorted(folds) == [0, 1]
    fresh = replace(fan)
    calls.clear()
    filled.clear()
    assert [cohomology_dims(fresh, fresh.pic_class(c)) for c in coords] == got
    assert _interval_axes(calls) == axes
    assert [k for _, k in filled] == list(dict.fromkeys(axes))
    assert all(f is _plan(fresh).folds for f, _ in filled) and _plan(fresh).folds is not folds


# Fans whose plans every example of test_a_reused_fan_answers_as_fresh_fans_do
# reuses, each with classes whose batches fold every interval axis listed:
# the boxes of P^2 are all squares, so its batches fold axis 0 alone.
PLAN_FANS = [
    (projective_space_fan(2), [(2,), (-5,)], [0]),
    (
        make_blowup(BundleSpec(2, (0, 0, 1)), CenterSpec(frozenset({"b1", "b2", "f1"}))).fan_xt,
        [(0, 0, 0), (-3, 1, -2), (-3, -3, -3)],
        [0, 2, 3],
    ),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_reused_fan_answers_as_fresh_fans_do(data):
    """One fan object, whose plan every example before this one has used,
    gives each class the h-vector a fresh copy of the fan (a plan of its
    own) gives it, one class per batch and all in one batch: no batch
    leaves the plan changed.  Each fan has first folded every interval axis
    its listed classes choose, so the reused plan holds more than one axis
    wherever the fan's boxes can choose more than one."""
    fan, spread, axes = data.draw(st.sampled_from(PLAN_FANS))
    for c in spread:
        cohomology_dims(fan, fan.pic_class(c))
    assert set(axes) <= set(_plan(fan).folds)
    coords = st.tuples(*[st.integers(-4, 4)] * fan.pic_rank)
    drawn = data.draw(st.lists(coords, min_size=1, max_size=6))
    reused = [cohomology_dims(fan, fan.pic_class(c)) for c in drawn]
    fresh = []
    for c in drawn:
        copy = replace(fan)
        fresh.append(cohomology_dims(copy, copy.pic_class(c)))
    assert reused == fresh
    assert cohomology_dims_many(fan, [fan.pic_class(c) for c in drawn]) == reused


def _check_support_index(fan, rows):
    """Over a batch on the oracle's own tables, every box's support index
    picks its mask, in (row, mask) order as the reference boxes come, from
    the type's support rows, so ranks[index] are the rank rows of the
    box's mask.  The point budget is lifted, as in _boxes: this is the
    index's bookkeeping, and coefficients of up to 30 can give a box over
    MAX_BOX_POINTS, whose failure test_verify_huge_class_exit_2 covers."""
    plan = _plan(fan)
    support, ranks = _support_ranks(fan)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "MAX_BOX_POINTS", 1 << 64 * fan.dim)
        _rows, _lo, _hi, index = _polytope_boxes(plan, rows)
    masks = [
        mask
        for coeffs in rows
        for _row, mask, _lo, _hi in _python_polytope_boxes(fan, coeffs, bit_masks(support))
    ]
    assert bit_masks(support[index]) == masks
    assert np.array_equal(plan.ranks[index], _dense(fan)[masks])
    assert np.array_equal(plan.ranks, ranks)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_support_index_gives_each_box_its_mask_and_ranks(data):
    """_check_support_index on a random family fan and up to four rows."""
    fan, first = data.draw(family_divisors())
    row = st.lists(st.integers(-30, 30), min_size=fan.n_rays, max_size=fan.n_rays)
    _check_support_index(fan, [first] + data.draw(st.lists(row.map(tuple), max_size=3)))


def test_support_index_of_a_box_over_the_budget():
    """_check_support_index on a row whose P_0 box, lo=[-10, -30, -30, -9]
    hi=[90, 69, 69, 90], holds 101,000,000 points, over MAX_BOX_POINTS."""
    fan = build_projective_bundle_fan(BundleSpec(1, (0, 0, 0, 1)))
    _check_support_index(fan, [(0, 10, 30, 30, 30, 9)])


def test_batch_reads_once_and_appends_only_the_missing_classes(tmp_path, monkeypatch):
    """A batch with repeats, some of them in the file, makes one get and one
    put; only the distinct classes the file lacked are computed, and the
    put holds the file's entries and exactly those; a batch the file holds
    whole makes no kernel call and no put."""
    fan = projective_space_fan(2)
    cache = DiskCache(str(tmp_path))
    cohomology_dims_many(fan, [fan.pic_class((d,)) for d in (1, -5)], cache)
    gets, puts = [], []
    get, put = cache.get, cache.put
    monkeypatch.setattr(cache, "get", lambda f: gets.append(f) or get(f))
    monkeypatch.setattr(cache, "put", lambda f, e: puts.append(dict(e)) or put(f, e))
    lifted = []
    lift = kernels._lift
    monkeypatch.setattr(
        kernels, "_lift", lambda f, coords: lifted.extend(coords) or lift(f, coords)
    )
    degrees = (1, 2, -5, 2, 3, 1, 3)
    got = cohomology_dims_many(fan, [fan.pic_class((d,)) for d in degrees], cache)
    assert got == [bott_dims(2, d) for d in degrees]
    assert len(gets) == 1
    assert lifted == [(2,), (3,)]
    assert [list(e.items()) for e in puts] == [
        [((d,), bott_dims(2, d)) for d in (1, -5, 2, 3)]
    ]
    assert cache.get(fan) == puts[0]
    calls = _count_kernel_calls(monkeypatch)
    gets.clear()
    puts.clear()
    fresh = projective_space_fan(2)
    assert cohomology_dims_many(fresh, [fresh.pic_class((d,)) for d in degrees], cache) == got
    assert (len(gets), puts, calls) == (1, [], [])


def test_batch_lifts_each_missing_class_once(tmp_path, monkeypatch):
    """The lift holds one row per distinct class the file lacks, not one
    per occurrence in the batch."""
    fan = projective_space_fan(2)
    cache = DiskCache(str(tmp_path))
    cohomology_dims(fan, fan.pic_class((0,)), cache)
    lifted = []
    lift = kernels._lift
    monkeypatch.setattr(
        kernels, "_lift", lambda f, coords: lifted.extend(coords) or lift(f, coords)
    )
    degrees = (2, -4, 0, 2, 0, -4, 2)
    got = cohomology_dims_many(fan, [fan.pic_class((d,)) for d in degrees], cache)
    assert got == [bott_dims(2, d) for d in degrees]
    assert sorted(lifted) == [(-4,), (2,)]


def test_class_without_polytopes_is_not_swept(monkeypatch):
    """O(-1) on P^2 is acyclic and P_0, P_111 are empty: no kernel call."""
    fan = projective_space_fan(2)
    calls = _count_kernel_calls(monkeypatch)
    assert cohomology_dims(fan, fan.pic_class((-1,))) == (0, 0, 0)
    assert calls == []


def test_batch_checks_every_box_before_the_first_sweep(monkeypatch):
    """An over-budget class late in a batch fails it before the classes
    ahead of it are swept."""
    fan = projective_space_fan(2)
    calls = _count_kernel_calls(monkeypatch)
    classes = [fan.pic_class((d,)) for d in (1, 2, 20000)]
    with pytest.raises(BoxTooLarge, match="budget"):
        cohomology_dims_many(fan, classes)
    assert calls == []


# Hostile classes on P^2, with the typed error and text certify gives for
# each: no PicClass holds a float or a bool, and a class must have one
# coordinate per Picard basis element.
HOSTILE_CLASSES = {
    "float": (lambda: PicClass((1.5,), "P^2"), "Picard coordinates must be integers: (1.5,)"),
    "bool": (lambda: PicClass((True,), "P^2"), "Picard coordinates must be integers: (True,)"),
    "long": (lambda: PicClass((1, 2), "P^2"), "wrong number of Picard coordinates"),
    "tuple": (lambda: (1,), "not a line bundle class: (1,)"),
}


@pytest.mark.parametrize("name", list(HOSTILE_CLASSES))
def test_oracle_entries_check_each_class_as_certify_does(monkeypatch, name):
    """cohomology_dims and cohomology_dims_many raise certify's typed error
    and text for a hostile class, before anything reaches the kernel."""
    make, text = HOSTILE_CLASSES[name]
    fan = projective_space_fan(2)
    calls = _count_kernel_calls(monkeypatch)

    def error(entry):
        with pytest.raises((ValueError, NonLineBundlePresent)) as info:
            entry(make())
        return type(info.value), str(info.value)

    want = error(lambda cls: certify(fan, [fan.pic_class((0,)), cls]))
    assert want[1] == text
    assert error(lambda cls: cohomology_dims(fan, cls)) == want
    assert error(lambda cls: cohomology_dims_many(fan, [fan.pic_class((0,)), cls])) == want
    assert calls == []


# The full BoxTooLarge text for a batch of P^2 classes, by degree.  Past the
# int64 guard the row with the largest coefficient is named, whatever its
# place; within it, the first polytope box over budget in (row, mask) order.
REJECTIONS = {
    (1, 10**19, -(10**20)): (
        "T-divisor (0, -100000000000000000000, 0): values bounded by "
        "800000000000000000008 (int64 limit 9223372036854775807)"
    ),
    (20000,): (
        "T-divisor (0, 20000, 0), support set 0: polytope box lo=[-20000, 0] "
        "hi=[0, 20000]: 400040001 points (budget 100000000)"
    ),
    (1, 20000, 30000): (
        "T-divisor (0, 20000, 0), support set 0: polytope box lo=[-20000, 0] "
        "hi=[0, 20000]: 400040001 points (budget 100000000)"
    ),
}


@pytest.mark.parametrize("degrees", list(REJECTIONS))
def test_rejection_names_row_box_and_bound(degrees):
    fan = projective_space_fan(2)
    with pytest.raises(BoxTooLarge) as info:
        cohomology_dims_many(fan, [fan.pic_class((d,)) for d in degrees])
    assert str(info.value) == REJECTIONS[degrees]


def test_budget_pre_bound_keeps_the_budget_edge(monkeypatch):
    """O(4, 1) on P^1 x P^1 has one polytope box of 2 x 5 = 10 points,
    fewer than the 5^2 of the cube of its largest width: at a budget of 10
    the batch is counted, and at 9 BoxTooLarge names its (row, mask) box,
    not the 2 x 2 box of O(1, 1) ahead of it."""
    fan = build_projective_bundle_fan(BundleSpec(1, (0, 0)))
    classes = [fan.pic_class((1, 1)), fan.pic_class((4, 1))]
    monkeypatch.setattr(kernels, "MAX_BOX_POINTS", 10)
    assert cohomology_dims_many(fan, classes) == [(4, 0, 0), (10, 0, 0)]
    monkeypatch.setattr(kernels, "MAX_BOX_POINTS", 9)
    with pytest.raises(BoxTooLarge) as info:
        cohomology_dims_many(fan, classes)
    assert str(info.value) == (
        "T-divisor (0, 4, 1, 0), support set 0: polytope box lo=[-4, 0] hi=[0, 1]: "
        "10 points (budget 9)"
    )


def test_budget_stops_the_batch_at_the_first_chunk_over_it(monkeypatch):
    """With one row per chunk, a batch whose second class is over budget
    raises from the second chunk, naming the box REJECTIONS names for that
    class alone: no chunk after it is formed."""
    fan = projective_space_fan(2)
    classes = [fan.pic_class((d,)) for d in (1, 20000, 2, 3)]
    assert cohomology_dims_many(fan, classes[:1]) == [(3, 0, 0)]  # builds the plan
    chunks = []

    class CountedNumpy:
        """numpy, with each nonzero call (one per chunk) recorded."""

        def __getattr__(self, name):
            return getattr(np, name)

        def nonzero(self, a):
            chunks.append(a.shape)
            return np.nonzero(a)

    monkeypatch.setattr(kernels, "SLACK_VALUES", 1)
    monkeypatch.setattr(kernels, "np", CountedNumpy())
    with pytest.raises(BoxTooLarge) as info:
        cohomology_dims_many(fan, classes)
    assert str(info.value) == REJECTIONS[(20000,)]
    assert [rows for rows, _masks in chunks] == [1, 1]


def test_kernel_takes_box_arrays_and_the_fans_folds(monkeypatch):
    """The oracle hands the kernel one batch (lo, hi, coeffs, index, folds)
    positionally: int64 arrays of shapes (B, n), (B, n), (B, R) and (B,),
    and the Folds of the fan's plan, whose int64 rays (R, n) and support
    rows (M, R) give box b its mask folds.masks[index[b]], so a wrapper with
    exactly that signature sees every box it sweeps."""
    real = kernels.count_support_sets
    fan = projective_space_fan(2)
    points = []

    def wrapped(lo, hi, coeffs, index, folds):
        arrays = (lo, hi, coeffs, index, folds.rays, folds.masks)
        assert all(isinstance(x, np.ndarray) and x.dtype == np.int64 for x in arrays)
        assert [x.shape for x in arrays[:5]] == [
            lo.shape, lo.shape, (len(lo), 3), (len(lo),), (3, 2)
        ]
        assert folds is _plan(fan).folds
        assert np.array_equal(folds.masks, _support_ranks(fan)[0])
        assert (0 <= index).all() and (index < len(folds.masks)).all()
        assert (lo <= hi).all()
        points.append((hi - lo + 1).prod(axis=1).tolist())
        return real(lo, hi, coeffs, index, folds)

    monkeypatch.setattr(kernels, "count_support_sets", wrapped)
    assert cohomology_dims(fan, fan.pic_class((2,))) == (6, 0, 0)
    classes = [fan.pic_class((3,)), fan.pic_class((-5,))]
    assert cohomology_dims_many(fan, classes) == [(10, 0, 0), (0, 0, 6)]
    # the exact lattice boxes of the triangles P_0 of O(2), O(3) and P_111
    # of O(-5)
    assert points == [[9], [16, 9]]
