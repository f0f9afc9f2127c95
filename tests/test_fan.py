import random
from itertools import combinations

import pytest

from excol import (
    BundleSpec,
    CenterSpec,
    build_projective_bundle_fan,
    make_blowup,
    projective_space_fan,
    star_subdivide,
)
from excol import fan as fan_module
from excol import intlinalg
from excol.cli import enumerate_centers, enumerate_specs, run_case
from excol.cohomology import cohomology_dims
from excol.kernels import _lift
from excol.errors import InvalidSpec, NotACone, UnknownRay, UnsupportedExtPair
from excol.fan import CenterGeometry, Fan, validate_fan
from excol.mutation import Collection, LineBundle, PushforwardTwist, construct, graded_hom
from excol.verify import Report
from fan_helpers import center_geometry, replace, smooth_complete, star_cones


def test_bundle_spec_invariants():
    spec = BundleSpec(2, (0, 1, 1))
    assert spec.r == 2
    assert spec.dim == 4
    with pytest.raises(InvalidSpec):
        BundleSpec(0, (0, 0))
    with pytest.raises(InvalidSpec):
        BundleSpec(1, (0,))
    with pytest.raises(InvalidSpec):
        BundleSpec(1, (0, 2, 1))  # decreasing
    with pytest.raises(InvalidSpec, match="a_0 = 0"):
        BundleSpec(1, (1, 2))


FROZEN_RECORDS = {
    "PicClass": lambda bl, col: bl.fan_xt.pic_class((1, -2, 0)),
    "Fan": lambda bl, col: bl.fan_xt,
    "BundleSpec": lambda bl, col: bl.spec,
    "CenterSpec": lambda bl, col: bl.center,
    "CenterGeometry": lambda bl, col: bl.geometry,
    "Blowup": lambda bl, col: bl,
    "LineBundle": lambda bl, col: col.objects[0],
    "PushforwardTwist": lambda bl, col: PushforwardTwist(1, 2, 0),
    # a replay's log holds dicts, so only a collection without one hashes
    "Collection": lambda bl, col: Collection(col.objects),
}


@pytest.mark.parametrize("name", FROZEN_RECORDS)
def test_records_are_frozen_values(name):
    """Each frozen record equals a copy built from its fields, hashes like
    it, shows the same repr, and refuses to have a field set or deleted."""
    bl, col = construct(BundleSpec(1, (0, 0)), CenterSpec(frozenset({"b1", "f1"})))
    record = FROZEN_RECORDS[name](bl, col)
    assert type(record).__name__ == name
    copy = replace(record)
    assert copy is not record
    assert copy == record and hash(copy) == hash(record) and repr(copy) == repr(record)
    for field in type(record)._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert record == copy


def test_records_compare_by_class_and_show_their_fields(bl_p1p1):
    """Records of two classes never compare equal, even with the same
    fields; equal records hash alike; error messages embed the reprs a
    dataclass would give; and each Report gets a list of its own."""
    line, push = LineBundle(1, 2, 0), PushforwardTwist(1, 2, 0)
    assert line != push and push != line and line != (1, 2, 0)
    assert line == LineBundle(1, 2, 0) and hash(line) == hash(LineBundle(1, 2, 0))
    assert len({line, push, LineBundle(1, 2, 0)}) == 2
    with pytest.raises(InvalidSpec) as err:
        BundleSpec(1.5, (0, 1))
    assert str(err.value).endswith(": BundleSpec(s=1.5, fiber_degrees=(0, 1))")
    with pytest.raises(UnsupportedExtPair) as err:
        graded_hom(bl_p1p1, LineBundle(0, -1, 0), line)
    assert str(err.value) == (
        "no formula for Ext from LineBundle(alpha=0, beta=-1, k=0) "
        "to LineBundle(alpha=1, beta=2, k=0)"
    )
    first, second = (Report(True, True, True, [[1]], 1, 1, 1) for _ in range(2))
    assert first.violations == [] and first.violations is not second.violations
    first.violations.append(("gram", -1, -1, ()))
    first.provenance_hash = "planted"
    assert second.violations == [] and second.provenance_hash == ""
    assert first != second
    with pytest.raises(TypeError):
        hash(first)


def test_center_spec_size():
    with pytest.raises(InvalidSpec):
        CenterSpec(frozenset({"b1"}))
    with pytest.raises(InvalidSpec):
        CenterSpec(frozenset({"b1", "b2", "f0", "f1"}))


def test_p1xp1_fan():
    fan = build_projective_bundle_fan(BundleSpec(1, (0, 0)))
    assert fan.n_rays == 4
    assert len(fan.max_cones) == 4
    assert fan.ray_names == ("b0", "b1", "f0", "f1")


def test_p1_bundle_over_p1_rank3_fan():
    fan = build_projective_bundle_fan(BundleSpec(1, (0, 0, 0)))
    assert fan.n_rays == 5
    assert len(fan.max_cones) == 6  # (s+1)(r+1)


def test_twisted_bundle_fan_rays():
    fan = build_projective_bundle_fan(BundleSpec(2, (0, 1)))
    assert fan.n_rays == 5
    assert len(fan.max_cones) == 6
    assert fan.rays[fan.name_index["b0"]] == (-1, -1, 1)
    assert fan.rays[fan.name_index["f0"]] == (0, 0, -1)


def _divisor_class(fan, ray_name):
    """The class of one torus-invariant prime divisor."""
    rho = fan.name_index[ray_name]
    return fan.class_of_divisor([int(i == rho) for i in range(fan.n_rays)])


def test_divisor_classes_twisted():
    fan = build_projective_bundle_fan(BundleSpec(2, (0, 1)))
    for name in ("b0", "b1", "b2"):
        assert _divisor_class(fan, name).coords == (1, 0)
    assert _divisor_class(fan, "f0").coords == (0, 1)
    assert _divisor_class(fan, "f1").coords == (-1, 1)
    assert fan.canonical_class().coords == (-2, -2)


def test_projective_space_fan():
    fan = projective_space_fan(2)
    assert fan.n_rays == 3
    assert len(fan.max_cones) == 3
    assert fan.canonical_class().coords == (-3,)
    for name in fan.ray_names:
        assert _divisor_class(fan, name).coords == (1,)
    with pytest.raises(InvalidSpec, match="dimension >= 1"):
        projective_space_fan(0)


def test_star_subdivision_codim2_counts():
    fan = build_projective_bundle_fan(BundleSpec(1, (0, 0)))
    sub = star_subdivide(fan, CenterSpec(frozenset({"b1", "f1"})))
    assert sub.n_rays == 5
    assert len(sub.max_cones) == 5
    assert sub.ray_names[-1] == "e"
    assert sub.rays[-1] == (1, 1)
    validate_fan(sub)


def test_star_subdivision_codim3_counts():
    fan = build_projective_bundle_fan(BundleSpec(2, (0, 0)))
    sub = star_subdivide(fan, CenterSpec(frozenset({"b1", "b2", "f1"})))
    assert sub.n_rays == 6
    assert len(sub.max_cones) == 8
    validate_fan(sub)


@pytest.mark.parametrize("max_degree", [1, 2])
def test_star_subdivide_cones_equal_the_set_built_ones(max_degree):
    """On every case of the s + r <= 4 families of degree <= 1 and <= 2,
    star_subdivide's cones, built from each sorted parent cone, are the
    set-built reference cones, in order."""
    for spec in enumerate_specs(4, max_degree):
        fan = build_projective_bundle_fan(spec)
        for codim in (2, 3):
            for center in enumerate_centers(spec, codim):
                assert star_subdivide(fan, center).max_cones == star_cones(fan, center)


def test_star_subdivision_not_a_cone():
    fan = build_projective_bundle_fan(BundleSpec(1, (0, 0)))
    with pytest.raises(NotACone):
        star_subdivide(fan, CenterSpec(frozenset({"b0", "b1"})))


def test_iterated_blowups_keep_ray_names_apart():
    """A blow-up of a fan that has a ray e names its new ray e2, then e3,
    so each name is one ray's: on the double blow-up of P^1 x P^1 the
    center {e, f1} resolves to the first e, (1, 1), and subdivides, adding
    e + f1 = (1, 2) (the second e, (2, 1), would give (2, 2)).
    validate_fan refuses repeated names and a name count that is not the
    ray count."""
    bl = make_blowup(BundleSpec(1, (0, 0)), CenterSpec(frozenset({"b1", "f1"})))
    double = star_subdivide(bl.fan_xt, CenterSpec(frozenset({"b1", "e"})))
    assert double.ray_names == ("b0", "b1", "f0", "f1", "e", "e2")
    assert double.rays[4:] == ((1, 1), (2, 1))
    triple = star_subdivide(double, CenterSpec(frozenset({"e", "f1"})))
    assert triple.ray_names == ("b0", "b1", "f0", "f1", "e", "e2", "e3")
    assert triple.rays[-1] == (1, 2)
    validate_fan(triple)
    good = projective_space_fan(2)
    for names in (("x", "x", "y"), ("x0", "x1"), ("x0", "x1", "x2", "x3")):
        with pytest.raises(InvalidSpec) as info:
            validate_fan(replace(good, ray_names=names))
        assert str(info.value) == f"ray names {names} are not 3 distinct names, one per ray"


def test_blowup_canonical_class(bl_p1p1, bl_p2p1):
    # codim-2: K picks up (c-1) = 1 copy of E
    assert bl_p1p1.fan_xt.canonical_class().coords == (-2, -2, 1)
    # codim-3 on P^2 x P^1: (-s-1+a, -r-1, c-1)
    assert bl_p2p1.fan_xt.canonical_class().coords == (-3, -2, 2)


def test_pullback_divisor_classes(bl_p1p1):
    xt = bl_p1p1.fan_xt
    # center rays acquire a -E correction, others pull back unchanged
    assert _divisor_class(xt, "b1").coords == (1, 0, -1)
    assert _divisor_class(xt, "b0").coords == (1, 0, 0)
    assert _divisor_class(xt, "f1").coords == (0, 1, -1)
    assert _divisor_class(xt, "e").coords == (0, 0, 1)


def test_tdivisor_lift_roundtrip(bl_p2p1):
    """The oracle's lift of a class is a T-divisor of that class."""
    for fan in (bl_p2p1.fan_x, bl_p2p1.fan_xt):
        batch = [(0,) * fan.pic_rank, (1, -2) + (3,) * (fan.pic_rank - 2)]
        for coords, row in zip(batch, _lift(fan, batch).tolist(), strict=True):
            assert fan.class_of_divisor(row) == fan.pic_class(coords)


def test_validate_fan_rejects_broken_input():
    good = projective_space_fan(2)
    bad_ray = Fan(
        dim=2,
        ray_names=good.ray_names,
        rays=((-2, -2),) + good.rays[1:],
        max_cones=good.max_cones,
        basis_tag=good.basis_tag,
        basis_divisors=good.basis_divisors,
    )
    with pytest.raises(InvalidSpec, match="non-unimodular cone"):
        validate_fan(bad_ray)
    doubled = replace(good, rays=tuple((2 * x, 2 * y) for x, y in good.rays))
    with pytest.raises(InvalidSpec, match=r"non-unimodular cone \(1, 2\)"):
        validate_fan(doubled)  # the first cone, whose inverse is the frame
    incomplete = Fan(
        dim=2,
        ray_names=good.ray_names,
        rays=good.rays,
        max_cones=good.max_cones[:-1],
        basis_tag=good.basis_tag,
        basis_divisors=good.basis_divisors,
    )
    with pytest.raises(InvalidSpec):
        validate_fan(incomplete)
    with pytest.raises(InvalidSpec, match="no max cone"):
        validate_fan(replace(good, max_cones=()))
    # with no rays, no ray is stray, so the empty cone list itself is named
    empty = replace(good, ray_names=(), rays=(), max_cones=(), basis_divisors=())
    with pytest.raises(InvalidSpec, match="^fan has no max cone$"):
        validate_fan(empty)
    with pytest.raises(InvalidSpec, match="ray of wrong dimension"):
        validate_fan(replace(good, rays=good.rays[:2] + ((0, 1, 0),)))
    # a cone naming a ray index past the rays or below 0 is checked before
    # any cone is read, whose ray lookups and bit shifts would fail untyped
    for cones, bad in [
        (((1, 2), (2, 0), (0, 5), (5, 1)), r"\(0, 5\)"),
        (((1, 5), (5, 2), (2, 0), (0, 1)), r"\(1, 5\)"),
        (((1, 2), (2, 0), (0, -1), (-1, 1)), r"\(0, -1\)"),
    ]:
        stray = replace(good, max_cones=cones)
        with pytest.raises(InvalidSpec, match=rf"max cone {bad} names a ray index outside range"):
            validate_fan(stray)
    # the oracle validates a hand-built fan where it enters
    with pytest.raises(InvalidSpec, match=r"max cone \(0, -1\) names a ray index"):
        cohomology_dims(stray, stray.pic_class((1,)))
    # rays of floats or bools are not lattice vectors, even when they compare
    # equal to P^2's
    for rays in (((-1.0, -1.0), (1.0, 0.0), (0.0, 1.0)), ((-1, -1), (True, False), (False, True))):
        inexact = replace(good, rays=rays)
        with pytest.raises(InvalidSpec, match="ray coordinates must be integers"):
            validate_fan(inexact)
        with pytest.raises(InvalidSpec, match="ray coordinates must be integers"):
            cohomology_dims(inexact, inexact.pic_class((1,)))


def test_validate_fan_rejects_cones_on_one_side_of_a_facet():
    """P^1 x P^1 with b0 moved to (1, 1): every cone is unimodular and every
    facet lies on two cones, but (b1, f1) and (b0, f1) lie on one side of
    f1, so the cones overlap."""
    good = build_projective_bundle_fan(BundleSpec(1, (0, 0)))
    rays = list(good.rays)
    rays[good.name_index["b0"]] = (1, 1)
    planted = replace(good, rays=tuple(rays))
    with pytest.raises(InvalidSpec, match=r"lie on one side of facet \(3,\)"):
        validate_fan(planted)


def test_validate_fan_rejects_a_double_cover():
    """Eight cones around the origin on the four unit rays, each ray listed
    twice: every cone is unimodular, every facet lies on two cones on
    opposite sides and the facet graph is connected, but the cones cover
    the plane twice."""
    units = ((1, 0), (0, 1), (-1, 0), (0, -1))
    twice = Fan(
        dim=2,
        ray_names=tuple(f"y{i}" for i in range(8)),
        rays=units * 2,
        max_cones=tuple(tuple(sorted((i, (i + 1) % 8))) for i in range(8)),
        basis_tag="double cover",
        basis_divisors=tuple(tuple(int(i == j) for i in range(8)) for j in range(6)),
    )
    with pytest.raises(InvalidSpec, match="covers a point 2 times"):
        validate_fan(twice)


def test_validate_fan_is_one_inverse_and_small_minors(monkeypatch):
    """On an X with s = 40, validate_fan runs one dim x dim Bareiss
    elimination, the exact inverse of the first cone; every other one, one
    per cone, whose sign and inverse both come from it, is a minor at most
    min(dim, p) wide; and it writes nothing into the fan."""
    fan = build_projective_bundle_fan(BundleSpec(40, (0, 1)))
    inverses, eliminations = [], []
    real_inverse, real_bareiss = fan_module.inverse, intlinalg._bareiss

    def counted_inverse(b):
        inverses.append(len(b))
        return real_inverse(b)

    def counted_bareiss(a, ncols):
        eliminations.append(ncols)
        return real_bareiss(a, ncols)

    monkeypatch.setattr(fan_module, "inverse", counted_inverse)
    monkeypatch.setattr(intlinalg, "_bareiss", counted_bareiss)
    before = dict(fan.__dict__)
    validate_fan(fan)
    assert inverses[0] == eliminations[0] == 41
    assert max(inverses[1:] + eliminations[1:]) <= min(fan.dim, fan.pic_rank) == 2
    assert len(eliminations) == len(inverses) == 1 + len(fan.max_cones)
    assert fan.__dict__ == before


def test_validate_fan_rejects_a_ray_in_no_cone():
    """P^2 with a stray ray (1, 1) that no max cone uses: every cone is
    unimodular and the fan is complete, but the ray is not part of it."""
    good = projective_space_fan(2)
    stray = Fan(
        dim=2,
        ray_names=good.ray_names + ("y",),
        rays=good.rays + ((1, 1),),
        max_cones=good.max_cones,
        basis_tag=good.basis_tag,
        basis_divisors=((0, 1, 0, 0), (0, 0, 0, 1)),
    )
    with pytest.raises(InvalidSpec, match=r"ray \(1, 1\) lies in no max cone"):
        validate_fan(stray)


def test_validate_fan_rejects_a_disconnected_facet_graph():
    """Two disjoint copies of P^2's cones on six rays: every cone is
    unimodular and every facet lies on exactly two cones, but no facet
    joins the copies, so they cover each point twice."""
    good = projective_space_fan(2)
    twice = Fan(
        dim=2,
        ray_names=("x0", "x1", "x2", "y0", "y1", "y2"),
        rays=good.rays * 2,
        max_cones=good.max_cones + tuple(tuple(i + 3 for i in c) for c in good.max_cones),
        basis_tag="two P^2",
        basis_divisors=tuple(tuple(int(i == j) for i in range(6)) for j in (1, 2, 4, 5)),
    )
    with pytest.raises(InvalidSpec, match="covers a point 2 times"):
        validate_fan(twice)


def test_class_map_rejects_bad_bases():
    """A declared basis that is not a Z-basis of Pic is an InvalidSpec."""
    good = projective_space_fan(2)
    for basis in (((0, 0, 0),), ((0, 2, 0),), ((0, 1, 0), (0, 0, 1)), ((0, 1.0, 0),)):
        fan = Fan(
            dim=2,
            ray_names=good.ray_names,
            rays=good.rays,
            max_cones=good.max_cones,
            basis_tag=good.basis_tag,
            basis_divisors=basis,
        )
        with pytest.raises(InvalidSpec):
            fan.canonical_class()
    # the oracle reads B^-1, here with a float entry, before it lifts any class
    with pytest.raises(InvalidSpec, match="basis divisor entries must be integers"):
        cohomology_dims(fan, fan.pic_class((1,)))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda p1, p2: p2.pic_class((1,)) + p1.pic_class((1,)), r"basis mismatch: P\^2 vs P\^1"),
        (lambda p1, p2: p2.pic_class((1,)) - p1.pic_class((1,)), r"basis mismatch: P\^2 vs P\^1"),
        (lambda p1, p2: p2.class_of_divisor([1, 0]), "coefficient vector length mismatch"),
        (lambda p1, p2: p2.pic_class((1, 0)), "wrong number of Picard coordinates"),
    ],
    ids=["sum across bases", "difference across bases", "short divisor", "long class"],
)
def test_classes_of_the_wrong_shape_raise(make, message):
    """Classes of two fans neither add nor subtract, and a divisor or a
    class with the wrong number of entries for its fan is refused."""
    with pytest.raises(ValueError, match=message):
        make(projective_space_fan(1), projective_space_fan(2))


def test_a_hand_built_fan_is_checked_where_its_inverse_is_formed():
    """P^2 with x0 moved to (1, 1): B is unimodular, so its basis divisor is
    a Z-basis of Z^rays / M, but the cones (0, 2) and (1, 2) lie on one
    side of the facet (2,).  Its first B^-1 read, a class_of_divisor,
    checks the fan and raises, and no B^-1 is kept."""
    good = projective_space_fan(2)
    planted = replace(good, rays=((1, 1), (1, 0), (0, 1)))
    with pytest.raises(InvalidSpec, match=r"lie on one side of facet \(2,\)"):
        planted.class_of_divisor([1, 0, 0])
    assert "_basis_inverse" not in planted.__dict__


def test_make_blowup_finds_the_center_in_its_one_pass(monkeypatch):
    """star_subdivide finds the cones that hold the center in the pass that
    builds the new cones: with Fan.spans_cone made to raise once the
    centers are enumerated, every 4/1 center still blows up, and a center
    of no cone or of an unknown ray still raises NotACone or UnknownRay."""
    cases = [
        (spec, center)
        for spec in enumerate_specs(4, 1)
        for codim in (2, 3)
        for center in enumerate_centers(spec, codim)
    ]

    def refuse(fan, idx):
        raise AssertionError("spans_cone called")

    monkeypatch.setattr(Fan, "spans_cone", refuse)
    for spec, center in cases:
        assert make_blowup(spec, center).fan_xt.max_cones
    spec = BundleSpec(1, (0, 0))
    with pytest.raises(NotACone, match=r"rays \['b0', 'b1'\] do not span a cone"):
        make_blowup(spec, CenterSpec(frozenset({"b0", "b1"})))
    with pytest.raises(UnknownRay, match="f9"):
        make_blowup(spec, CenterSpec(frozenset({"b1", "f9"})))


def test_star_subdivide_rejects_a_bad_basis_at_once():
    """star_subdivide reads the parent's B^-1, so a hand-built fan whose
    basis is not a Z-basis of Pic fails when it is subdivided."""
    good = projective_space_fan(2)
    bad = replace(good, basis_divisors=((0, 2, 0),))
    with pytest.raises(InvalidSpec, match="not a Z-basis"):
        star_subdivide(bad, CenterSpec(frozenset({"x1", "x2"})))


def test_star_subdivide_validates_its_input_first():
    """The public star_subdivide rejects a non-unimodular hand-built P^2
    before it builds anything: reading the parent's B^-1 validates it
    first, so no B^-1 is formed."""
    good = projective_space_fan(2)
    bad = replace(good, rays=((-2, -2),) + good.rays[1:])
    with pytest.raises(InvalidSpec, match="non-unimodular cone"):
        star_subdivide(bad, CenterSpec(frozenset({"x1", "x2"})))
    assert "_basis_inverse" not in bad.__dict__


def test_blowups_inherit_the_inverse_of_x(monkeypatch):
    """Blowing up every center of a spec inverts B once, for X: each
    blow-up's B^-1 is X's, bordered.  The only other inverses are the ones
    validating X takes: the one cone (dim x dim) that it reads every cone
    in, and per cone a minor.  The X memo is process-wide, so the count
    starts from an empty one (cache_clear)."""
    build_projective_bundle_fan.cache_clear()
    sizes = []
    real_inverse, real_validate = fan_module.inverse, fan_module.validate_fan

    def counted(b):
        sizes.append(len(b))
        return real_inverse(b)

    def counted_validate(fan):
        start = len(sizes)
        real_validate(fan)
        # the first cone's inverse is kept, the per-cone minors are not
        assert max(sizes[start + 1 :], default=0) <= min(fan.dim, fan.pic_rank)
        del sizes[start + 1 :]

    monkeypatch.setattr(fan_module, "inverse", counted)
    monkeypatch.setattr(fan_module, "validate_fan", counted_validate)
    specs = enumerate_specs(4, 1)
    for spec in specs:
        for codim in (2, 3):
            for center in enumerate_centers(spec, codim):
                bl = make_blowup(spec, center)
                bl.fan_xt.canonical_class()
                bl.fan_x.canonical_class()
    assert sizes == [
        size for spec in specs for size in (spec.dim, build_projective_bundle_fan(spec).n_rays)
    ]


def test_a_copy_of_a_blowup_is_checked_in_full(bl_p1p1):
    """A replace copy carries no inherited B^-1, and a
    non-unimodular ray planted in cones the subdivision kept from X is
    found."""
    xt = bl_p1p1.fan_xt
    b0 = xt.name_index["b0"]
    assert all(b0 not in cone for cone in set(xt.max_cones) - set(bl_p1p1.fan_x.max_cones))
    rays = list(xt.rays)
    rays[b0] = tuple(2 * x for x in rays[b0])
    planted = replace(xt, rays=tuple(rays))
    assert "_basis_inverse" not in planted.__dict__
    with pytest.raises(InvalidSpec, match="non-unimodular cone"):
        validate_fan(planted)


def _family_fans():
    for n in range(1, 6):
        yield projective_space_fan(n)
    for spec in enumerate_specs(5, 1):
        yield build_projective_bundle_fan(spec)
        for codim in (2, 3):
            for center in enumerate_centers(spec, codim):
                yield make_blowup(spec, center).fan_xt


def _mutant(fan, rng):
    """fan with its cones and the rays in each shuffled, which keeps it
    valid, after one or two random edits: a ray moved, negated or swapped
    with another, a cone's ray replaced, a cone dropped, or a second copy
    of every cone on copies of the rays, each copy named afresh so that the
    names stay one per ray and distinct."""
    rays, cones = list(fan.rays), [list(cone) for cone in fan.max_cones]
    names = fan.ray_names
    for _ in range(rng.randint(1, 2)):
        edit = rng.choice(("move", "negate", "swap", "break", "drop", "twice", "none"))
        i = rng.randrange(len(rays))
        if edit == "move":
            v = list(rays[i])
            v[rng.randrange(fan.dim)] += rng.choice((-2, -1, 1, 2))
            rays[i] = tuple(v)
        elif edit == "negate":
            rays[i] = tuple(-x for x in rays[i])
        elif edit == "swap":
            j = rng.randrange(len(rays))
            rays[i], rays[j] = rays[j], rays[i]
        elif edit == "break":
            rng.choice(cones)[rng.randrange(fan.dim)] = i
        elif edit == "drop":
            cones.pop(rng.randrange(len(cones)))
        elif edit == "twice":
            cones += [[i + len(rays) for i in cone] for cone in cones]
            rays += rays
            names += tuple(f"{name}'" for name in names)
    for cone in cones:
        rng.shuffle(cone)
    rng.shuffle(cones)
    return replace(fan, ray_names=names, rays=tuple(rays), max_cones=tuple(map(tuple, cones)))


def test_validate_fan_agrees_with_a_slow_reference():
    """On seeded mutants of family fans up to dim 4, validate_fan accepts
    exactly the fans that the reference smooth_complete accepts, and the
    mutants reach each of its checks after the entry ones."""
    rng = random.Random(35)
    fans = [fan for fan in _family_fans() if fan.dim <= 4]
    verdicts = {True: 0, False: 0}
    rejected = set()
    for fan in rng.sample(fans, 150):
        for _ in range(10):
            mutant = _mutant(fan, rng)
            try:
                validate_fan(mutant)
                accepted = True
            except InvalidSpec as err:
                accepted = False
                rejected.update(
                    check
                    for check in ("non-unimodular", "one side", "covers a point")
                    if check in str(err)
                )
            assert accepted == smooth_complete(mutant), mutant
            verdicts[accepted] += 1
    assert rejected == {"non-unimodular", "one side", "covers a point"}
    assert min(verdicts.values()) > 200, verdicts


def test_class_map_inverts_basis_divisors():
    """On every fan of the family, each basis divisor has its unit class and
    each lattice row (the divisor of a character) has class 0; the whole of
    _basis_inverse is the inverse of B = [basis divisors; lattice rows].
    Each fan is a smooth complete fan, blow-ups included, which make_blowup
    does not validate."""
    count = 0
    for fan in _family_fans():
        validate_fan(fan)
        units = [tuple(int(i == j) for i in range(fan.pic_rank)) for j in range(fan.pic_rank)]
        for bd, unit in zip(fan.basis_divisors, units):
            assert fan.class_of_divisor(bd).coords == unit
        zero = (0,) * fan.pic_rank
        lattice_rows = [[ray[d] for ray in fan.rays] for d in range(fan.dim)]
        for row in lattice_rows:
            assert fan.class_of_divisor(row).coords == zero
        b = list(fan.basis_divisors) + lattice_rows
        inv = fan._basis_inverse
        assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*inv)] for row in b] == [
            [int(i == j) for j in range(fan.n_rays)] for i in range(fan.n_rays)
        ]
        count += 1
    assert count > 1000


def test_center_geometry_fixed_point_codim3():
    geom = center_geometry(BundleSpec(2, (0, 0)), CenterSpec(frozenset({"b1", "b2", "f1"})))
    assert geom == CenterGeometry(0, (0,), ((-1, 0), (-1, 0), (0, -1)))
    assert (geom.r_prime, geom.codim) == (0, 3)


def test_center_geometry_mixed_codim2():
    geom = center_geometry(BundleSpec(2, (0, 1, 2)), CenterSpec(frozenset({"b2", "f1"})))
    assert (geom.s_prime, geom.r_prime, geom.codim) == (1, 1, 2)
    # f1 is cut: Y keeps the degrees of f0 and f2
    assert geom.y_degrees == (0, 2)
    assert geom.conormal_summands == ((-1, 0), (1, -1))


def test_center_geometry_rejects_invalid():
    spec = BundleSpec(1, (0, 0))
    with pytest.raises(UnknownRay):
        center_geometry(spec, CenterSpec(frozenset({"b1", "f9"})))
    with pytest.raises(NotACone):
        center_geometry(spec, CenterSpec(frozenset({"f0", "f1"})))


def test_center_geometry_never_degenerate():
    """A ray set of X either spans a cone, and then leaves s', r' >= 0, or
    is rejected as NotACone; no third outcome exists.  The geometry of a
    cone agrees with the spec and the center: its conormal bundle has rank
    codim, dim Y + codim = dim X, one (-1, 0) summand per cut base ray and
    one (a_j, -1) per cut fiber ray f_j, and Y keeps the other degrees."""
    outcomes = {"cone": 0, "not_a_cone": 0}
    for spec in enumerate_specs(5, 1):
        names = build_projective_bundle_fan(spec).ray_names
        for size in (2, 3):
            for subset in combinations(names, size):
                center = CenterSpec(frozenset(subset))
                try:
                    geom = center_geometry(spec, center)
                except NotACone:
                    outcomes["not_a_cone"] += 1
                    continue
                case = (spec, subset)
                assert geom.s_prime >= 0 and geom.r_prime >= 0, case
                assert geom.codim == center.codim, case
                assert geom.s_prime + geom.r_prime + geom.codim == spec.dim, case
                cut = sorted(spec.fiber_degrees[int(n[1:])] for n in subset if n[0] == "f")
                fiber = [a for a, beta in geom.conormal_summands if beta == -1]
                assert sorted(fiber) == cut, case
                base = [t for t in geom.conormal_summands if t[1] != -1]
                assert base == [(-1, 0)] * (len(subset) - len(cut)), case
                assert sorted(geom.y_degrees + tuple(cut)) == sorted(spec.fiber_degrees), case
                outcomes["cone"] += 1
    assert outcomes["cone"] and outcomes["not_a_cone"], outcomes


def test_make_blowup_consistency(bl_p1p1):
    assert bl_p1p1.geometry.codim == 2
    assert bl_p1p1.fan_xt.n_rays == bl_p1p1.fan_x.n_rays + 1
    assert bl_p1p1.fan_xt.pic_rank == 3


def test_one_x_fan_per_spec(monkeypatch):
    """Every blow-up of a spec shares one X, and a sweep of the 3/1 family
    builds and validates each X once and validates no blow-up.  The memo is
    process-wide, so the count starts from an empty one (cache_clear)."""
    spec = BundleSpec(2, (0, 1))
    assert (
        make_blowup(spec, CenterSpec(frozenset({"b1", "f1"}))).fan_x
        is make_blowup(spec, CenterSpec(frozenset({"b0", "b2", "f0"}))).fan_x
    )
    build_projective_bundle_fan.cache_clear()
    validated = []
    real = fan_module.validate_fan

    def counted(fan):
        validated.append(fan.basis_tag)
        real(fan)

    monkeypatch.setattr(fan_module, "validate_fan", counted)
    specs = enumerate_specs(3, 1)
    for spec in specs:
        for codim in (2, 3):
            for center in enumerate_centers(spec, codim):
                report, err = run_case(spec, center, cache=False)
                assert err is None and report.all_passed
    assert sorted(validated) == sorted(build_projective_bundle_fan(s).basis_tag for s in specs)


def test_primitive_collection_counts():
    """Batyrev's counts, per labelled type of _family_fans: 1 on P^n (all
    its rays), 2 on X (the base and the fiber rays), 3 or 5 on a blow-up."""
    for n in range(1, 6):
        assert projective_space_fan(n).primitive_collections == (tuple(range(n + 1)),)
    X = build_projective_bundle_fan(BundleSpec(2, (0, 1, 1)))
    assert X.primitive_collections == ((0, 1, 2), (3, 4, 5))
    counts = {}
    for fan in _family_fans():
        m = len(fan.primitive_collections)
        counts.setdefault(fan.pic_rank, {}).setdefault(m, set()).add(fan.max_cones)
    assert {rank: {m: len(t) for m, t in by_m.items()} for rank, by_m in counts.items()} == {
        1: {1: 5},
        2: {2: 10},
        3: {3: 98, 5: 239},
    }


def test_primitive_collections_are_the_minimal_non_faces():
    """On every 4/1 type, a ray set lies in a max cone iff it holds no
    primitive collection, and each primitive collection less any one ray
    lies in a max cone."""
    types = {fan.max_cones: fan for fan in _family_fans() if fan.dim <= 4}
    assert len(types) == 137
    for cones, fan in types.items():
        maxes = [sum(1 << i for i in cone) for cone in cones]
        prims = [sum(1 << i for i in p) for p in fan.primitive_collections]
        for mask in range(1 << fan.n_rays):
            in_cone = any(mask & m == mask for m in maxes)
            assert in_cone == (not any(p & mask == p for p in prims)), (cones, mask)
        for p in fan.primitive_collections:
            assert all(fan.spans_cone(set(p) - {i}) for i in p), (cones, p)
