import hashlib
import json
import time
from operator import sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from excol import (
    BundleSpec,
    CenterSpec,
    Report,
    certify,
    collection_classes,
    construct,
    ext_table,
    projective_space_fan,
)
from excol import fan as fan_module
from excol import kernels, make_blowup
from excol import verify as verify_module
from excol.cohomology import cohomology_dims
from excol.cli import enumerate_centers, enumerate_specs
from excol.cohomology import DiskCache
from excol.errors import BoxTooLarge, NonLineBundlePresent
from excol.fan import PicClass
from excol.intlinalg import determinant
from fan_helpers import replace


def _beilinson(n):
    fan = projective_space_fan(n)
    return fan, [fan.pic_class((d,)) for d in range(n + 1)]


def test_ext_table_p2():
    fan, classes = _beilinson(2)
    table = ext_table(fan, classes)
    assert table[0][1] == (3, 0, 0)
    assert table[0][2] == (6, 0, 0)
    assert table[1][0] == (0, 0, 0)
    assert table[2][0] == (0, 0, 0)
    assert all(table[i][i] == (1, 0, 0) for i in range(3))


def test_ext_table_rejects_non_classes():
    fan, classes = _beilinson(2)
    with pytest.raises(NonLineBundlePresent):
        ext_table(fan, classes + [(1, 0)])


def test_ext_table_rejects_a_class_of_another_fan():
    fan, _ = _beilinson(2)
    with pytest.raises(ValueError, match="different fan"):
        ext_table(fan, [projective_space_fan(3).pic_class((1,))])


@pytest.mark.parametrize(
    "coords, message",
    [
        ((1.5,), r"integers: \(1\.5,\)"),
        ((True,), r"integers: \(True,\)"),
        ((1, 0), "wrong number of Picard coordinates"),
    ],
)
def test_ext_table_checks_each_input_class_before_the_oracle(monkeypatch, coords, message):
    """A class with a non-integer or bool coordinate fails when it is built,
    and one with too many raises ValueError naming it, not a difference,
    before any oracle call."""

    def oracle(*args, **kwargs):
        raise AssertionError("oracle called")

    monkeypatch.setattr(verify_module, "_dims_of_coords", oracle)
    fan, classes = _beilinson(2)
    with pytest.raises(ValueError, match=message):
        bad = replace(classes[1], coords=coords)  # a float or a bool fails here
        ext_table(fan, [bad] + classes)


def test_ext_table_batches_each_distinct_difference_once(monkeypatch):
    """ext_table hands the oracle each distinct difference b - a exactly
    once, and its table equals per-cell cohomology_dims: on a few 4/1
    cases and on a collection that repeats a class."""
    batches = []
    real = verify_module._dims_of_coords

    def counted(fan, coords, cache):
        batches.append(list(coords))
        return real(fan, coords, cache)

    monkeypatch.setattr(verify_module, "_dims_of_coords", counted)
    cases = [
        (spec, center)
        for spec in enumerate_specs(4, 1)
        for codim in (2, 3)
        for center in enumerate_centers(spec, codim)
    ][::120]
    collections = []
    for spec, center in cases:
        bl, col = construct(spec, center)
        collections.append((bl.fan_xt, collection_classes(bl, col)))
    p2, beilinson = _beilinson(2)
    collections.append((p2, beilinson + beilinson[1:2]))
    for fan, classes in collections:
        table = ext_table(fan, classes)
        (batch,) = batches
        batches.clear()
        assert len(batch) == len(set(batch))
        assert set(batch) == {tuple(map(sub, b.coords, a.coords)) for a in classes for b in classes}
        assert table == [[cohomology_dims(fan, b - a) for b in classes] for a in classes]


HOM_FANS = [
    projective_space_fan(2),
    fan_module.build_projective_bundle_fan(BundleSpec(1, (0, 1))),
    make_blowup(BundleSpec(2, (0, 0, 1)), CenterSpec(frozenset({"b1", "b2", "f1"}))).fan_xt,
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hom_batch_grid_matches_the_per_pair_differences(data):
    """On Picard ranks 1 to 3, with repeated classes, the grid indexes each
    cell's difference b - a, and the oracle is asked for the distinct
    differences in row-major first-seen order, the order the cache file
    is written in."""
    fan = data.draw(st.sampled_from(HOM_FANS))
    coords = st.tuples(*[st.integers(-3, 3)] * fan.pic_rank)
    distinct = data.draw(st.lists(coords, min_size=1, max_size=6))
    repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=4))
    classes = [fan.pic_class(c) for c in data.draw(st.permutations(distinct + repeats))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify_module, "_dims_of_coords", lambda f, coords, cache: list(coords))
        grid, homs = verify_module._hom_batch(fan, classes, None)
    cells = [[tuple(map(sub, b.coords, a.coords)) for b in classes] for a in classes]
    assert homs == list(dict.fromkeys(cell for row in cells for cell in row))
    assert [[homs[k] for k in row] for row in grid] == cells


def test_certify_checks_each_class_once_and_lifts_once(tmp_path, monkeypatch):
    """One certify of a 4/1 case checks each class exactly once, builds no
    PicClass (none for a difference), and lifts in one product exactly the
    distinct differences its cache lacks, in first-seen order."""
    bl, col = construct(BundleSpec(2, (0, 0, 1)), CenterSpec(frozenset({"b1", "b2", "f1"})))
    fan, classes = bl.fan_xt, collection_classes(bl, col)
    checked, built, lifts = [], [], []
    check, lift, init = verify_module._class_coords, kernels._lift, PicClass.__init__
    monkeypatch.setattr(
        verify_module, "_class_coords", lambda f, cls: checked.append(cls) or check(f, cls)
    )
    monkeypatch.setattr(
        kernels, "_lift", lambda f, coords: lifts.append(coords) or lift(f, coords)
    )
    monkeypatch.setattr(
        PicClass, "__init__", lambda cls, *args: built.append(cls) or init(cls, *args)
    )

    def differences(classes):
        cells = (tuple(map(sub, b.coords, a.coords)) for a in classes for b in classes)
        return list(dict.fromkeys(cells))

    assert certify(fan, classes).all_passed
    assert checked == classes and built == []
    assert lifts == [differences(classes)]
    # with a cache that holds the differences of the first four classes
    cache = DiskCache(str(tmp_path))
    certify(fan, classes[:4], cache=cache)
    checked.clear()
    lifts.clear()
    assert certify(fan, classes, cache=cache).all_passed
    assert checked == classes and built == []
    assert lifts == [[d for d in differences(classes) if d not in differences(classes[:4])]]


def test_certify_beilinson_p3():
    fan, classes = _beilinson(3)
    report = certify(fan, classes)
    assert report.exceptional and report.semiorthogonal and report.strong
    assert report.gram_determinant == 1
    assert report.length_actual == report.length_expected == 4
    assert report.violations == []
    assert report.all_passed


def test_certify_negative_control():
    fan, classes = _beilinson(2)
    swapped = [classes[1], classes[0], classes[2]]
    report = certify(fan, swapped)
    assert not report.semiorthogonal
    assert not report.all_passed
    assert any(v[0] == "semiorthogonal" for v in report.violations)
    # the Gram matrix stops being unitriangular as well
    assert any(v[0] == "gram" for v in report.violations)


def test_certify_wrong_length_fails():
    fan, classes = _beilinson(2)
    report = certify(fan, classes[:2])
    assert report.exceptional and report.semiorthogonal and report.strong
    assert (report.length_actual, report.length_expected) == (2, 3)
    assert not report.all_passed


def test_certify_non_exceptional_diagonal(monkeypatch):
    fan = projective_space_fan(1)
    report = certify(fan, [fan.pic_class((0,))] * 2)
    # duplicate objects: diagonal fine, but Hom(O, O) = 1 both ways
    assert not report.semiorthogonal
    # a line bundle on a complete toric variety always has Hom(L, L) = k,
    # so only a planted h for the zero difference fails the diagonal cells
    real = verify_module._dims_of_coords

    def planted(fan, coords, cache):
        homs = real(fan, coords, cache)
        return [(2, 0, 0) if not any(c) else h for c, h in zip(coords, homs, strict=True)]

    monkeypatch.setattr(verify_module, "_dims_of_coords", planted)
    fan, classes = _beilinson(2)
    report = certify(fan, classes)
    assert not report.exceptional and report.semiorthogonal and report.strong
    assert report.violations == [("exceptional", i, i, (2, 0, 0)) for i in range(3)] + [
        ("gram", -1, -1, ())
    ]


def test_gram_determinant_absolute_value_is_permutation_invariant():
    fan, classes = _beilinson(2)
    base = certify(fan, classes)
    perm = certify(fan, [classes[2], classes[0], classes[1]])
    assert abs(perm.gram_determinant) == abs(base.gram_determinant) == 1


def test_gram_determinant_only_computed_when_gram_fails(monkeypatch):
    """A unitriangular Gram matrix reports determinant 1 without computing
    it; a failing one reports its exact determinant."""
    dets = []
    real = verify_module.determinant

    def counted(m):
        dets.append(m)
        return real(m)

    monkeypatch.setattr(verify_module, "determinant", counted)
    fan, classes = _beilinson(3)
    assert certify(fan, classes).gram_determinant == 1 and dets == []
    p1 = projective_space_fan(1)
    report = certify(p1, [p1.pic_class((0,)), p1.pic_class((2,))])
    assert report.gram == [[1, 3], [-1, 1]]
    assert report.gram_determinant == 4 and dets == [report.gram]


def test_report_json_shape():
    fan, classes = _beilinson(1)
    doc = certify(fan, classes).to_json()
    for key in (
        "exceptional",
        "semiorthogonal",
        "strong",
        "gram",
        "gram_determinant",
        "length_expected",
        "length_actual",
        "violations",
        "provenance_hash",
        "all_passed",
    ):
        assert key in doc
    assert doc["all_passed"] is True
    assert doc["gram"] == [[1, 2], [0, 1]]


def _orlov_length(bl):
    """Orlov's count for the blow-up, (s+1)(r+1) + (c-1)(s'+1)(r'+1): the
    reference the fan's maximal-cone count is checked against."""
    spec, geom = bl.spec, bl.geometry
    return (spec.s + 1) * (spec.r + 1) + (geom.codim - 1) * (geom.s_prime + 1) * (
        geom.r_prime + 1
    )


def test_expected_length_formulas(bl_p1p1, bl_p2p1):
    """certify expects one object per maximal cone of the blow-up fan, which
    is Orlov's count on every blow-up of the s + r <= 4, degree <= 2
    family."""
    assert len(bl_p1p1.fan_xt.max_cones) == 5
    assert len(bl_p2p1.fan_xt.max_cones) == 8
    cases = 0
    for spec in enumerate_specs(4, 2):
        for codim in (2, 3):
            for center in enumerate_centers(spec, codim):
                bl = make_blowup(spec, center)
                assert len(bl.fan_xt.max_cones) == _orlov_length(bl), (
                    spec,
                    center,
                )
                cases += 1
    assert cases > 700


def test_length_comes_from_the_fan_not_the_construction(monkeypatch):
    """A construction sized from a wrong center geometry (s' one too small)
    yields a collection one object short, and certify rejects it."""
    real = fan_module._geometry

    def shrunk(spec, center):
        geom = real(spec, center)
        return replace(geom, s_prime=geom.s_prime - 1)

    monkeypatch.setattr(fan_module, "_geometry", shrunk)
    bl, col = construct(BundleSpec(2, (0, 0)), CenterSpec(frozenset({"b1", "f1"})))
    assert len(col.objects) == 7
    report = certify(bl.fan_xt, collection_classes(bl, col))
    assert (report.length_actual, report.length_expected) == (7, 8)
    assert not report.all_passed


def test_certify_refuses_a_fan_too_large_to_plan(monkeypatch):
    """P^200 x P^1 blown up at a point has 204 rays, so its plan would form
    a vertex map for each of C(204, 3) sets of rays: certify raises
    BoxTooLarge naming the fan and the count within a second, before any
    vertex map is formed."""
    bl, col = construct(BundleSpec(200, (0, 0)), CenterSpec(frozenset({"b1", "f1"})))
    classes = collection_classes(bl, col)
    formed = []
    real = kernels._vertex_maps
    monkeypatch.setattr(kernels, "_vertex_maps", lambda fan: formed.append(fan) or real(fan))
    t0 = time.perf_counter()
    with pytest.raises(BoxTooLarge) as info:
        certify(bl.fan_xt, classes)
    assert time.perf_counter() - t0 < 1.0
    assert formed == []
    assert str(info.value) == (
        "fan X(s=200,a=(0, 0))+E: C(204, 3) = 1394204 sets of rays to plan (budget 100000)"
    )


def test_certified_construction_end_to_end():
    spec = BundleSpec(1, (0, 1))
    center = CenterSpec(frozenset({"b0", "f0"}))
    bl, col = construct(spec, center)
    report = certify(bl.fan_xt, collection_classes(bl, col))
    assert report.all_passed
    assert isinstance(report, Report)


def test_certify_writes_one_cache_file(tmp_path, monkeypatch):
    """One certify reads and writes one file; a fresh fan object of the
    same blow-up then certifies from it without a kernel call."""
    spec, center = BundleSpec(1, (0, 1)), CenterSpec(frozenset({"b1", "f1"}))
    bl, col = construct(spec, center)
    classes = collection_classes(bl, col)
    cache = DiskCache(str(tmp_path))
    io = []

    def counted(name):
        real = getattr(DiskCache, name)

        def wrapper(self, *args):
            io.append(name)
            return real(self, *args)

        return wrapper

    monkeypatch.setattr(DiskCache, "get", counted("get"))
    monkeypatch.setattr(DiskCache, "put", counted("put"))
    first = certify(bl.fan_xt, classes, cache=cache)
    assert first.all_passed
    assert io == ["get", "put"]
    assert len(list(tmp_path.iterdir())) == 1

    calls = []
    real_kernel = kernels.count_support_sets

    def counted_kernel(*args):
        calls.append(args)
        return real_kernel(*args)

    monkeypatch.setattr(kernels, "count_support_sets", counted_kernel)
    fresh = make_blowup(spec, center).fan_xt
    again = certify(fresh, [fresh.pic_class(c.coords) for c in classes], cache=cache)
    assert calls == []
    assert io == ["get", "put", "get"]
    assert again.to_json() == first.to_json()


def test_planted_zeros_cannot_hide_a_failure(tmp_path):
    """The swapped Beilinson collection fails.  Its cache file with every
    h-vector of a nonzero class edited to zero would hide the failure if it
    were read, as a deliberately re-checksummed copy shows; under the
    file's old checksum it is discarded and the failure stands."""
    fan, classes = _beilinson(2)
    swapped = [classes[1], classes[0], classes[2]]
    cache = DiskCache(str(tmp_path))
    failing = certify(fan, swapped, cache=cache).to_json()
    assert failing["violations"]
    path = cache._path(fan)[0]
    with open(path, "rb") as fh:
        header, checksum, body = fh.read().split(b"\n", 2)
    planted = json.dumps(
        [[c, h if c == [0] else [0, 0, 0]] for c, h in json.loads(body)]
    ).encode()
    forged = hashlib.sha256(planted).hexdigest().encode()
    for digest, passes in ((checksum, False), (forged, True)):
        with open(path, "wb") as fh:
            fh.write(b"\n".join([header, digest, planted]))
        assert certify(fan, swapped, cache=cache).all_passed is passes
    assert certify(fan, swapped).to_json() == failing


def test_failing_report_json_swapped_beilinson():
    """The whole report of a failing collection, violations in order."""
    fan, classes = _beilinson(2)
    doc = certify(fan, [classes[1], classes[0], classes[2]]).to_json()
    assert doc == {
        "exceptional": True,
        "semiorthogonal": False,
        "strong": True,
        "gram": [[1, 0, 3], [3, 1, 6], [0, 0, 1]],
        "gram_determinant": 1,
        "length_expected": 3,
        "length_actual": 3,
        "violations": [
            {"check": "semiorthogonal", "row": 1, "col": 0, "hom": [3, 0, 0]},
            {"check": "gram", "row": -1, "col": -1, "hom": []},
        ],
        "provenance_hash": "244fa55cb5fd6fa8f9a5caf5c893c58b9efc4d7bc7cf1bf2615dfbf89cdb756f",
        "all_passed": False,
    }


def test_failing_report_json_drop_one_on_dim3_blowup():
    """Dropping the fourth object of the constructed collection on P^2 x P^1
    blown up at a point leaves only the length check failing."""
    bl, col = construct(BundleSpec(2, (0, 0)), CenterSpec(frozenset({"b1", "b2", "f1"})))
    classes = collection_classes(bl, col)
    doc = certify(bl.fan_xt, classes[:3] + classes[4:]).to_json()
    assert doc == {
        "exceptional": True,
        "semiorthogonal": True,
        "strong": True,
        "gram": [
            [1, 1, 3, 2, 6, 11, 12],
            [0, 1, 2, 1, 5, 8, 11],
            [0, 0, 1, 0, 2, 5, 6],
            [0, 0, 0, 1, 3, 5, 6],
            [0, 0, 0, 0, 1, 2, 3],
            [0, 0, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 0, 0, 1],
        ],
        "gram_determinant": 1,
        "length_expected": 8,
        "length_actual": 7,
        "violations": [],
        "provenance_hash": "9535ebe88af1c4f8922543f9be49683721c85f77b00ac4e4d0e996ecfdbabca2",
        "all_passed": False,
    }


def test_failing_report_json_p1_steep_pair():
    """[O, O(-3)] on P^1: strong fails above the diagonal, semiorthogonal
    below it, in table order, and the Gram matrix is not unitriangular."""
    fan = projective_space_fan(1)
    doc = certify(fan, [fan.pic_class((0,)), fan.pic_class((-3,))]).to_json()
    assert doc == {
        "exceptional": True,
        "semiorthogonal": False,
        "strong": False,
        "gram": [[1, -2], [4, 1]],
        "gram_determinant": 9,
        "length_expected": 2,
        "length_actual": 2,
        "violations": [
            {"check": "strong", "row": 0, "col": 1, "hom": [0, 2]},
            {"check": "semiorthogonal", "row": 1, "col": 0, "hom": [4, 0]},
            {"check": "gram", "row": -1, "col": -1, "hom": []},
        ],
        "provenance_hash": "053343246cb4b886e9cb84942b14b39dc90e9909f7691c3ebafa7b10d5cdcceb",
        "all_passed": False,
    }


def test_failing_report_json_reversed_beilinson():
    fan, classes = _beilinson(2)
    doc = certify(fan, classes[::-1]).to_json()
    assert doc == {
        "exceptional": True,
        "semiorthogonal": False,
        "strong": True,
        "gram": [[1, 0, 0], [3, 1, 0], [6, 3, 1]],
        "gram_determinant": 1,
        "length_expected": 3,
        "length_actual": 3,
        "violations": [
            {"check": "semiorthogonal", "row": 1, "col": 0, "hom": [3, 0, 0]},
            {"check": "semiorthogonal", "row": 2, "col": 0, "hom": [6, 0, 0]},
            {"check": "semiorthogonal", "row": 2, "col": 1, "hom": [3, 0, 0]},
            {"check": "gram", "row": -1, "col": -1, "hom": []},
        ],
        "provenance_hash": "5da8d4aba1f50e74fc05021e4ca71994e9171e53e1380ae688ae25dc8e6e6cbf",
        "all_passed": False,
    }


def _gram_cases():
    """(fan, a strong full exceptional collection on it): P^2, P^1 x P^1 and
    P^2 x P^1 blown up at a point."""
    cases = [_beilinson(2)]
    for spec, center in (
        (BundleSpec(1, (0, 0)), {"b1", "f1"}),
        (BundleSpec(2, (0, 0)), {"b1", "b2", "f1"}),
    ):
        bl, col = construct(spec, CenterSpec(frozenset(center)))
        cases.append((bl.fan_xt, collection_classes(bl, col)))
    return cases


_GRAM_CASES = _gram_cases()


@st.composite
def _class_lists(draw):
    """A case index and a class list on its fan: a twisted sub-collection,
    in order or shuffled, with up to two random classes inserted."""
    case = draw(st.integers(0, len(_GRAM_CASES) - 1))
    fan, collection = _GRAM_CASES[case]
    coords = st.tuples(*[st.integers(-3, 3)] * fan.pic_rank)
    shift = fan.pic_class(draw(coords))
    n = len(collection)
    picks = [i for i, keep in enumerate(draw(st.lists(st.booleans(), min_size=n, max_size=n))) if keep]
    if draw(st.sampled_from((False, False, True))):
        picks = draw(st.permutations(picks))
    classes = [collection[i] + shift for i in picks]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        classes.insert(draw(st.integers(0, len(classes))), fan.pic_class(draw(coords)))
    return case, classes


@settings(max_examples=80, deadline=None)
@given(_class_lists())
@example((0, []))
def test_exceptional_and_semiorthogonal_imply_unimodular_gram(case_classes):
    """Hom(E_i, E_i) = k and Ext*(E_i, E_j) = 0 for i > j make the Gram
    matrix upper unitriangular, so all_passed needs no Gram check of its
    own."""
    case, classes = case_classes
    fan = _GRAM_CASES[case][0]
    report = certify(fan, classes)
    if report.exceptional and report.semiorthogonal:
        assert not any(v[0] == "gram" for v in report.violations)
        assert abs(report.gram_determinant) == 1


def _reference_report_json(fan, classes):
    """certify's report, one cell at a time: each cell of ext_table gets its
    own check, in table order (the diagonal cell first, then j < i, then
    j > i), and its own Euler sum."""

    def cell_check(i, j, h):
        if i == j:
            return "exceptional", h[0] != 1 or any(h[1:])
        if i > j:
            return "semiorthogonal", any(h)
        return "strong", any(h[1:])

    table = ext_table(fan, classes)
    n = len(classes)
    violations = []
    for i in range(n):
        for j in (i, *range(i), *range(i + 1, n)):
            check, bad = cell_check(i, j, table[i][j])
            if bad:
                violations.append((check, i, j, table[i][j]))
    gram = [[sum(h[::2]) - sum(h[1::2]) for h in row] for row in table]
    if any(gram[i][j] != (i == j) for i in range(n) for j in range(i + 1)):
        violations.append(("gram", -1, -1, ()))
    failed = {v[0] for v in violations}
    payload = json.dumps([list(c.coords) for c in classes])
    return Report(
        exceptional="exceptional" not in failed,
        semiorthogonal="semiorthogonal" not in failed,
        strong="strong" not in failed,
        gram=gram,
        gram_determinant=determinant(gram),
        length_expected=len(fan.max_cones),
        length_actual=n,
        violations=violations,
        provenance_hash=hashlib.sha256(payload.encode()).hexdigest(),
    ).to_json()


@settings(max_examples=80, deadline=None)
@given(_class_lists())
@example((0, []))
def test_certify_matches_the_per_cell_reference(case_classes):
    """certify checks each distinct Hom vector once, yet reports exactly
    what the per-cell rule does: flags, violations in order, Gram matrix
    and determinant."""
    case, classes = case_classes
    fan = _GRAM_CASES[case][0]
    assert certify(fan, classes).to_json() == _reference_report_json(fan, classes)


def test_certify_matches_the_per_cell_reference_on_p2_and_a_4_1_blowup():
    """The same on P^2 and on a dim-4 blow-up of the 4/1 family, for the
    collection and for failing reorderings, a duplicate and a twisted
    intruder."""
    bl, col = construct(BundleSpec(2, (0, 1, 1)), CenterSpec(frozenset({"b1", "f1", "f2"})))
    cases = [_beilinson(2), (bl.fan_xt, collection_classes(bl, col))]
    for fan, good in cases:
        assert certify(fan, good).all_passed
        n = len(good)
        twist = fan.pic_class((1,) + (0,) * (fan.pic_rank - 1))
        for classes in (
            good,
            good[::-1],
            good[1:] + good[:1],
            good[: n // 2] + [good[0]] + good[n // 2 :],
            good[:1] + [good[-1] + twist] + good[1:],
        ):
            doc = certify(fan, classes).to_json()
            assert doc == _reference_report_json(fan, classes)
