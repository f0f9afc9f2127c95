"""Acceptance gate: one printed pass/fail line per criterion.

Every check is an exact integer equality; there are no tolerances.  The
family swept is every BundleSpec with s + r <= 4 and fiber degrees bounded
by 2, with every torus-invariant center of codimension 2 and 3.
"""

import os
import random
import sys

import pytest

from excol import (
    BundleSpec,
    build_projective_bundle_fan,
    certify,
    cohomology_on_bundle,
    collection_classes,
    construct,
    ext_line_to_pushforward,
    make_blowup,
    projective_space_fan,
)
from excol.cli import enumerate_centers, enumerate_specs
from excol.cohomology import DiskCache, cohomology_dims_many
from oracle_helpers import euler_pairing
from fan_helpers import center_geometry, sym_conormal, y_cohomology

MAX_DIM = 4
MAX_DEGREE = 2
SPECS = enumerate_specs(MAX_DIM, MAX_DEGREE)

# filled by criteria 1/2, reused by criterion 7's negative control
_NEGATIVE_REPORTS = []

_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_report(capfd):
    """Let the one-line criterion verdicts through pytest's fd capture."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(number, name, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {number} {name}{suffix}: {'PASS' if ok else 'FAIL'}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _geometry_key(spec, center):
    cut_degrees = tuple(
        sorted(spec.fiber_degrees[int(n[1:])] for n in center.ray_names if n[0] == "f")
    )
    n_base_cuts = center.codim - len(cut_degrees)
    return (spec, n_base_cuts, cut_degrees)


def _dedup_centers(codims):
    """One representative center per blow-up isomorphism class."""
    seen = set()
    out = []
    for spec in SPECS:
        for codim in codims:
            for center in enumerate_centers(spec, codim):
                key = _geometry_key(spec, center)
                if key not in seen:
                    seen.add(key)
                    out.append((spec, center))
    return out


def _certify_case(spec, center, cache=None):
    bl, col = construct(spec, center)
    classes = collection_classes(bl, col)
    report = certify(bl.fan_xt, classes, cache)
    if report.all_passed and len(classes) >= 2:
        swapped = [classes[1], classes[0]] + classes[2:]
        negative = certify(bl.fan_xt, swapped, cache)
        _NEGATIVE_REPORTS.append(((spec, center), negative))
    return report


def _certified_family_sweep(number, name, codim):
    failures = []
    cases = 0
    # a fresh file per fan: each negative control reads its positive run's
    # entries instead of recomputing them
    cache = DiskCache(os.path.join(os.environ["EXCOL_CACHE_DIR"], f"criterion-{number}"))
    for spec in SPECS:
        for center in enumerate_centers(spec, codim):
            cases += 1
            try:
                report = _certify_case(spec, center, cache)
            except Exception as exc:  # noqa: BLE001 - any abort is a failure
                failures.append((spec, sorted(center.ray_names), repr(exc)))
                continue
            if not report.all_passed:
                failures.append(
                    (spec, sorted(center.ray_names), report.to_json()["violations"])
                )
    ok = cases > 0 and not failures
    _report(number, name, ok, f"{cases} cases")
    assert ok, failures[:5]


def test_criterion_1_certified_collections_codim2():
    _certified_family_sweep(1, "certified-collections-codim-2", 2)


def test_criterion_2_certified_collections_codim3():
    _certified_family_sweep(2, "certified-collections-codim-3", 3)


def test_criterion_3_oracle_fastpath_equivalence():
    failures = []
    pairs = 0
    grid = [(alpha, beta) for alpha in range(-6, 7) for beta in range(-6, 7)]

    def check(fan, expected):
        """Compare (coords, closed-form h) pairs on fan with one oracle batch."""
        nonlocal pairs
        pairs += len(expected)
        oracle = cohomology_dims_many(fan, [fan.pic_class(c) for c, _ in expected])
        for (cls_coords, fast), h in zip(expected, oracle):
            if tuple(fast) != h:
                failures.append((fan.basis_tag, cls_coords, fast, h))

    for spec in SPECS:
        fan = build_projective_bundle_fan(spec)
        check(
            fan,
            [
                ((alpha, beta), cohomology_on_bundle(spec.s, spec.fiber_degrees, alpha, beta))
                for alpha, beta in grid
            ],
        )

    # the centers Y, one fan per isomorphism class
    seen = set()
    for spec in SPECS:
        for codim in (2, 3):
            for center in enumerate_centers(spec, codim):
                geom = center_geometry(spec, center)
                sp, rp = geom.s_prime, geom.r_prime
                key = (sp, geom.y_degrees)
                if key in seen or sp + rp == 0:
                    continue
                seen.add(key)
                a0 = geom.y_degrees[0]
                if sp >= 1 and rp >= 1:
                    shifted = tuple(d - a0 for d in geom.y_degrees)
                    yfan = build_projective_bundle_fan(BundleSpec(sp, shifted))
                    expected = [
                        ((alpha, beta), y_cohomology(geom, alpha - beta * a0, beta))
                        for alpha, beta in grid
                    ]
                elif rp == 0:  # Y = P^{s'} and O_q(1) restricts to O(a0)
                    yfan = projective_space_fan(sp)
                    expected = [
                        ((alpha + beta * a0,), y_cohomology(geom, alpha, beta))
                        for alpha, beta in grid
                    ]
                else:  # sp == 0: Y = P^{r'} and q*O(alpha) is trivial
                    yfan = projective_space_fan(rp)
                    expected = [((beta,), y_cohomology(geom, alpha, beta)) for alpha, beta in grid]
                check(yfan, expected)

    ok = pairs >= 1000 and not failures
    _report(3, "oracle-fastpath-equivalence", ok, f"{pairs} pairs")
    assert ok, failures[:5]


def test_criterion_4_acyclic_E_twists():
    failures = []
    checks = 0
    for spec, center in _dedup_centers((2, 3)):
        fan_xt = make_blowup(spec, center).fan_xt
        twists = [
            (alpha, beta, k)
            for alpha in range(-2, 4)
            for beta in range(-2, 4)
            # only acyclic L on X are in scope
            if not any(cohomology_on_bundle(spec.s, spec.fiber_degrees, alpha, beta)[1:])
            for k in range(center.codim)
        ]
        checks += len(twists)
        dims = cohomology_dims_many(fan_xt, [fan_xt.pic_class(t) for t in twists])
        for (alpha, beta, k), h in zip(twists, dims):
            if any(h[1:]):
                failures.append((spec, sorted(center.ray_names), (alpha, beta), k))
    ok = checks > 0 and not failures
    _report(4, "acyclicity-of-E-twists", ok, f"{checks} checks")
    assert ok, failures[:5]


def test_criterion_5_triangle_euler_consistency():
    rng = random.Random(20260823)
    failures = []
    cases = []
    for spec in SPECS:
        for codim in (2, 3):
            for center in enumerate_centers(spec, codim):
                cases.append((spec, center))
    blowups = {}
    for _ in range(500):
        spec, center = cases[rng.randrange(len(cases))]
        bl = blowups.setdefault((spec, center), make_blowup(spec, center))
        geom, fan = bl.geometry, bl.fan_xt
        ma, mb, la, lb = (rng.randint(-3, 3) for _ in range(4))
        k = rng.randint(1, center.codim - 1)
        lhs = -sum(
            sum(
                (-1) ** i * x
                for i, x in enumerate(y_cohomology(geom, la + ta - ma, lb + tb - mb))
            )
            for ta, tb in sym_conormal(geom, k - 1)
        )
        hi = euler_pairing(fan, fan.pic_class((ma, mb, k)), fan.pic_class((la, lb, 0)))
        lo = euler_pairing(
            fan, fan.pic_class((ma, mb, k - 1)), fan.pic_class((la, lb, 0))
        )
        if lhs != hi - lo:
            failures.append((spec, sorted(center.ray_names), (ma, mb), k, (la, lb)))
    ok = not failures
    _report(5, "triangle-euler-consistency", ok, "500 tuples")
    assert ok, failures[:5]


def test_criterion_6_line_to_pushforward_zero_ranges():
    failures = []
    findings = []
    checks = 0
    zero = None
    for spec, center in _dedup_centers((2, 3)):
        geom = center_geometry(spec, center)
        s, r, sp, rp = spec.s, spec.r, geom.s_prime, geom.r_prime
        zero = tuple([0] * (spec.dim + 1))
        for b2 in range(r - rp, r + 1):
            for a2 in range(s - sp, s + 1):
                # part (a): untwisted pullback against the pushforward
                for b1 in range(0, r + 1):
                    for a1 in range(0, s + 1):
                        if not (b2 < b1 or (b1 == b2 and a2 < a1)):
                            continue
                        checks += 1
                        hom = ext_line_to_pushforward(geom, 0, (a1, b1), (a2, b2))
                        if hom != zero:
                            failures.append(("a", spec, (a1, b1), (a2, b2), hom))
                # part (b): the O(E)-twisted pullback, smaller index window
                for b1 in range(0, rp + 1):
                    for a1 in range(0, sp + 1):
                        if not (b2 < b1 or (b1 == b2 and a2 <= a1)):
                            continue
                        checks += 1
                        hom = ext_line_to_pushforward(geom, 1, (a1, b1), (a2, b2))
                        if hom != zero:
                            failures.append(("b", spec, (a1, b1), (a2, b2), hom))
        # probe outside the window where the vanishing is NOT expected to
        # survive: a2 below s - s' can hit the nonvanishing range of the base
        for b2 in range(r - rp, r + 1):
            for a2 in range(0, s - sp):
                for a1 in range(a2 + 1, s + 1):
                    hom = ext_line_to_pushforward(geom, 0, (a1, b2), (a2, b2))
                    if hom != zero:
                        findings.append((spec, (a1, b2), (a2, b2), hom))
    ok = checks > 0 and not failures
    detail = f"{checks} checks"
    if findings:
        detail += f"; {len(findings)} known nonzero probes below alpha2 = s-s'"
    _report(6, "zero-ranges-line-to-pushforward", ok, detail)
    assert ok, failures[:5]


def test_criterion_7_sanity_anchors():
    problems = []

    # Beilinson collections
    for n in range(1, 5):
        fan = projective_space_fan(n)
        classes = [fan.pic_class((d,)) for d in range(n + 1)]
        report = certify(fan, classes)
        if not report.all_passed:
            problems.append(("beilinson", n))

    # Serre duality on a representative fan set
    rng = random.Random(99)
    fans = [
        projective_space_fan(2),
        projective_space_fan(3),
        build_projective_bundle_fan(BundleSpec(1, (0, 0))),
        build_projective_bundle_fan(BundleSpec(2, (0, 1))),
        make_blowup(
            BundleSpec(1, (0, 0)), frozenset_center({"b1", "f1"})
        ).fan_xt,
        make_blowup(
            BundleSpec(2, (0, 0)), frozenset_center({"b1", "b2", "f1"})
        ).fan_xt,
    ]
    for fan in fans:
        k = fan.canonical_class()
        classes = [
            fan.pic_class(tuple(rng.randint(-4, 4) for _ in range(fan.pic_rank)))
            for _ in range(200)
        ]
        dims = cohomology_dims_many(fan, classes + [k - cls for cls in classes])
        for cls, h, hd in zip(classes, dims, dims[len(classes) :]):
            if h != tuple(reversed(hd)):
                problems.append(("serre", fan.basis_tag, cls.coords))

    # negative control: one transposition per certified collection
    negatives = _NEGATIVE_REPORTS or _fallback_negatives()
    if not negatives:
        problems.append(("negative-control", "no certified collections"))
    for (spec, center), neg in negatives:
        if neg.all_passed:
            problems.append(("negative-control", spec, sorted(center.ray_names)))

    ok = not problems
    _report(
        7,
        "sanity-anchors",
        ok,
        f"beilinson<=4, serre x{200 * len(fans)}, {len(negatives)} negative controls",
    )
    assert ok, problems[:5]


def frozenset_center(names):
    from excol import CenterSpec

    return CenterSpec(frozenset(names))


def _fallback_negatives():
    for spec, names in (
        (BundleSpec(1, (0, 0)), {"b1", "f1"}),
        (BundleSpec(2, (0, 0)), {"b1", "b2", "f1"}),
    ):
        _certify_case(spec, frozenset_center(names))
    return _NEGATIVE_REPORTS
