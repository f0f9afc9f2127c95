import hashlib
import json
import sys

import pytest

from excol import (
    BundleSpec,
    CenterSpec,
    Collection,
    LineBundle,
    PushforwardTwist,
    collection_classes,
    construct,
    make_blowup,
)
from excol import mutation, splitcalc
from excol.cli import enumerate_centers, enumerate_specs
from excol.fan import Fan
from excol.errors import (
    HypothesisFailed,
    NotOrthogonal,
    UnsupportedExtPair,
)
from excol.mutation import (
    anticanonical_twist,
    graded_hom,
    initial_collection,
    left_mutation_E_twist,
    right_mutation_E_twist,
    serre_rotate,
    tensor_object,
    transpose_if_orthogonal,
)


def _shapes(col):
    return [(type(o).__name__[0], o.alpha, o.beta, o.k) for o in col.objects]


@pytest.mark.parametrize(
    "blowup, shapes",
    [
        (
            "bl_p1p1",
            [("P", 0, 0, 1), ("L", 0, 0, 0), ("L", 1, 0, 0), ("L", 0, 1, 0), ("L", 1, 1, 0)],
        ),
        (
            "bl_p2p1",
            [
                ("P", -1, -1, 2),
                ("P", 0, 0, 1),
                ("L", 0, 0, 0),
                ("L", 1, 0, 0),
                ("L", 2, 0, 0),
                ("L", 0, 1, 0),
                ("L", 1, 1, 0),
                ("L", 2, 1, 0),
            ],
        ),
    ],
    ids=["codim2", "codim3"],
)
def test_initial_collection(request, blowup, shapes):
    assert _shapes(initial_collection(request.getfixturevalue(blowup))) == shapes


def test_o2e_block_rotates_onto_x_top_corner():
    """On every codim-3 center of the s + r <= 4, degree <= 2 family, the
    seed's O(2E) block twisted by -K is exactly the untwisted pushforwards
    on X's top-corner window [s - s', s] x [r - r', r], in the block's
    order: why construct's Serre rotations land it where its left
    mutations find partners."""
    cases = 0
    for spec in enumerate_specs(4, 2):
        s, r = spec.s, spec.r
        for center in enumerate_centers(spec, 3):
            bl = make_blowup(spec, center)
            sp, rp = bl.geometry.s_prime, bl.geometry.r_prime
            block = [o for o in initial_collection(bl).objects if o.k == 2]
            assert [tensor_object(o, anticanonical_twist(bl)) for o in block] == [
                PushforwardTwist(a, b, 0)
                for b in range(r - rp, r + 1)
                for a in range(s - sp, s + 1)
            ], (spec, center)
            cases += 1
    assert cases == 370


def test_anticanonical_twist_formula():
    """On every case of the s + r <= 4, degree <= 2 family, -K of the
    blow-up is (s + 1 - sum a, r + 1, 1 - c)."""
    cases = 0
    for spec in enumerate_specs(4, 2):
        for codim in (2, 3):
            for center in enumerate_centers(spec, codim):
                assert anticanonical_twist(make_blowup(spec, center)) == (
                    spec.s + 1 - sum(spec.fiber_degrees),
                    spec.r + 1,
                    1 - codim,
                ), (spec, center)
                cases += 1
    assert cases == 735


def test_construct_codim2_p1xp1():
    bl, col = construct(
        BundleSpec(1, (0, 0)), CenterSpec(frozenset({"b1", "f1"}))
    )
    assert [(o.alpha, o.beta, o.k) for o in col.objects] == [
        (0, 0, 0),
        (0, 0, 1),
        (1, 0, 0),
        (0, 1, 0),
        (1, 1, 0),
    ]
    assert all(isinstance(o, LineBundle) for o in col.objects)


def test_construct_codim3_p2xp1():
    bl, col = construct(
        BundleSpec(2, (0, 0)), CenterSpec(frozenset({"b1", "b2", "f1"}))
    )
    assert [(o.alpha, o.beta, o.k) for o in col.objects] == [
        (0, 0, 0),
        (0, 0, 1),
        (1, 0, 0),
        (2, 0, 0),
        (0, 1, 0),
        (1, 1, 0),
        (2, 1, -1),
        (2, 1, 0),
    ]


def test_construct_codim3_curve_center_count():
    bl, col = construct(
        BundleSpec(1, (0, 0, 1)), CenterSpec(frozenset({"b1", "f0", "f1"}))
    )
    assert len(col.objects) == 8  # (s+1)(r+1) + 2(s'+1)(r'+1) = 6 + 2
    assert all(isinstance(o, LineBundle) for o in col.objects)


def test_construction_is_deterministic():
    spec = BundleSpec(2, (0, 1))
    center = CenterSpec(frozenset({"b1", "f1"}))
    _, a = construct(spec, center)
    _, b = construct(spec, center)
    assert a.objects == b.objects
    assert a.log == b.log
    assert all("rule" in entry for entry in a.log)


def test_a_replay_computes_the_canonical_class_once(monkeypatch):
    """P^3 x P^1 blown up at b1,b2,f1 Serre-rotates its two O(2E)
    pushforwards; the blow-up's canonical class is read for each rotation
    but computed once."""
    calls = []
    real = Fan.class_of_divisor
    monkeypatch.setattr(
        Fan, "class_of_divisor", lambda fan, coeffs: calls.append(coeffs) or real(fan, coeffs)
    )
    bl, col = construct(BundleSpec(3, (0, 0)), CenterSpec(frozenset({"b1", "b2", "f1"})))
    assert [entry["rule"] for entry in col.log].count("serre_rotate") == 2
    assert calls == [[-1] * bl.fan_xt.n_rays]


def test_serre_rotation_moves_head_to_tail(bl_p2p1):
    """The initial collection's head, a pushforward, and a line bundle at
    the head each move to the tail, twisted by -K."""
    col = initial_collection(bl_p2p1)
    line = next(o for o in col.objects if isinstance(o, LineBundle))
    for start in (list(col.objects), [line, *col.objects]):
        objects, log = list(start), [{"rule": "transpose"}]
        serre_rotate(bl_p2p1, objects, log)
        moved = tensor_object(start[0], anticanonical_twist(bl_p2p1))
        assert objects == [*start[1:], moved]
        assert log == [
            {"rule": "transpose"},
            {"rule": "serre_rotate", "direction": "forward", "object": moved.to_json()},
        ]
    a, b, k = anticanonical_twist(bl_p2p1)
    assert moved == LineBundle(line.alpha + a, line.beta + b, line.k + k)


def test_anticanonical_twist_codim3(bl_p2p1):
    assert anticanonical_twist(bl_p2p1) == (3, 2, -2)
    objects = list(initial_collection(bl_p2p1).objects)
    serre_rotate(bl_p2p1, objects, [])
    moved = objects[-1]
    # the O(2E) seed object lands as an untwisted pushforward at the tail
    assert isinstance(moved, PushforwardTwist)
    assert (moved.alpha, moved.beta, moved.k) == (2, 1, 0)


def test_transpose_requires_orthogonality(bl_p1p1, bl_p2p1):
    # the pairs the scripts mutate, which are not orthogonal
    for bl, pair, hom in (
        (bl_p1p1, (PushforwardTwist(0, 0, 1), LineBundle(0, 0, 0)), (0, 1, 0)),
        (bl_p2p1, (LineBundle(2, 1, 0), PushforwardTwist(2, 1, 0)), (1, 0, 0, 0)),
    ):
        objects, log = list(pair), []
        with pytest.raises(NotOrthogonal) as exc:
            transpose_if_orthogonal(bl, objects, log, 0)
        assert exc.value.hom == hom
        # a failing rule rewrites nothing
        assert (objects, log) == (list(pair), [])


def _object(doc):
    kind = {"line": LineBundle, "push": PushforwardTwist}[doc["kind"]]
    return kind(doc["alpha"], doc["beta"], doc["k"])


def test_transpose_swaps_orthogonal_pair():
    """Transpositions taken from real script logs, replayed alone."""
    for spec, center, step in (
        (BundleSpec(1, (0, 0, 0)), {"b1", "f0"}, 0),  # pushforward, line
        (BundleSpec(1, (0, 0, 0, 0)), {"b0", "f0", "f1"}, 6),  # line, pushforward
    ):
        bl, done = construct(spec, CenterSpec(frozenset(center)))
        logged = done.log[step]
        assert logged["rule"] == "transpose"
        a, b = (_object(o) for o in logged["pair"])
        objects, log = [a, b], []
        transpose_if_orthogonal(bl, objects, log, 0)
        assert objects == [b, a]
        assert log == [dict(logged, index=0)]


def test_right_mutation_guards(bl_p1p1):
    bad = [LineBundle(0, 0, 0), LineBundle(0, 0, 0)]
    with pytest.raises(HypothesisFailed):
        right_mutation_E_twist(bl_p1p1, bad, [], 0)
    mismatched = [PushforwardTwist(0, 0, 1), LineBundle(1, 0, 0)]
    with pytest.raises(HypothesisFailed):
        right_mutation_E_twist(bl_p1p1, mismatched, [], 0)


def test_right_mutation_produces_twist_pair(bl_p1p1):
    objects, log = [PushforwardTwist(0, 0, 1), LineBundle(0, 0, 0)], []
    right_mutation_E_twist(bl_p1p1, objects, log, 0)
    assert objects == [LineBundle(0, 0, 0), LineBundle(0, 0, 1)]
    assert log[-1]["hom"] == [0, 1, 0]


def test_left_mutation_guards_and_result(bl_p2p1):
    objects = [LineBundle(2, 1, 0), PushforwardTwist(2, 1, 0)]
    left_mutation_E_twist(bl_p2p1, objects, [], 0)
    assert objects == [LineBundle(2, 1, -1), LineBundle(2, 1, 0)]
    bad = [LineBundle(2, 1, 1), PushforwardTwist(2, 1, 0)]
    with pytest.raises(HypothesisFailed):
        left_mutation_E_twist(bl_p2p1, bad, [], 0)


def test_rule_errors_name_rule_and_index(bl_p1p1, monkeypatch):
    """Every rule failure starts with the rule name and the pair index,
    carries the log up to the rule and rewrites nothing."""
    head = LineBundle(5, 5, 5)  # shifts the pair under test to index 1
    line, push = LineBundle(0, 0, 0), PushforwardTwist(0, 0, 1)
    failures = [
        (lambda bl, objects, log, _: serre_rotate(bl, objects, log), (), None,
         "serre_rotate at 0: "),
        (transpose_if_orthogonal, (head, push, line), 1,
         "transpose at 1: "),
        (transpose_if_orthogonal, (head, line, LineBundle(1, 0, 0)), 1,
         "transpose at 1: objects 1 and 2 are not one pushforward and one line bundle"),
        (transpose_if_orthogonal, (head, push, push), 1,
         "transpose at 1: objects 1 and 2 are not one pushforward and one line bundle"),
        # twist gaps the structured formulas do not cover
        (transpose_if_orthogonal, (head, push), 0,
         "transpose at 0: j=4 must be 0 or 1"),
        (transpose_if_orthogonal, (PushforwardTwist(0, 0, 5), line), 0,
         "transpose at 0: k=5 outside 1..1"),
        (right_mutation_E_twist, (head, line, line), 1,
         "right_mutation_E_twist at 1: "),
        (right_mutation_E_twist, (head, push, LineBundle(1, 0, 0)), 1,
         "right_mutation_E_twist at 1: "),
        (left_mutation_E_twist, (head, push, push), 1,
         "left_mutation_E_twist at 1: "),
        (left_mutation_E_twist, (head, line, LineBundle(0, 0, 0)), 1,
         "left_mutation_E_twist at 1: "),
    ]
    for rule, start, arg, prefix in failures:
        objects, log = list(start), [{"rule": "transpose"}]
        with pytest.raises((HypothesisFailed, NotOrthogonal)) as exc:
            rule(bl_p1p1, objects, log, arg)
        assert str(exc.value).startswith(prefix), str(exc.value)
        assert (objects, log) == (list(start), [{"rule": "transpose"}])
        # the error keeps the log as it was when the rule failed
        log.append({"rule": "serre_rotate"})
        assert exc.value.log == ({"rule": "transpose"},)
    # a pair index off either end of the collection
    objects, log = [push, line, head], [{"rule": "serre_rotate"}]
    for rule, name in (
        (transpose_if_orthogonal, "transpose"),
        (right_mutation_E_twist, "right_mutation_E_twist"),
        (left_mutation_E_twist, "left_mutation_E_twist"),
    ):
        for i in (-1, len(objects) - 1):
            with pytest.raises(HypothesisFailed) as exc:
                rule(bl_p1p1, objects, log, i)
            assert str(exc.value) == (
                f"{name} at {i}: a collection of 3 objects has no pair at {i}"
            )
            assert exc.value.log == ({"rule": "serre_rotate"},)
    # a pair of the right shape whose Ext pattern is wrong
    monkeypatch.setattr(mutation, "graded_hom", lambda *_: (0, 0, 0))
    right = [head, PushforwardTwist(0, 0, 1), line]
    left = [head, line, PushforwardTwist(0, 0, 0)]
    for rule, objects, degree in (
        (right_mutation_E_twist, right, 1),
        (left_mutation_E_twist, left, 0),
    ):
        want = rf"^{rule.__name__} at 1: Ext pattern \(0, 0, 0\) .* degree {degree}$"
        with pytest.raises(HypothesisFailed, match=want):
            rule(bl_p1p1, objects, [], 1)


def test_partner_walk_stops_at_either_end(bl_p1p1):
    """A walk with no partner on its side fails the pair-index check rather
    than wrapping round to the partner at the other end."""
    line, push = LineBundle(0, 0, 0), PushforwardTwist(0, 0, 1)
    for objects, idx, step, at in (((line, push), 1, 1, 1), ((push, line), 0, -1, -1)):
        with pytest.raises(HypothesisFailed, match=rf"^transpose at {at}: .* no pair"):
            mutation._walk_to_partner(bl_p1p1, list(objects), [], idx, step)


def test_graded_hom_push_push_unsupported(bl_p1p1):
    # only pushforward-line pairs have a structured formula
    with pytest.raises(UnsupportedExtPair):
        graded_hom(bl_p1p1, PushforwardTwist(0, 0, 1), PushforwardTwist(0, 0, 1))
    with pytest.raises(UnsupportedExtPair):
        graded_hom(bl_p1p1, LineBundle(0, 0, 0), LineBundle(1, 0, 0))


def test_collection_classes_rejects_pushforwards(bl_p1p1):
    col = Collection((PushforwardTwist(0, 0, 1),))
    with pytest.raises(UnsupportedExtPair):
        collection_classes(bl_p1p1, col)


def test_length_is_preserved(bl_p1p1, bl_p2p1):
    for bl in (bl_p1p1, bl_p2p1):
        _, col = construct(bl.spec, bl.center)
        assert len(col.objects) == len(initial_collection(bl).objects)


@pytest.mark.parametrize(
    "max_dim, max_degree, cases, digest",
    [
        (4, 1, 362, "9e3b71110b63d49b89b68e89d6192e86b0e73486351a128d7f2ee16268e09bda"),
        (4, 2, 735, "c6639e73a734b46fd10f95dc86db944ab72237ad6c7f6387d54a2b89510c1ef3"),
        (5, 1, 1097, "f672d504ebd6b8c2f5c4a61b8a64e6b9f991c572a48aa9039cb4aa060dc012d5"),
    ],
    ids=["4-1", "4-2", "5-1"],
)
def test_construct_outputs_frozen(max_dim, max_degree, cases, digest):
    """Objects and mutation logs of every case of one s + r <= max_dim,
    degree <= max_degree family, in sweep order, hashed as written by
    construct."""
    hashed = hashlib.sha256()
    seen = 0
    for spec in enumerate_specs(max_dim, max_degree):
        for codim in (2, 3):
            for center in enumerate_centers(spec, codim):
                _, col = construct(spec, center)
                hashed.update(json.dumps(col.to_json(), sort_keys=True).encode())
                seen += 1
    assert seen == cases
    assert hashed.hexdigest() == digest


@pytest.mark.parametrize(
    "s, steps, digest",
    [
        (40, 820, "f52828487ea6eff0bd1b0799dd1b8bd597c71954d281f98c5b0e975e75828e85"),
        (60, 1830, "2fe649abf0d551bda9596aeac7bb9b4a754c82cfdff210273c393e21f707ddb1"),
    ],
)
def test_long_walks_frozen(s, steps, digest):
    """P^s x P^1 blown up at a point: its s pushforwards walk right to
    their partners and mutate, s(s+1)/2 steps in all, walks far longer
    than any case of the small families takes."""
    _, col = construct(BundleSpec(s, (0, 0)), CenterSpec(frozenset({"b1", "f1"})))
    assert len(col.log) == steps
    encoded = json.dumps(col.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == digest


def _watch_ext_core(monkeypatch):
    """(asked, runs), filled as replays go: every input the Ext formulas ask
    the core about, and every run of the core's body, which calls
    combinations_with_replacement once per run.  The memo starts empty."""
    cached = splitcalc._ext_on_y
    core = cached.__wrapped__.__code__
    picks = splitcalc.combinations_with_replacement
    asked, runs = [], []

    def recording(*args):
        asked.append(args)
        return cached(*args)

    def counting(pool, m):
        if sys._getframe(1).f_code is core:
            runs.append((pool, m))
        return picks(pool, m)

    monkeypatch.setattr(splitcalc, "_ext_on_y", recording)
    monkeypatch.setattr(splitcalc, "combinations_with_replacement", counting)
    cached.cache_clear()
    return asked, runs


def test_ext_core_runs_once_per_distinct_input(monkeypatch):
    """The replay asks the Ext core once per step, but the core itself runs
    once per distinct input, and not at all for a case already replayed."""
    cached = splitcalc._ext_on_y
    asked, runs = _watch_ext_core(monkeypatch)
    case = (BundleSpec(40, (0, 0)), CenterSpec(frozenset({"b1", "f1"})))
    _, col = construct(*case)
    assert len(asked) == len(col.log) == 820
    assert all(type(x) in (int, tuple) for args in asked for x in args)
    assert len(runs) == len(set(asked)) == 40
    assert cached.cache_info().misses == len(runs)
    asked.clear()
    runs.clear()
    construct(*case)
    assert len(asked) == 820 and runs == []


def test_centers_with_one_y_share_the_ext_memo(monkeypatch):
    """b1,f1 and b1,f2 on P_{P^1}(O + O(1) + O(1)) cut fibers of one degree,
    so both centers are Y = P^1 over a point, with one conormal bundle: the
    second replay asks only what the first has answered."""
    asked, runs = _watch_ext_core(monkeypatch)
    spec = BundleSpec(1, (0, 1, 1))
    construct(spec, CenterSpec(frozenset({"b1", "f1"})))
    assert runs and len(runs) == len(set(asked))
    asked.clear()
    runs.clear()
    construct(spec, CenterSpec(frozenset({"b1", "f2"})))
    assert asked and runs == []


def test_a_fresh_family_replay_runs_the_ext_core_once_per_input(monkeypatch):
    """The 362 replays of the s + r <= 4, degree <= 1 family ask 2,671 Ext
    questions of only 392 distinct inputs, and the core runs once for
    each."""
    asked, runs = _watch_ext_core(monkeypatch)
    for spec in enumerate_specs(4, 1):
        for codim in (2, 3):
            for center in enumerate_centers(spec, codim):
                construct(spec, center)
    assert len(asked) == 2671
    assert len(runs) == len(set(asked)) == 392
