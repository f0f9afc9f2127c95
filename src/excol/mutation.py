"""Ordered collections of sheaf objects on the blow-up and the mutation
script that turns the initial semiorthogonal seed into a collection of line
bundles.

The engine only applies three rewrite rules (orthogonal transposition,
Serre rotation, and the E-twist mutation), and it checks every rule's Ext
hypothesis against the structured formulas of splitcalc before rewriting.
The E-twist mutation is one rule, from the triangle 0 -> O((k-1)E) ->
O(kE) -> O_E(kE) -> 0 tensored by a class M: a pushforward of M twisted by
O(kE) and its partner, M's line bundle on the other side of the pair,
become M's line bundles with twists k-1 and k.  Read with the pushforward
first it is the right mutation, with the pushforward second the left.
Each rule takes the script's one list of objects and one list of log
entries, rewrites its pair in place and appends its entry, so a step costs
O(1) whatever the length of the collection or of the log; a failing rule
raises with the log up to it, and construct returns the finished lists as
a Collection.

The seed is Orlov's blow-up formula, one expression in the center Y and
the rank c of its conormal bundle: c - 1 blocks of pushforwards from Y,
each a full exceptional collection of D(Y), then X's line bundles
(initial_collection).  The script is one for every codimension: it first
Serre-rotates every pushforward twisted past O(E) to the tail (in
codimension 3 the O(2E) block, which lands untwisted); then each
O(E)-twisted pushforward, last first, walks right to its partner line
bundle and right-mutates with it; then each untwisted pushforward, first
first, walks left to its partner and left-mutates with it (codimension 2
has none).  It finishes in codimensions 2 and 3, which the sweeps
certify; past them a rule's hypothesis fails (every codimension-4 and
codimension-5 center of the small families stops at a transpose whose
pair is not orthogonal).  Every rule that needs an Ext pairs one
pushforward with one line bundle, so the construction never calls the
cohomology oracle that certifies its output.  Anything outside these
rules fails loudly.
"""

from __future__ import annotations

from .errors import HypothesisFailed, KOutOfRange, NotOrthogonal, UnsupportedExtPair
from .fan import Blowup, BundleSpec, CenterSpec, PicClass, _Record, make_blowup
from .splitcalc import ext_lemA, ext_line_to_pushforward


class _Sheaf(_Record):
    """The one body of both sheaf kinds: a class (alpha, beta) twisted by
    O(k E).  Each kind's class attribute kind tags its JSON."""

    def __init__(self, alpha: int, beta: int, k: int):
        self.__dict__.update(alpha=alpha, beta=beta, k=k)

    def to_json(self):
        return {"kind": self.kind, "alpha": self.alpha, "beta": self.beta, "k": self.k}


class LineBundle(_Sheaf):
    """f*(p*O(alpha) ox O_p(beta)) ox O(k E) on the blow-up."""

    kind = "line"


class PushforwardTwist(_Sheaf):
    """iota_* pi^*(q*O(alpha) ox O_q(beta)) ox O(k E)."""

    kind = "push"


class Collection(_Record):
    def __init__(self, objects: tuple, log: tuple = ()):
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "log", log)

    def to_json(self):
        return {
            "objects": [o.to_json() for o in self.objects],
            "log": list(self.log),
        }


def graded_hom(bl: Blowup, a, b):
    """Full graded Hom dimensions between a pushforward and a line bundle,
    in either order, from the structured formulas."""
    geom = bl.geometry
    if isinstance(a, PushforwardTwist) and isinstance(b, LineBundle):
        # twist both sides by O(-b.k E); only the pushforward's k shifts
        return ext_lemA(geom, (a.alpha, a.beta), a.k - b.k, (b.alpha, b.beta))
    if isinstance(a, LineBundle) and isinstance(b, PushforwardTwist):
        return ext_line_to_pushforward(geom, a.k - b.k, (a.alpha, a.beta), (b.alpha, b.beta))
    raise UnsupportedExtPair(f"no formula for Ext from {a} to {b}")


def tensor_object(obj, twist):
    """Tensor by the line bundle class (alpha, beta, k) on the blow-up.

    For pushforwards the O(E)|_E = O_pi(-1) restriction is absorbed into
    the k index; the Y-class only picks up the (alpha, beta) restriction.
    """
    ta, tb, tk = twist
    return type(obj)(obj.alpha + ta, obj.beta + tb, obj.k + tk)


def anticanonical_twist(bl: Blowup):
    k = bl.fan_xt.canonical_class()
    return tuple(-c for c in k.coords)


def serre_rotate(bl: Blowup, objects, log):
    """Move the first object to the end tensored by the anticanonical
    class."""
    if not objects:
        raise HypothesisFailed(
            "serre_rotate at 0: cannot rotate an empty collection", log=log
        )
    moved = tensor_object(objects[0], anticanonical_twist(bl))
    del objects[0]
    objects.append(moved)
    log.append({"rule": "serre_rotate", "direction": "forward", "object": moved.to_json()})


def _pair(objects, log, i, rule):
    """Objects i and i+1, which must both exist."""
    if not 0 <= i <= len(objects) - 2:
        raise HypothesisFailed(
            f"{rule} at {i}: a collection of {len(objects)} objects has no "
            f"pair at {i}",
            log=log,
        )
    return objects[i], objects[i + 1]


def _rewrite(objects, log, i, rule, hom, pair):
    """Replace objects i, i+1 by pair and log the rule, the pair it
    replaced and its graded Hom."""
    log.append(
        {
            "rule": rule,
            "index": i,
            "pair": [objects[i].to_json(), objects[i + 1].to_json()],
            "hom": list(hom),
        }
    )
    objects[i : i + 2] = pair


def transpose_if_orthogonal(bl: Blowup, objects, log, i):
    """Swap objects i, i+1 after verifying their graded Hom vanishes; a
    pair graded_hom has no formula for fails like a nonzero one, with the
    log."""
    a, b = _pair(objects, log, i, "transpose")
    try:
        hom = graded_hom(bl, a, b)
    except (KOutOfRange, UnsupportedExtPair) as exc:
        raise HypothesisFailed(f"transpose at {i}: {exc}", log=log) from exc
    if any(hom):
        raise NotOrthogonal(
            f"transpose at {i}: objects {i} and {i + 1} are not orthogonal",
            hom,
            log=log,
        )
    _rewrite(objects, log, i, "transpose", hom, (b, a))


def _partner(push, side):
    """push's partner, as the fields (alpha, beta, k) of a LineBundle: the
    line bundle of push's class twisted by O((k - 1 + side) E), which
    stands on the other side of an E-twist pair when push stands on the
    given side (0 first, 1 second).  The rule's check compares fields, as
    building a record there costs a replay a few percent."""
    return push.alpha, push.beta, push.k - 1 + side


def _mutate_E_twist(bl: Blowup, objects, log, i, rule, side):
    """The E-twist mutation, read from either side of its triangle, at any
    twist k.  The pushforward of M twisted by O(kE) stands on the given
    side of the pair at i (0 first, 1 second), its partner on the other;
    the pair's graded Hom, which the triangle's hypothesis asks of it, must
    be one-dimensional in degree 1 - side, and the pair becomes M's line
    bundles with twists k-1 and k."""
    pair = _pair(objects, log, i, rule)
    push, line = pair[side], pair[1 - side]
    if not (
        isinstance(push, PushforwardTwist)
        and isinstance(line, LineBundle)
        and (line.alpha, line.beta, line.k) == _partner(push, side)
    ):
        raise HypothesisFailed(
            f"{rule} at {i}: objects {i} and {i + 1} are not a pushforward and "
            "its partner line bundle",
            log=log,
        )
    hom = graded_hom(bl, *pair)
    degree = 1 - side
    if tuple(hom) != (0,) * degree + (1,) + (0,) * (len(hom) - degree - 1):
        raise HypothesisFailed(
            f"{rule} at {i}: Ext pattern {hom} is not one-dimensional in degree {degree}",
            log=log,
        )
    lines = (
        LineBundle(push.alpha, push.beta, push.k - 1),
        LineBundle(push.alpha, push.beta, push.k),
    )
    _rewrite(objects, log, i, rule, hom, lines)


def right_mutation_E_twist(bl: Blowup, objects, log, i):
    """Mutate the pair (pushforward of M twisted by O(kE), its partner:
    M's line bundle with twist k-1) into M's line bundles with twists k-1
    and k."""
    _mutate_E_twist(bl, objects, log, i, "right_mutation_E_twist", 0)


def left_mutation_E_twist(bl: Blowup, objects, log, i):
    """Mutate the pair (M's line bundle twisted by O(kE), the pushforward
    of M twisted by O(kE)) into M's line bundles with twists k-1 and k."""
    _mutate_E_twist(bl, objects, log, i, "left_mutation_E_twist", 1)


def _revlex(smax, rmax):
    """(alpha, beta) pairs in reverse lexicographic order."""
    return [(alpha, beta) for beta in range(rmax + 1) for alpha in range(smax + 1)]


def initial_collection(bl: Blowup) -> Collection:
    """The seed collection, Orlov's blow-up formula: for k = c - 1 down to
    1 (c the rank of Y's conormal bundle), the pushforwards of Y's
    _revlex(s', r') window twisted by O(k E) and moved k - 1 times by
    (sum a - s' - 1, -r' - 1); then X's lines, the projective-bundle
    window _revlex(s, r)."""
    spec, geom = bl.spec, bl.geometry
    sp, rp = geom.s_prime, geom.r_prime
    da, db = sum(spec.fiber_degrees) - sp - 1, -rp - 1
    pushes = tuple(
        PushforwardTwist(a + (k - 1) * da, b + (k - 1) * db, k)
        for k in range(geom.codim - 1, 0, -1)
        for a, b in _revlex(sp, rp)
    )
    return Collection(pushes + tuple(LineBundle(a, b, 0) for a, b in _revlex(spec.s, spec.r)))


def _first_pushforward(objects, k, order):
    """The first index in order that holds a pushforward with twist k, or
    None."""
    for i in order:
        o = objects[i]
        if isinstance(o, PushforwardTwist) and o.k == k:
            return i
    return None


def _walk_to_partner(bl: Blowup, objects, log, idx, step):
    """Transpose the pushforward at idx in direction step (+1 or -1) until
    its neighbour there is its partner (_partner, with the pushforward on
    side 0 of the pair when step is +1, else on side 1); returns the
    pushforward's new index."""
    partner = LineBundle(*_partner(objects[idx], 0 if step > 0 else 1))
    # a walk off either end fails transpose's index check, instead of
    # wrapping round
    end = len(objects) if step > 0 else -1
    while (nxt := idx + step) == end or objects[nxt] != partner:
        transpose_if_orthogonal(bl, objects, log, min(idx, nxt))
        idx = nxt
    return idx


def construct(spec: BundleSpec, center: CenterSpec):
    """Replay the mutation script; returns (blowup, collection of line
    bundles).

    While the head is a pushforward twisted past O(E) (k >= 2: the O(2E)
    block in codimension 3), it is rotated to the tail, where the
    anticanonical twist (k = 1 - c) moves block k to k + 1 - c: the
    O((c-1)E) block lands untwisted.  Then every O(E)-twisted pushforward,
    last first, walks right to its partner line bundle and right-mutates
    with it into twists 0 and 1; and every untwisted pushforward, first
    first, walks left to its partner and left-mutates with it into twists
    -1 and 0.  In codimension 2 there are no untwisted pushforwards.  The
    rules rewrite one list of objects in place and append to one log.
    """
    bl = make_blowup(spec, center)
    objects, log = list(initial_collection(bl).objects), []
    while isinstance(objects[0], PushforwardTwist) and objects[0].k >= 2:
        serre_rotate(bl, objects, log)
    n = len(objects)
    for k, order, step, mutate in (
        (1, range(n - 1, -1, -1), 1, right_mutation_E_twist),
        (0, range(n), -1, left_mutation_E_twist),
    ):
        while (idx := _first_pushforward(objects, k, order)) is not None:
            idx = _walk_to_partner(bl, objects, log, idx, step)
            mutate(bl, objects, log, min(idx, idx + step))
    return bl, Collection(tuple(objects), tuple(log))


def collection_classes(bl: Blowup, col: Collection):
    """PicClasses of a finished (line-bundles-only) collection, in the
    blow-up's basis (alpha, beta, k)."""
    if not all(isinstance(o, LineBundle) for o in col.objects):
        raise UnsupportedExtPair("collection still contains pushforward objects")
    tag = bl.fan_xt.basis_tag
    return [PicClass((o.alpha, o.beta, o.k), tag) for o in col.objects]
