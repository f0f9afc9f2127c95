"""Ordered collections of sheaf objects on the blow-up and the mutation
scripts that turn the initial semiorthogonal seed into a collection of line
bundles.

The engine only applies three rewrite rules (orthogonal transposition,
Serre rotation, and the adjacent mutation against the matching line bundle
that produces an O(E)-twist), and it checks every rule's Ext hypothesis
against the structured formulas of splitcalc before rewriting.  Every rule
that needs an Ext pairs one pushforward with one line bundle, so the
construction never calls the cohomology oracle that certifies its output.
Anything outside these rules fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisFailed, NotOrthogonal, UnsupportedExtPair
from .fan import Blowup, BundleSpec, CenterSpec, make_blowup
from .splitcalc import ext_lemA, ext_line_to_pushforward


@dataclass(frozen=True)
class LineBundle:
    """f*(p*O(alpha) ox O_p(beta)) ox O(k E) on the blow-up."""

    alpha: int
    beta: int
    k: int

    def to_json(self):
        return {"kind": "line", "alpha": self.alpha, "beta": self.beta, "k": self.k}


@dataclass(frozen=True)
class PushforwardTwist:
    """iota_* pi^*(q*O(alpha) ox O_q(beta)) ox O(k E)."""

    alpha: int
    beta: int
    k: int

    def to_json(self):
        return {"kind": "push", "alpha": self.alpha, "beta": self.beta, "k": self.k}


@dataclass(frozen=True)
class Collection:
    objects: tuple
    log: tuple = ()

    def replace_pair(self, i, a, b, entry):
        objs = self.objects[:i] + (a, b) + self.objects[i + 2 :]
        return Collection(objs, self.log + (entry,))

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
    if isinstance(obj, LineBundle):
        return LineBundle(obj.alpha + ta, obj.beta + tb, obj.k + tk)
    return PushforwardTwist(obj.alpha + ta, obj.beta + tb, obj.k + tk)


def anticanonical_twist(bl: Blowup):
    k = bl.fan_xt.canonical_class()
    return tuple(-c for c in k.coords)


def serre_rotate(bl: Blowup, col: Collection) -> Collection:
    """Move the first object to the end tensored by the anticanonical
    class."""
    if not col.objects:
        raise HypothesisFailed(
            "serre_rotate at 0: cannot rotate an empty collection", log=col.log
        )
    moved = tensor_object(col.objects[0], anticanonical_twist(bl))
    entry = {"rule": "serre_rotate", "direction": "forward", "object": moved.to_json()}
    return Collection(col.objects[1:] + (moved,), col.log + (entry,))


def transpose_if_orthogonal(bl: Blowup, col: Collection, i) -> Collection:
    """Swap objects i, i+1, one pushforward and one line bundle, after
    verifying their graded Hom vanishes."""
    a, b = col.objects[i], col.objects[i + 1]
    if isinstance(a, LineBundle) == isinstance(b, LineBundle):
        raise HypothesisFailed(
            f"transpose at {i}: objects {i} and {i + 1} are not one pushforward "
            "and one line bundle",
            log=col.log,
        )
    hom = graded_hom(bl, a, b)
    if any(hom):
        raise NotOrthogonal(
            f"transpose at {i}: objects {i} and {i + 1} are not orthogonal",
            hom,
            log=col.log,
        )
    entry = {
        "rule": "transpose",
        "index": i,
        "pair": [a.to_json(), b.to_json()],
        "hom": list(hom),
    }
    return col.replace_pair(i, b, a, entry)


def _expect_concentrated(hom, degree):
    expected = tuple(1 if i == degree else 0 for i in range(len(hom)))
    return tuple(hom) == expected


def right_mutation_E_twist(bl: Blowup, col: Collection, i) -> Collection:
    """Mutate the pair (pushforward of M twisted by O(kE), matching line
    bundle with twist k-1) into the adjacent pair of line bundles with
    twists k-1 and k."""
    a, b = col.objects[i], col.objects[i + 1]
    if not (isinstance(a, PushforwardTwist) and a.k >= 1):
        raise HypothesisFailed(
            f"right_mutation_E_twist at {i}: object {i} is not a pushforward with k >= 1",
            log=col.log,
        )
    if not (
        isinstance(b, LineBundle)
        and b.k == a.k - 1
        and (b.alpha, b.beta) == (a.alpha, a.beta)
    ):
        raise HypothesisFailed(
            f"right_mutation_E_twist at {i}: object {i + 1} does not match the "
            f"pushforward at {i}",
            log=col.log,
        )
    hom = graded_hom(bl, a, b)
    if not _expect_concentrated(hom, 1):
        raise HypothesisFailed(
            f"right_mutation_E_twist at {i}: Ext pattern {hom} is not "
            "one-dimensional in degree 1",
            log=col.log,
        )
    entry = {
        "rule": "right_mutation_E_twist",
        "index": i,
        "pair": [a.to_json(), b.to_json()],
        "hom": list(hom),
    }
    return col.replace_pair(
        i, LineBundle(b.alpha, b.beta, b.k), LineBundle(b.alpha, b.beta, b.k + 1), entry
    )


def left_mutation_E_twist(bl: Blowup, col: Collection, i) -> Collection:
    """Mutate the pair (line bundle, untwisted pushforward of the same
    class) into the line bundles with twists -1 and 0."""
    a, b = col.objects[i], col.objects[i + 1]
    if not (isinstance(a, LineBundle) and a.k == 0):
        raise HypothesisFailed(
            f"left_mutation_E_twist at {i}: object {i} is not an untwisted line bundle",
            log=col.log,
        )
    if not (
        isinstance(b, PushforwardTwist)
        and b.k == 0
        and (b.alpha, b.beta) == (a.alpha, a.beta)
    ):
        raise HypothesisFailed(
            f"left_mutation_E_twist at {i}: object {i + 1} does not match the "
            f"line bundle at {i}",
            log=col.log,
        )
    hom = graded_hom(bl, a, b)
    if not _expect_concentrated(hom, 0):
        raise HypothesisFailed(
            f"left_mutation_E_twist at {i}: Ext pattern {hom} is not "
            "one-dimensional in degree 0",
            log=col.log,
        )
    entry = {
        "rule": "left_mutation_E_twist",
        "index": i,
        "pair": [a.to_json(), b.to_json()],
        "hom": list(hom),
    }
    return col.replace_pair(
        i, LineBundle(a.alpha, a.beta, -1), LineBundle(a.alpha, a.beta, 0), entry
    )


def _revlex(smax, rmax):
    """(alpha, beta) pairs in reverse lexicographic order."""
    return [(alpha, beta) for beta in range(rmax + 1) for alpha in range(smax + 1)]


def initial_collection(bl: Blowup) -> Collection:
    """The seed collection from the blow-up and projective-bundle
    semiorthogonal decompositions."""
    geom = bl.geometry
    s, r = geom.s, geom.r
    sp, rp = geom.s_prime, geom.r_prime
    lines = tuple(LineBundle(a, b, 0) for a, b in _revlex(s, r))
    block1 = tuple(PushforwardTwist(a, b, 1) for a, b in _revlex(sp, rp))
    if bl.codim == 2:
        return Collection(block1 + lines)
    total = sum(geom.degrees)
    block2 = tuple(
        PushforwardTwist(alpha, beta, 2)
        for beta in range(-rp - 1, 0)
        for alpha in range(-sp - 1 + total, total)
    )
    return Collection(block2 + block1 + lines)


def _run_twist_script(bl, col, k):
    """Shared loop: convert every pushforward with the given twist k into a
    pair of line bundles, processing in reverse order."""
    while True:
        idx = None
        for i in range(len(col.objects) - 1, -1, -1):
            o = col.objects[i]
            if isinstance(o, PushforwardTwist) and o.k == k:
                idx = i
                break
        if idx is None:
            return col
        target = col.objects[idx]
        while True:
            nxt = col.objects[idx + 1]
            if (
                isinstance(nxt, LineBundle)
                and nxt.k == k - 1
                and (nxt.alpha, nxt.beta) == (target.alpha, target.beta)
            ):
                break
            col = transpose_if_orthogonal(bl, col, idx)
            idx += 1
        col = right_mutation_E_twist(bl, col, idx)


def construct(spec: BundleSpec, center: CenterSpec):
    """Replay the mutation script of the center's codimension; returns
    (blowup, collection of line bundles).

    Codimension 2 turns every O(E)-twisted pushforward into a pair of line
    bundles.  Codimension 3 first rotates the O(2E) block to the tail, runs
    the codimension-2 sub-script on the O(E) block, then left-mutates the
    rotated block into O(-E) twists.
    """
    bl = make_blowup(spec, center)
    col = initial_collection(bl)
    if bl.codim == 2:
        return bl, _run_twist_script(bl, col, 1)
    geom = bl.geometry
    for _ in range((geom.s_prime + 1) * (geom.r_prime + 1)):
        col = serre_rotate(bl, col)
    col = _run_twist_script(bl, col, 1)
    # the rotated block now consists of untwisted pushforwards at the tail;
    # walk each one leftwards to its matching line bundle, smallest first
    while True:
        idx = next(
            (
                i
                for i, o in enumerate(col.objects)
                if isinstance(o, PushforwardTwist)
            ),
            None,
        )
        if idx is None:
            break
        target = col.objects[idx]
        while True:
            prev = col.objects[idx - 1]
            if (
                isinstance(prev, LineBundle)
                and prev.k == 0
                and (prev.alpha, prev.beta) == (target.alpha, target.beta)
            ):
                break
            col = transpose_if_orthogonal(bl, col, idx - 1)
            idx -= 1
        col = left_mutation_E_twist(bl, col, idx - 1)
    return bl, col


def collection_classes(bl: Blowup, col: Collection):
    """PicClasses of a finished (line-bundles-only) collection."""
    out = []
    for o in col.objects:
        if not isinstance(o, LineBundle):
            raise UnsupportedExtPair("collection still contains pushforward objects")
        out.append(bl.fan_xt.pic_class((o.alpha, o.beta, o.k)))
    return out
