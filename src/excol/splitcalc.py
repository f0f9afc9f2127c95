"""Closed-form cohomology and Ext formulas for the split-bundle family.

These are the structured fast paths the mutation engine checks its rules
with: Bott vanishing on projective space, pushforwards of tautological
powers for split bundles, cohomology on X and on the center Y, and the Ext
reduction between pushforward objects and line bundles.  Nothing here calls
the cohomology oracle; the acceptance tests compare the two.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

from .errors import KOutOfRange
from .fan import CenterGeometry


def bott_dims(s, d):
    """h^*(P^s, O(d)): nonzero only at the ends."""
    h = [0] * (s + 1)
    if d >= 0:
        h[0] = comb(d + s, s)
    elif d <= -s - 1:
        h[s] = comb(-d - 1, s)
    return tuple(h)


def sym_degree_sums(degrees, m):
    """Multiset of degree sums of Sym^m applied to a split sum of O(d_i)."""
    if m < 0:
        return []
    return [sum(c) for c in combinations_with_replacement(degrees, m)]


def pushforward_levels(degrees, beta):
    """Derived pushforward of O_p(beta) along a split P^r-bundle.

    Returns {level q: list of base-line-bundle degrees}: level 0 carries
    Sym^beta for beta >= 0, levels are all empty in the band
    -r <= beta <= -1, and level r carries the dual summands for
    beta <= -r-1.
    """
    degrees = tuple(degrees)
    r = len(degrees) - 1
    if beta >= 0:
        return {0: sym_degree_sums(degrees, beta)}
    if beta >= -r:
        return {}
    total = sum(degrees)
    return {r: [-total - d for d in sym_degree_sums(degrees, -beta - r - 1)]}


def cohomology_on_bundle(s, degrees, alpha, beta):
    """h^*(P(O(a_0)+...+O(a_r)) over P^s, q*O(alpha) ox O_q(beta)).

    The Leray spectral sequence degenerates since every pushforward summand
    is a line bundle on the base.
    """
    degrees = tuple(degrees)
    r = len(degrees) - 1
    n = s + r
    h = [0] * (n + 1)
    for level, base_degrees in pushforward_levels(degrees, beta).items():
        for d in base_degrees:
            for i, x in enumerate(bott_dims(s, alpha + d)):
                h[i + level] += x
    return tuple(h)


def y_cohomology(geom: CenterGeometry, alpha, beta):
    """Cohomology of q*O(alpha) ox O_q(beta) on the center Y."""
    return cohomology_on_bundle(geom.s_prime, geom.y_degrees, alpha, beta)


def _sym_conormal(geom: CenterGeometry, m):
    """Multiset of (alpha, beta) classes of Sym^m of the conormal bundle."""
    out = []
    for pick in combinations_with_replacement(geom.conormal_summands, m):
        out.append((sum(t[0] for t in pick), sum(t[1] for t in pick)))
    return out


def ext_lemA(geom: CenterGeometry, m_class, k, l_class):
    """dim Ext^i of (pushforward of M, twisted by O(kE)) into the pullback
    of L, for 1 <= k <= codim-1; the answer lives on Y shifted by one.
    """
    if not 1 <= k <= geom.codim - 1:
        raise KOutOfRange(f"k={k} outside 1..{geom.codim - 1}")
    n = geom.ambient_dim
    h = [0] * (n + 1)
    ma, mb = m_class
    la, lb = l_class
    for ta, tb in _sym_conormal(geom, k - 1):
        hy = y_cohomology(geom, la + ta - ma, lb + tb - mb)
        for i, x in enumerate(hy):
            h[i + 1] += x
    return tuple(h)


def ext_line_to_pushforward(geom: CenterGeometry, j, l_class, m_class):
    """dim Ext^i from a pullback line bundle (j=0) or its O(E) twist (j=1)
    into the untwisted pushforward of M; computed on Y by adjunction.
    """
    if j not in (0, 1):
        raise KOutOfRange(f"j={j} must be 0 or 1")
    n = geom.ambient_dim
    h = [0] * (n + 1)
    la, lb = l_class
    ma, mb = m_class
    twists = [(0, 0)] if j == 0 else list(geom.conormal_summands)
    for ta, tb in twists:
        hy = y_cohomology(geom, ma - la + ta, mb - lb + tb)
        for i, x in enumerate(hy):
            h[i] += x
    return tuple(h)
