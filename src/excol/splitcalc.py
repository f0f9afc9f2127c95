"""Closed-form cohomology and Ext formulas for the split-bundle family.

These are the structured fast paths the mutation engine checks its rules
with: Bott vanishing on projective space, pushforwards of tautological
powers for split bundles, cohomology on X and on every center Y (itself a
split projective bundle), and the Ext reduction between pushforward
objects and line bundles.  Nothing here calls the cohomology oracle; the
acceptance tests compare the two.

Both Ext formulas go through one core, _ext_on_y, which is memoized for
the life of the process and keyed by what it reads: Y (s' and its
degrees), the conormal bundle's summands, the symmetric power and the
class difference.  A replay asks it about S^2/2 times but only about S
distinct inputs, and the cases of one sweep share many more, every center
with the same Y and conormal bundle alike.  The public functions are not
memoized (cohomology_on_bundle accepts any sequence of degrees, a list
included).
"""

from __future__ import annotations

from functools import cache
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


@cache
def _ext_on_y(s_prime, y_degrees, conormal, m, diff, shift):
    """The sum over the classes t of Sym^m of the conormal bundle, whose
    summands conormal holds, of h^*(Y, diff + t) on Y = P_{P^s'}(O(d), d in
    y_degrees), shifted up by shift, in degrees 0..dim X (dim X = s' + r' +
    codim).  This is h^*(E, pi^*diff ox O_pi(m)) on E = P(N) over Y, with
    O_pi(1) = O_E(-E), since for m >= 0 R pi_* O_pi(m) is Sym^m of the
    conormal bundle with no higher images; KOutOfRange for m < 0 (Orlov's
    band and the top direct image), which no caller asks for.  Every argument is an int or a tuple, so the
    arguments are the memo's key, and centers with one Y and conormal
    bundle share it."""
    if m < 0:
        raise KOutOfRange(f"no formula for Sym^{m} of the conormal bundle")
    h = [0] * (s_prime + len(y_degrees) + len(conormal))
    for pick in combinations_with_replacement(conormal, m):
        alpha = diff[0] + sum(t[0] for t in pick)
        beta = diff[1] + sum(t[1] for t in pick)
        for i, x in enumerate(cohomology_on_bundle(s_prime, y_degrees, alpha, beta)):
            h[i + shift] += x
    return tuple(h)


def ext_lemA(geom: CenterGeometry, m_class, k, l_class):
    """dim Ext^i of (pushforward of M, twisted by O(kE)) into the pullback
    of L: by Grothendieck duality for the divisor E it is
    H^{i-1}(E, (L - M)|_E ox O_pi(k - 1)), so it lives on Y shifted by one,
    with m = k - 1 (k >= 1)."""
    diff = (l_class[0] - m_class[0], l_class[1] - m_class[1])
    return _ext_on_y(geom.s_prime, geom.y_degrees, geom.conormal_summands, k - 1, diff, 1)


def ext_line_to_pushforward(geom: CenterGeometry, j, l_class, m_class):
    """dim Ext^i from a pullback line bundle twisted by O(jE) into the
    untwisted pushforward of M: by adjunction it is
    H^i(E, (M - L)|_E ox O_pi(j)), computed on Y with m = j (j >= 0)."""
    diff = (m_class[0] - l_class[0], m_class[1] - l_class[1])
    return _ext_on_y(geom.s_prime, geom.y_degrees, geom.conormal_summands, j, diff, 0)
