"""Test-only helpers built on the cohomology oracle."""

from functools import cache
from itertools import combinations

import numpy as np

from excol import cohomology_dims
from excol.cohomology import cohomology_dims_many
from excol.intlinalg import determinant, rational_rank
from fan_helpers import restrict, star_fan


def euler_pairing(fan, a, b):
    """chi(a, b) = sum (-1)^i dim Ext^i(a, b) = chi(b - a)."""
    h = cohomology_dims(fan, b - a)
    return sum((-1) ** i * x for i, x in enumerate(h))


def e_cohomology(bl, classes):
    """h^* on the exceptional divisor E = V(e) of a blow-up of the
    restrictions of its classes (alpha, beta, k), in one oracle batch on
    E's own fan (fan_helpers.star_fan)."""
    fan = bl.fan_xt
    return cohomology_dims_many(
        star_fan(fan, "e"), [restrict(fan, "e", fan.pic_class(c)) for c in classes]
    )


def reduced_cohomology_ranks(facets, top_dim):
    """Ranks over Q of reduced simplicial cohomology in degrees -1..top_dim.

    facets are the maximal faces of the complex, as sets of vertices.
    Convention: the empty complex (no faces but the empty face) has rank 1
    in degree -1.
    """
    levels = [set() for _ in range(top_dim + 2)]  # level d+1 holds the dim-d faces
    levels[0].add(frozenset())
    for facet in facets:
        for k in range(1, len(facet) + 1):
            levels[k].update(map(frozenset, combinations(facet, k)))
    # cob[lv] is the rank of the coboundary into level lv from the one below,
    # with 0 below level 0 and above the top level
    cob = [0]
    for lower, upper in zip(levels, levels[1:]):
        column = {f: i for i, f in enumerate(lower)}
        rows = [[0] * len(lower) for _ in upper]
        for row, g in zip(rows, upper):
            for pos, v in enumerate(sorted(g)):
                row[column[g - {v}]] = (-1) ** pos
        cob.append(rational_rank(rows))
    cob.append(0)
    return tuple(len(faces) - cob[lv] - cob[lv + 1] for lv, faces in enumerate(levels))


def membership(masks, n_rays):
    """The 0/1 int64 membership rows (masks x n_rays), as the oracle holds
    support sets, of ray bit masks (Python ints)."""
    rows = [[mask >> r & 1 for r in range(n_rays)] for mask in masks]
    return np.array(rows, dtype=np.int64).reshape(-1, n_rays)


def bit_masks(rows):
    """The ray bit masks, as Python ints, of 0/1 membership rows."""
    return [sum(1 << r for r in np.flatnonzero(row).tolist()) for row in rows]


def induced_ranks(fan, mask):
    """Reduced-cohomology ranks, in degrees -1..dim-1, of the complex the
    max cones induce on the rays in mask."""
    facets = {frozenset(i for i in cone if mask >> i & 1) for cone in fan.max_cones}
    return reduced_cohomology_ranks(facets, fan.dim - 1)


def dense_rank_table(fan):
    """Reference rank table, one row per mask of all 2^n_rays: row S holds
    induced_ranks(fan, S).  The support complexes are induced subcomplexes
    of the boundary sphere, so by Alexander duality row full ^ S is row S
    reversed, and a pair with a nonempty face (a simplex) on either side is
    0: one call, on the side without the last ray, fills a pair."""
    full = (1 << fan.n_rays) - 1
    masks = np.arange(full + 1)
    cones = np.array([sum(1 << i for i in cone) for cone in fan.max_cones], dtype=np.int64)
    face = ((masks[:, None] & ~cones) == 0).any(axis=1) & (masks != 0)
    ranks = np.zeros((len(masks), fan.dim + 1), dtype=np.int64)
    # full ^ mask == full - mask, so face[::-1] tests the complement
    for mask in masks[~face & ~face[::-1] & (masks <= full >> 1)].tolist():
        ranks[mask] = induced_ranks(fan, mask)
        ranks[full ^ mask] = ranks[mask][::-1]
    return ranks


@cache
def _edge_directions(rays):
    """(2K x n_rays) products <u, v_rho> of +-u for every nonzero u that spans
    the kernel of some dim - 1 rays: u_i = (-1)^i times the minor without
    column i, exactly."""
    dim = len(rays[0])
    found = []
    for subset in combinations(rays, dim - 1):
        u = [(-1) ** i * determinant([r[:i] + r[i + 1 :] for r in subset]) for i in range(dim)]
        if any(u):
            found += [u, [-x for x in u]]
    return np.array(found, dtype=object).reshape(-1, dim) @ np.array(rays, dtype=object).T


def polytopes_bounded(fan, mask):
    """Whether the polytopes P_S of the support set S in mask are bounded,
    from the rays alone: P_S is unbounded iff its recession cone {u : <u,
    v_rho> <= 0 on S, >= 0 off S} is nonzero.  The rays span, so the cone
    is pointed, and then it has an extreme ray, which lies in the kernel of
    dim - 1 rays."""
    on = np.array([mask >> r & 1 for r in range(fan.n_rays)], dtype=bool)
    dots = _edge_directions(fan.rays)
    return not (np.where(on, dots <= 0, dots >= 0)).all(axis=1).any()
