"""Exact sheaf cohomology of line bundles on smooth complete toric fans.

This is the independent ground truth the structured formulas are checked
against: for a T-divisor lift of the class, every lattice character u
contributes the reduced rational cohomology of the support complex on the
rays where the section inequality fails.

The characters swept are those in a box around the vertices of the
divisor's hyperplane arrangement.  The vertex of each invertible set of dim
rays is an integer map of the divisor coefficients, computed once per fan
(_vertex_maps), so a box costs a few integer dot products and divisions.
The per-character sweep is the hot loop; it runs through the numpy kernel
excol.kernels.count_support_masks.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from itertools import combinations
from operator import mul

import numpy as np

from . import kernels
from .errors import UnboundedContribution
from .fan import Fan, PicClass
from .intlinalg import inverse, rational_rank


def reduced_cohomology_ranks(facets, top_dim):
    """Ranks over Q of reduced simplicial cohomology in degrees -1..top_dim.

    facets are the maximal faces of the complex, as sets of vertices.
    Convention: the empty complex (no faces but the empty face) has rank 1
    in degree -1.
    """
    faces_by_dim = [set() for _ in range(top_dim + 2)]  # index d+1 holds dim-d faces
    faces_by_dim[0].add(frozenset())
    for facet in facets:
        facet = sorted(facet)
        for k in range(1, len(facet) + 1):
            for sub in combinations(facet, k):
                faces_by_dim[k].add(frozenset(sub))
    ordered = [sorted(level, key=sorted) for level in faces_by_dim]
    index = [{f: i for i, f in enumerate(level)} for level in ordered]

    cob_rank = []
    for d in range(top_dim + 1):  # coboundary C^{d-1} -> C^d (shifted by one level)
        lower, upper = ordered[d], ordered[d + 1]
        if not lower or not upper:
            cob_rank.append(0)
            continue
        rows = [[0] * len(lower) for _ in upper]
        for gi, g in enumerate(upper):
            gs = sorted(g)
            for pos, v in enumerate(gs):
                f = g - {v}
                fi = index[d].get(f)
                if fi is not None:
                    rows[gi][fi] = -1 if pos % 2 else 1
        cob_rank.append(rational_rank(rows))

    ranks = []
    for d in range(-1, top_dim + 1):
        level = d + 1
        dim_c = len(ordered[level])
        below = cob_rank[level - 1] if level >= 1 else 0
        above = cob_rank[level] if level <= top_dim else 0
        ranks.append(dim_c - above - below)
    return tuple(ranks)


class DiskCache:
    """Shared HVector cache; deterministic values, last writer wins."""

    def __init__(self, root):
        self.root = root

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key):
        try:
            with open(self._path(key)) as fh:
                return tuple(json.load(fh))
        except (OSError, ValueError):
            return None

    def put(self, key, hvec):
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(list(hvec), fh)
        os.replace(tmp, path)


def default_cache_dir():
    return os.environ.get("EXCOL_CACHE_DIR", ".excol-cache")


def _resolve_cache(cache):
    if cache is None:
        return DiskCache(default_cache_dir())
    if cache is False:
        return None
    return cache


def _cache_key(fan: Fan, coords) -> str:
    payload = fan.canonical_json + "|" + json.dumps(list(coords))
    return hashlib.sha256(payload.encode()).hexdigest()


def _vertex_maps(fan: Fan):
    """(S, M_S, det_S) for every dim-subset S of rays with R_S invertible.

    R_S has the rays in S as rows, and intlinalg.inverse gives
    det_S = |det R_S| > 0 and M_S = det_S * R_S^-1 (rows of integers), so the
    arrangement vertex {u : <u, v_i> = -a_i for i in S} is M_S (-a_S) / det_S.
    Computed once per fan.
    """
    maps = fan._vertex_map_cache
    if maps:
        return maps
    for subset in combinations(range(fan.n_rays), fan.dim):
        try:
            rows, det = inverse([fan.rays[i] for i in subset])
        except ValueError:
            continue  # singular: not a vertex
        maps.append((subset, rows, det))
    return maps


def _arrangement_box(fan: Fan, coeffs):
    """Bounding box of the hyperplane-arrangement vertices, inflated by 1."""
    floors, ceils = [], []
    for subset, rows, det in _vertex_maps(fan):
        rhs = [-coeffs[i] for i in subset]
        nums = [sum(map(mul, row, rhs)) for row in rows]
        floors.append([x // det for x in nums])
        ceils.append([-(-x // det) for x in nums])
    if not floors:
        floors = ceils = [[0] * fan.dim]
    lo = [min(col) - 1 for col in zip(*floors)]
    hi = [max(col) + 1 for col in zip(*ceils)]
    return lo, hi


def _support_ranks(fan: Fan, mask):
    cache = fan._support_rank_cache
    ranks = cache.get(mask)
    if ranks is None:
        facets = {frozenset(i for i in cone if mask >> i & 1) for cone in fan.max_cones}
        ranks = reduced_cohomology_ranks(facets, fan.dim - 1)
        cache[mask] = ranks
    return ranks


def _dims_of_divisor(fan: Fan, coeffs):
    """All h^i of the T-divisor with ray coefficients coeffs, uncached."""
    lo, hi = _arrangement_box(fan, coeffs)
    counts, shell = kernels.count_support_masks(
        np.array(lo, dtype=np.int64),
        np.array(hi, dtype=np.int64),
        np.array(fan.rays, dtype=np.int64),
        np.array(coeffs, dtype=np.int64),
    )
    h = [0] * (fan.dim + 1)
    for mask in np.nonzero(counts)[0]:
        ranks = _support_ranks(fan, int(mask))
        if any(ranks):
            if shell[mask]:
                raise UnboundedContribution(
                    f"T-divisor {tuple(coeffs)} in box lo={lo} hi={hi}: support "
                    f"set {int(mask):b} on the inflated boundary has reduced "
                    f"cohomology {ranks}"
                )
            c = int(counts[mask])
            for i, rk in enumerate(ranks):  # ranks[i] is degree i-1 -> h^i
                h[i] += c * rk
    return tuple(h)


def cohomology_dims(fan: Fan, cls: PicClass, cache=None):
    """All h^i(fan, cls), exactly; cache=False disables the disk cache."""
    if cls.basis != fan.basis_tag:
        raise ValueError("class belongs to a different fan")
    memo = fan._hvector_cache
    result = memo.get(cls.coords)
    if result is not None:
        return result
    disk = _resolve_cache(cache)
    if disk is not None:
        disk_key = _cache_key(fan, cls.coords)
        hit = disk.get(disk_key)
        if hit is not None and len(hit) == fan.dim + 1:
            memo[cls.coords] = hit
            return hit
    result = _dims_of_divisor(fan, fan.tdivisor_lift(cls))
    memo[cls.coords] = result
    if disk is not None:
        disk.put(disk_key, result)
    return result


def euler_pairing(fan: Fan, a: PicClass, b: PicClass, cache=None) -> int:
    """chi(a, b) = sum (-1)^i dim Ext^i(a, b) = chi(b - a)."""
    h = cohomology_dims(fan, b - a, cache=cache)
    return sum((-1) ** i * x for i, x in enumerate(h))
