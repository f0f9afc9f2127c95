"""Exact sheaf cohomology of line bundles on smooth complete toric fans.

This is the independent ground truth the structured formulas are checked
against: for a T-divisor lift of the class, every lattice character u
contributes the reduced rational cohomology of the support complex on the
rays where the section inequality fails.

The per-character sweep is the hot loop; it runs through the numpy kernel
excol.kernels.count_support_masks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import kernels
from .errors import UnboundedContribution
from .fan import Fan, PicClass
from .intlinalg import rational_rank, solve_exact


@dataclass(frozen=True)
class SupportComplex:
    """Simplicial complex induced on a subset of rays by the fan's cones."""

    active_rays: frozenset
    facets: tuple  # maximal restricted cones, as frozensets

    @classmethod
    def from_fan(cls, fan: Fan, active) -> "SupportComplex":
        active = frozenset(active)
        facets = {frozenset(c) & active for c in fan.max_cones}
        return cls(active, tuple(sorted(facets, key=sorted)))


def reduced_cohomology_ranks(cx: SupportComplex, top_dim):
    """Ranks over Q of reduced simplicial cohomology in degrees -1..top_dim.

    Convention: the empty complex (no faces but the empty face) has rank 1
    in degree -1.
    """
    faces_by_dim = [set() for _ in range(top_dim + 2)]  # index d+1 holds dim-d faces
    faces_by_dim[0].add(frozenset())
    for facet in cx.facets:
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


def _arrangement_box(rays, coeffs, dim):
    """Bounding box of the hyperplane-arrangement vertices, inflated by 1."""
    vertices = []
    for subset in combinations(range(len(rays)), dim):
        mat = [[rays[i][d] for i in subset] for d in range(dim)]
        rhs = [-coeffs[i] for i in subset]
        try:
            vertices.append(solve_exact(mat, rhs))
        except ValueError:
            pass  # singular: not a vertex
    if not vertices:
        vertices = [(0,) * dim]
    lo, hi = [], []
    for d in range(dim):
        vals = [v[d] for v in vertices]
        lo.append(math.floor(min(vals)) - 1)
        hi.append(math.ceil(max(vals)) + 1)
    return lo, hi


def _support_ranks(fan: Fan, mask):
    cache = fan._support_rank_cache
    ranks = cache.get(mask)
    if ranks is None:
        active = frozenset(i for i in range(fan.n_rays) if mask >> i & 1)
        cx = SupportComplex.from_fan(fan, active)
        ranks = reduced_cohomology_ranks(cx, fan.dim - 1)
        cache[mask] = ranks
    return ranks


def cohomology_dims(fan: Fan, cls: PicClass, cache=None, lift=None):
    """All h^i(fan, cls), exactly.

    lift overrides the T-divisor representative (used by the
    class-invariance tests); cache=False disables the disk cache.
    """
    coeffs = fan.tdivisor_lift(cls) if lift is None else tuple(lift)
    memo_key = (cls.coords, coeffs if lift is not None else None)
    memo = fan._hvector_cache
    if memo_key in memo:
        return memo[memo_key]

    disk = _resolve_cache(cache)
    disk_key = None
    if disk is not None and lift is None:
        disk_key = _cache_key(fan, cls.coords)
        hit = disk.get(disk_key)
        if hit is not None and len(hit) == fan.dim + 1:
            memo[memo_key] = hit
            return hit

    lo, hi = _arrangement_box(fan.rays, coeffs, fan.dim)
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
                    f"support set {int(mask):b} on the inflated boundary has "
                    f"reduced cohomology {ranks}"
                )
            c = int(counts[mask])
            for i, rk in enumerate(ranks):  # ranks[i] is degree i-1 -> h^i
                h[i] += c * rk
    result = tuple(h)
    memo[memo_key] = result
    if disk_key is not None:
        disk.put(disk_key, result)
    return result


def euler_pairing(fan: Fan, a: PicClass, b: PicClass, cache=None) -> int:
    """chi(a, b) = sum (-1)^i dim Ext^i(a, b) = chi(b - a)."""
    h = cohomology_dims(fan, b - a, cache=cache)
    return sum((-1) ** i * x for i, x in enumerate(h))
