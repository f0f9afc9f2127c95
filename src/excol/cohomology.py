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
excol.kernels.count_support_masks.  Results are memoized per fan object and,
unless disabled, in a disk cache of one append-only file per fan
(DiskCache), read once per fan and appended once per batch
(cohomology_dims_many).
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import combinations
from math import prod
from operator import mul

import numpy as np

from . import kernels
from .errors import BoxTooLarge, UnboundedContribution
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


CACHE_VERSION = "excol-hvectors-1"

# The kernel sweeps every point of the box; the largest box of the reference
# classes has 7,001,316 points, and a hostile class can ask for 10^14.
MAX_BOX_POINTS = 10**8
_INT64_MAX = 2**63 - 1


class DiskCache:
    """One append-only file of h-vectors per fan under root.

    The file is named by the SHA-256 of CACHE_VERSION and the fan's
    canonical_json.  Its first line is a header naming both; every other
    line is one entry [coords, h].  Values are deterministic, so duplicate
    entries are harmless.
    """

    def __init__(self, root):
        self.root = root

    def _path(self, fan: Fan):
        digest = hashlib.sha256((CACHE_VERSION + fan.canonical_json).encode()).hexdigest()
        return os.path.join(self.root, digest + ".jsonl")

    @staticmethod
    def _header(fan: Fan):
        doc = {"version": CACHE_VERSION, "fan": fan.canonical_json}
        return (json.dumps(doc, sort_keys=True) + "\n").encode()

    def get(self, fan: Fan):
        """{coords: h} of the well-formed entries of fan's file; {} when the
        file is missing or its header does not match exactly.  A file with a
        bad header is deleted, so that the next put recreates it."""
        path = self._path(fan)
        try:
            with open(path, "rb") as fh:
                header = fh.readline()
                body = fh.read() if header == self._header(fan) else None
        except OSError:
            return {}
        if body is None:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            return {}
        entries = {}
        for line in body.decode(errors="replace").split("\n"):
            entry = _parse_entry(fan, line)
            if entry is not None:
                entries[entry[0]] = entry[1]
        return entries

    def put(self, fan: Fan, entries):
        """Append entries ({coords: h}) to fan's file with one write.

        The process that creates the file writes the header in the same
        write.  A file whose header is not (yet) there is left alone.
        """
        data = "".join(
            json.dumps([list(coords), list(h)]) + "\n" for coords, h in entries.items()
        ).encode()
        path, header = self._path(fan), self._header(fan)
        os.makedirs(self.root, exist_ok=True)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o644)
            data = header + data
        except FileExistsError:
            fd = os.open(path, os.O_RDWR | os.O_APPEND)
            if os.pread(fd, len(header), 0) != header:
                data = b""
        try:
            os.write(fd, data)
        finally:
            os.close(fd)


def _parse_entry(fan: Fan, line):
    """(coords, h) from one cache line, or None unless it is well formed."""
    try:
        coords, h = json.loads(line)
    except (ValueError, TypeError):
        return None
    if not (isinstance(coords, list) and isinstance(h, list)):
        return None
    if len(coords) != fan.pic_rank or not all(type(c) is int for c in coords):
        return None
    if len(h) != fan.dim + 1 or not all(type(x) is int and x >= 0 for x in h):
        return None
    return tuple(coords), tuple(h)


def default_cache_dir():
    return os.environ.get("EXCOL_CACHE_DIR", ".excol-cache")


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


def _check_box(fan: Fan, coeffs, lo, hi):
    """Raise BoxTooLarge unless the kernel can sweep [lo, hi] in int64 within
    the point budget; the bound covers every product, sum and comparison it
    forms from a box coordinate, a ray and a coefficient."""
    points = prod(b - a + 1 for a, b in zip(lo, hi))
    reach = [max(-a, b) + 1 for a, b in zip(lo, hi)]
    widest = max(
        abs(c) + sum(abs(x) * r for x, r in zip(ray, reach))
        for ray, c in zip(fan.rays, coeffs)
    )
    if points > MAX_BOX_POINTS or widest > _INT64_MAX:
        raise BoxTooLarge(
            f"T-divisor {tuple(coeffs)} in box lo={lo} hi={hi}: {points} points "
            f"(budget {MAX_BOX_POINTS}), kernel values up to {widest} "
            f"(int64 limit {_INT64_MAX})"
        )


def _dims_of_divisor(fan: Fan, coeffs):
    """All h^i of the T-divisor with ray coefficients coeffs, uncached."""
    lo, hi = _arrangement_box(fan, coeffs)
    _check_box(fan, coeffs, lo, hi)
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
    if cache is not False:
        return cohomology_dims_many(fan, [cls], cache)[0]
    if cls.basis != fan.basis_tag:
        raise ValueError("class belongs to a different fan")
    memo = fan._hvector_cache
    result = memo.get(cls.coords)
    if result is None:
        result = memo[cls.coords] = _dims_of_divisor(fan, fan.tdivisor_lift(cls))
    return result


def cohomology_dims_many(fan: Fan, classes, cache=None):
    """cohomology_dims of each class, in order, with one disk-cache batch.

    cache is a DiskCache, None for the default one, or False for none.  The
    fan's cache file is read into its memo once per fan object and cache
    root (the memo wins over the file), and the batch's entries the file
    lacks are appended to it in one write.
    """
    if cache is False:
        return [cohomology_dims(fan, cls, cache=False) for cls in classes]
    disk = DiskCache(default_cache_dir()) if cache is None else cache
    stored = fan._disk_coords.get(disk.root)
    if stored is None:
        entries = disk.get(fan)
        memo = fan._hvector_cache
        for coords, h in entries.items():
            memo.setdefault(coords, h)
        stored = fan._disk_coords[disk.root] = set(entries)
    out = [cohomology_dims(fan, cls, cache=False) for cls in classes]
    new = {cls.coords: h for cls, h in zip(classes, out) if cls.coords not in stored}
    if new:
        disk.put(fan, new)
        stored.update(new)
    return out


def euler_pairing(fan: Fan, a: PicClass, b: PicClass) -> int:
    """chi(a, b) = sum (-1)^i dim Ext^i(a, b) = chi(b - a)."""
    h = cohomology_dims(fan, b - a)
    return sum((-1) ** i * x for i, x in enumerate(h))
