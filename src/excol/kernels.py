"""The oracle's counting lane: plan -> polytope boxes -> kernel, in numpy.

excol.cohomology imports this module on the first class a process
computes, so numpy, which only this module imports, loads then.  A batch of
distinct T-divisors (_lift: each class times the basis divisors, in one
exact product) goes through one pass (_dims_of_divisors):

- fan: a plan is built only for a fan with a B^-1, which it has only if
  validate_fan has passed on it (excol.fan.Fan._basis_inverse), so every
  P_S below with nonzero reduced cohomology is bounded: a complete toric
  variety has finite cohomology.
- ranks: only support sets S whose complex has nonzero reduced cohomology
  add to h.  By Hochster's formula its ranks are Betti numbers, read off
  the Taylor resolution on the fan's m primitive collections, so S is one
  of their at most 2^m unions; one table per labelled combinatorial type
  (max cones) serves every fan of the type (_support_ranks), each S a
  0/1 membership row over the rays, however many there are.
- polytopes: the characters with support set S are the lattice points of
  P_S, whose vertices are arrangement vertices of the divisor shifted by 1
  on S.  Each is an integer map of the coefficients, read off the fan's
  B^-1 with one p x p adjugate (p = Picard rank; Jacobi, Oda-Park) into
  one int64 (vertices x dim x rays) map per fan (_vertex_maps), so the
  vertices of a chunk of the batch's rows come from one matrix product,
  under one guard on the exact lift that every value the pass forms fits
  in int64 (_dims_of_divisors), which then converts it to int64 once.
  A vertex meets the inequalities of its own dim rays with equality, so
  only the p rays off it are tested, from a (p x vertices x rays) map.  A
  bounded P_S is the hull of its vertices, so their exact lattice box
  holds all its points, and no box may hold more than MAX_BOX_POINTS: the
  first that does fails the batch in its chunk (_polytope_boxes).
- sweep: one call of the kernel count_support_sets counts the characters
  with support S over every non-empty lattice box of the batch, as exact
  intervals along one axis, and h is the sum of those counts times the
  ranks of S.

All that depends on the fan alone is built once per fan, on its first
batch, into one flat record, its plan (_plan): the vertex maps, the
vertex tests' tables and ranks of its type's support sets, the kernel's
fold tables (Folds) and the basis divisors as an object array.  So a
batch pays only for its classes and their boxes.

The kernel.  Flipping each ray rho in a box's support set S to (-v_rho,
-a_rho - 1) folds the support test: u has support set S iff every folded
<u, v_rho> + a_rho is >= 0.  One interval axis k per call, the one with the
fewest points on the other axes (rest points) over the batch, is solved
exactly: at a rest point each ray with v_rho,k != 0 bounds u_k by one int64
floor division, from below or above as its folded v_rho,k is positive or
negative, so the valid u_k form one interval, and a ray with v_rho,k = 0
only tests the rest value.  Rest points are decoded mixed-radix from one
flat index, CHUNK_POINTS at a time, into ray-major (rays x points) arrays;
np.add.reduceat sums each box's intervals.  Every kernel value is a folded
partial sum or a digit term inside the bound of _vertex_maps's reach,
which the one guard keeps in int64, so all arithmetic is int64.

What depends only on the rays, the support sets (0/1 membership rows
over the rays, so any number of rays fits) and the axis k is built once
per axis and kept in a Folds, which the plan holds: the fold signs, the
folded rays, the offsets, the caps of every set, the rest axes, the rays
that divide and the rays that only test.  Each axis's tables are filled
the first time a batch of the fan chooses that axis.  A call forms only
what depends on its boxes: their widths and rest points, the axis, the
rows of their coefficients and their sets' caps.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import comb, prod
from operator import or_
from typing import NamedTuple

import numpy as np

from .errors import BoxTooLarge
from .fan import Fan
from .intlinalg import rational_rank

BACKEND = "numpy"

# Point budget of each polytope box, checked before the batch's kernel
# call: the largest among the benchmark's reference classes has 179,712
# points, and a hostile class can ask for 10^14.
MAX_BOX_POINTS = 10**8
# Budget of a fan's plan: _vertex_maps forms one map per set of pic_rank
# rays, C(n_rays, pic_rank) of them, in object dtype (S = 200 b1,f1: C(204,
# 3), 5.5 s and 940 MB).  The largest plan of any test is C(64, 3) = 41,664,
# P^60 x P^1 blown up at a point.
MAX_PLAN_SETS = 10**5
# Budget of a rank table: _support_ranks forms the Taylor sets, all 2^m
# subsets of a fan's m primitive collections.  Every fan of the tests has m
# <= 5 and every double blow-up of the 3/1 family m <= 9 (0.07 s); m = 12
# takes 12 s, and a 7-ray surface's m = 14 runs for minutes and past 1 GB.
MAX_PRIMITIVE_COLLECTIONS = 10
_INT64_MAX = 2**63 - 1
# (vertex, mask, row) values per row chunk of _polytope_boxes, the array
# each of the p rays off a vertex is tested on
SLACK_VALUES = 1 << 14
# rest points per chunk; bounds the (rays x points) temporaries to a few MB
CHUNK_POINTS = 1 << 13


class _Plan(NamedTuple):
    """All the oracle reads of one fan that depends on the fan alone, built
    on its first batch and kept with it (_plan): the vertex maps scatter,
    dets, reach and tests (_vertex_maps), the tables of its type's support
    sets for the vertex tests (_mask_tables) and their rank rows
    (_support_ranks), the kernel's Folds of its rays and those sets, whose
    axes fill as batches choose them, and its basis divisors as an object
    array (_lift's).  The sets' membership rows are folds.masks."""

    scatter: np.ndarray
    dets: np.ndarray
    reach: int
    tests: np.ndarray
    verts: np.ndarray  # (vertices, dim, M): scatter @ 1_S
    on: np.ndarray  # (p, vertices, M, 1): whether the ray off[j, v] is in S
    low: np.ndarray  # (p, vertices, M, 1): on - tests @ 1_S
    ranks: np.ndarray
    folds: Folds
    basis: np.ndarray


def _plan(fan: Fan) -> _Plan:
    """fan's _Plan, built on its first call, then read from fan's __dict__
    (see Fan).  fan's B^-1 is read first, which checks fan, so an invalid
    fan fails before any rank table is filled; then a fan of more than
    MAX_PLAN_SETS sets of pic_rank rays raises BoxTooLarge before any of
    its vertex maps is formed.  A type of more than MAX_PRIMITIVE_COLLECTIONS
    primitive collections raises BoxTooLarge in _support_ranks, before its
    rank table is filled."""
    plan = fan.__dict__.get("_oracle_plan")
    if plan is None:
        fan._basis_inverse  # checks fan
        if (sets := comb(fan.n_rays, fan.pic_rank)) > MAX_PLAN_SETS:
            raise BoxTooLarge(
                f"fan {fan.basis_tag}: C({fan.n_rays}, {fan.pic_rank}) = {sets} sets "
                f"of rays to plan (budget {MAX_PLAN_SETS})"
            )
        scatter, dets, reach, tests, off = _vertex_maps(fan)
        masks, ranks = _support_ranks(fan)
        plan = fan.__dict__["_oracle_plan"] = _Plan(
            scatter, dets, reach, tests, *_mask_tables(scatter, tests, off, masks), ranks,
            Folds(fan.rays, masks), np.array(fan.basis_divisors, dtype=object),
        )
    return plan


def _mask_tables(scatter, tests, off, masks):
    """(verts, on, low), the tables of the support sets S in masks (int64
    membership rows) for the vertex maps scatter, tests and off: the ray
    off[j, v] wants a slack <= 0 if it is in S, >= 0 else, so with on = [in
    S], a @ tests >= on - 1_S @ tests, negated if on."""
    inside = masks.T  # (rays, masks): 1 on S
    on = inside[off][..., None] == 1
    return scatter @ inside, on, on - (tests @ inside)[..., None]


def _vertex_maps(fan: Fan):
    """(scatter, dets, reach, tests, off), fan's vertex maps (for its plan).

    scatter (vertices x dim x n_rays, int64) maps a T-divisor a to det_S
    times its arrangement vertex {u : <u, v_i> = -a_i for i in S}, for each
    set S of dim rays with R_S invertible, and dets (vertices x 1) holds
    det_S = |det R_S|.  The slack det_S * (<vertex, v_rho> + a_rho) of a
    vertex is 0 on the rays of S, so only the p rays off S, off (p x
    vertices, ascending per vertex), are tested: tests (p x vertices x
    n_rays, int64) maps a to the slacks at off.

    reach bounds every value the pass forms, in units of big = max|a| + 1
    over a batch (_dims_of_divisors's guard).  With s and t the largest L1
    norms of the rows of scatter and tests, V the largest L1 norm of a ray
    and W its largest |entry|, reach = max(t, (V + 1) s + V, 2 W s): the
    vertices of a + 1_S lie within s big, so do the polytope boxes, and
    their widths within 2 s big + 1; the kernel (excol.kernels) forms folded
    partial sums of a_rho + <u, v_rho> within max|a| + V s big + V, and
    digit terms v_rho,d (u_d - lo_d) within 2 W s big.

    All are read off B^-1 = [C | D] (Fan._basis_inverse) in Picard
    coordinates (Oda-Park's Gale transform, Tohoku Math. J. 1991).  With T
    the rays off S and sgn = sign(det C_T): det_S = |det C_T| (Jacobi's
    complementary minors); the vertex's divisor a + <u, v> has a's class and
    vanishes on S, so its slacks on T are a @ sgn C adj(C_T); (lattice rows)
    D = I makes its scatter block sgn C adj(C_T) D_T - det_S D.  Products
    are in int64 if a bound on them fits, else in Python ints; a reach past
    int64, which no class could pass the guard with, raises BoxTooLarge.
    """
    n, p = fan.n_rays, fan.pic_rank
    inv = np.array(fan._basis_inverse, dtype=object)
    comps = np.array(list(combinations(range(n), p))[::-1])  # S in lex order
    # Faddeev-LeVerrier on all C_T, exactly: M_k = C_T M_(k-1) + c_(p-k+1) I,
    # c_(p-k) = -tr(C_T M_k) / k; det C_T = (-1)^p c_0, sgn adj(C_T) = -sign(c_0) M_p
    coef, cm = 1, 0
    for k in range(1, p + 1):
        m = cm + coef * np.identity(p, dtype=object)
        cm = inv[comps, :p] @ m
        coef = -cm.trace(axis1=1, axis2=2)[:, None, None] // k
    keep = coef[:, 0, 0] != 0  # C_T singular: S is no vertex
    comps, dets, adj = comps[keep], abs(coef[keep, 0]), (-np.sign(coef) * m)[keep]
    fits = n * (p * abs(inv).max()) ** 2 * (abs(adj).max() + dets.max()) < _INT64_MAX
    inv, adj, dets = (x.astype(np.int64 if fits else object) for x in (inv, adj, dets))
    cadj = inv[:, :p] @ adj  # (vertices, n_rays, p)
    scatter = (cadj @ inv[comps, p:] - dets[:, :, None] * inv[:, p:]).transpose(0, 2, 1)
    tests = cadj.transpose(2, 0, 1)
    s, t = (int(abs(x).sum(axis=2).max()) for x in (scatter, tests))
    v = max(sum(map(abs, ray)) for ray in fan.rays)
    reach = max(t, (v + 1) * s + v, 2 * max(abs(x) for ray in fan.rays for x in ray) * s)
    if reach >= _INT64_MAX:  # dets, scatter, tests and the rays lie within reach
        raise BoxTooLarge(
            f"fan {fan.basis_tag}: vertex maps reach {reach} (int64 limit {_INT64_MAX})"
        )
    scatter, tests = (np.ascontiguousarray(x, dtype=np.int64) for x in (scatter, tests))
    return scatter, dets.astype(np.int64), reach, tests, comps.T


def _polytope_boxes(plan: _Plan, coeffs):
    """(rows, lo, hi, index), four int64 arrays in (row, mask) order, of
    every T-divisor a in coeffs (int64 rows, within _dims_of_divisors's
    guard) and support set S of plan (S's row is plan.folds.masks[index])
    whose polytope

        P_S(a) = {u : <u, v_rho> <= -a_rho - 1 for rho in S, >= -a_rho else}

    has lattice points in [lo, hi] = [ceil(min), floor(max)] of its vertices
    (the kernel takes no empty box: it divides by the box widths).

    P_S(a) is cut out by the arrangement of b = a + 1_S, so its vertices
    are the arrangement vertices of b that meet every inequality: scatter @
    b (det_S times each vertex), tested on the p rays off each vertex by
    tests @ b, with 1_S's shares from plan.verts, on and low.  The rays
    span, so P_S(a) is pointed, and it is empty when no vertex qualifies.
    The rows go a chunk at a time, two products and at most SLACK_VALUES
    (vertex, mask, row) tests each, so the temporaries stay small.  The
    first box in (row, mask) order over MAX_BOX_POINTS raises BoxTooLarge
    in its chunk, so no later chunk is formed; a chunk's boxes have their
    own point counts formed only when the cube of its largest width is over
    budget.
    """
    dets, on, low, masks = plan.dets[:, :, None], plan.on, plan.low, plan.folds.masks
    coeffs = np.asarray(coeffs, dtype=np.int64).T
    step = max(1, SLACK_VALUES // (len(dets) * len(masks)))
    out = []
    for start in range(0, coeffs.shape[1], step):
        chunk = coeffs[:, start : start + step]
        slack = (plan.tests @ chunk)[:, :, None]
        vertex = (slack[0] >= low[0]) != on[0]
        for j in range(1, len(on)):
            vertex &= (slack[j] >= low[j]) != on[j]
        rows, ms = np.nonzero(vertex.any(axis=0).T)
        nums = (plan.scatter @ chunk)[:, :, rows] + plan.verts[:, :, ms]
        keep = vertex[:, ms, rows][:, None]
        lo = np.where(keep, -(-nums // dets), _INT64_MAX).min(axis=0).T
        hi = np.where(keep, nums // dets, -_INT64_MAX).max(axis=0).T
        lattice = (lo <= hi).all(axis=1)
        rows, ms, lo, hi = start + rows[lattice], ms[lattice], lo[lattice], hi[lattice]
        # a cube of the chunk's largest width holds every box, so only a
        # chunk whose cube is over budget has its boxes' own point counts formed
        if len(rows) and int((hi - lo).max() + 1) ** lo.shape[1] > MAX_BOX_POINTS:
            points = np.ones(len(rows), dtype=np.int64)
            for width in np.minimum(hi - lo + 1, MAX_BOX_POINTS + 1).T:
                points = np.minimum(points * width, MAX_BOX_POINTS + 1)
            if (over := np.flatnonzero(points > MAX_BOX_POINTS)).size:
                i = over[0]
                mask = sum(1 << r for r in np.flatnonzero(masks[ms[i]]).tolist())
                raise BoxTooLarge(
                    f"T-divisor {tuple(coeffs[:, rows[i]].tolist())}, support set {mask:b}: "
                    f"polytope box lo={lo[i].tolist()} hi={hi[i].tolist()}: "
                    f"{prod((hi[i] - lo[i] + 1).tolist())} points (budget {MAX_BOX_POINTS})"
                )
        out.append((rows, ms, lo, hi))
    rows, index, lo, hi = (np.concatenate(x) for x in zip(*out))
    return rows, lo, hi, index


_RANK_TABLES = {}  # fan.max_cones -> _support_ranks(fan)


def _support_ranks(fan: Fan):
    """(masks, ranks) of fan's type: the support sets S whose complex (the
    max cones induced on S) has nonzero reduced cohomology, as 0/1 int64
    membership rows (sets x rays), ascending as bit masks, and its ranks in
    degrees -1..dim-1, one row per set.  Hochster's formula: dim
    H~_{|S|-k-1} = beta_{k,S}, the homology of the multidegree-S strand of
    the Taylor resolution of the Stanley-Reisner ideal, which the primitive
    collections P_j generate: the sets J of P_j's with union S, in degree
    |J| (Miller-Sturmfels, GTM 227, ch. 1 and 4).  The strands are keyed by
    S as a Python-int bit mask, so any number of rays fits.  A type of more
    than MAX_PRIMITIVE_COLLECTIONS collections raises BoxTooLarge before
    any Taylor set is formed."""
    if fan.max_cones not in _RANK_TABLES:
        prims = [sum(1 << i for i in p) for p in fan.primitive_collections]
        if len(prims) > MAX_PRIMITIVE_COLLECTIONS:
            raise BoxTooLarge(
                f"fan {fan.basis_tag}: {len(prims)} primitive collections, 2^{len(prims)} "
                f"Taylor sets to rank (budget {MAX_PRIMITIVE_COLLECTIONS} collections)"
            )
        strands = {}  # S -> its sets J, as tuples of indices into prims
        for k in range(len(prims) + 1):
            for J in combinations(range(len(prims)), k):
                strands.setdefault(reduce(or_, (prims[j] for j in J), 0), []).append(J)
        rows = {}
        for union, basis in sorted(strands.items()):
            # the differential sends J to the sum over pos of (-1)^pos times J
            # without its pos-th entry, and the strand keeps the terms in basis
            blocks = {}  # |J| -> the rows of its sets J
            for J in basis:
                coeffs = [0] * len(basis)
                for pos in range(len(J)):
                    if (face := J[:pos] + J[pos + 1 :]) in basis:
                        coeffs[basis.index(face)] = (-1) ** pos
                blocks.setdefault(len(J), []).append(coeffs)
            d = {k: rational_rank(block) for k, block in blocks.items()}  # degree k to k-1
            row = [0] * (fan.dim + 1)
            for k, block in blocks.items():
                if beta := len(block) - d[k] - d.get(k + 1, 0):
                    row[union.bit_count() - k] = beta  # the rank in degree |S|-k-1
            if any(row):
                rows[union] = row
        masks = [[union >> i & 1 for i in range(fan.n_rays)] for union in rows]
        _RANK_TABLES[fan.max_cones] = (
            np.array(masks, dtype=np.int64).reshape(-1, fan.n_rays),
            np.array(list(rows.values()), dtype=np.int64).reshape(-1, fan.dim + 1),
        )
    return _RANK_TABLES[fan.max_cones]


def _dims_of_divisors(fan: Fan, coeff_rows):
    """All h^i of each T-divisor (rows of ray coefficients), uncached.

    The int64 guard comes first, on the exact rows: big = max|a| + 1 times
    reach (_vertex_maps) must stay below 2^63 - 1, else BoxTooLarge names the
    row with the largest coefficient and the bound.  h is the sum, over the
    support sets S with nonzero reduced cohomology, of the lattice points
    of P_S (_polytope_boxes) times the ranks of S, all counted in one kernel
    call.  The fan is valid (_plan), so every such P_S is bounded and
    its lattice box holds all of it.  A box over MAX_BOX_POINTS fails the
    batch in _polytope_boxes, before the kernel call.
    """
    plan, exact = _plan(fan), np.asarray(coeff_rows, dtype=object)
    if (big := max(map(abs, exact.flat)) + 1) * plan.reach >= _INT64_MAX:
        row = exact[abs(exact).max(axis=1).argmax()]  # the first with the largest |a|
        raise BoxTooLarge(
            f"T-divisor {tuple(row)}: values bounded by {big * plan.reach} "
            f"(int64 limit {_INT64_MAX})"
        )
    coeffs = exact.astype(np.int64)
    rows, lo, hi, index = _polytope_boxes(plan, coeffs)
    h = np.zeros((len(coeffs), fan.dim + 1), dtype=np.int64)
    if len(rows):
        counts = count_support_sets(lo, hi, coeffs[rows], index, plan.folds)
        # ranks[:, i] is the rank in degree i-1, which adds to h^i
        np.add.at(h, rows, counts[:, None] * plan.ranks[index])
    return [tuple(x) for x in h.tolist()]


def _lift(fan: Fan, coords):
    """A T-divisor of each class (rows of Python ints), in one exact product."""
    return np.array(coords, dtype=object) @ _plan(fan).basis


class _Axis(NamedTuple):
    """The fold tables of one interval axis k (Folds)."""

    sign: np.ndarray  # (R, 1): -1 where v_rho,k > 0, else 1
    rays: np.ndarray  # (R, n): sign * rays
    offset: np.ndarray  # (R, 1): |v_rho,k| - [v_rho,k > 0]
    caps: np.ndarray  # (R, M): the cap of each ray and set
    others: list  # the rest axes, ascending
    divisors: list  # (rho, |v_rho,k|) for |v_rho,k| > 1
    tests: np.ndarray  # the rays with v_rho,k = 0


class Folds(dict):
    """The fold tables of rays (R x n) and support sets (M x R 0/1 rows),
    both kept as int64: folds[k] is axis k's _Axis, built on first use."""

    def __init__(self, rays, masks):
        super().__init__()
        self.rays, self.masks = np.asarray(rays, np.int64), np.asarray(masks, np.int64)

    def __missing__(self, k):
        # With r the value <u, v_rho> + a_rho at u_k = lo_k, a ray bounds x =
        # u_k - lo_k by t = ceil(-r / v_rho,k) if v_rho,k > 0, floor(r /
        # -v_rho,k) + 1 if v_rho,k < 0, and (v_rho,k = 0) t = _INT64_MAX if r < 0,
        # else 0: x >= t if the ray is off S and v_rho,k >= 0, or on S and
        # v_rho,k < 0; else x < t.  The caps keep the thresholds of one side.
        slope = self.rays[:, k]
        sign = np.where(slope > 0, -1, 1)[:, None]
        self[k] = axis = _Axis(
            sign,
            sign * self.rays,
            (abs(slope) - (slope > 0))[:, None],
            np.where((slope >= 0)[:, None] ^ (self.masks.T == 1), _INT64_MAX, -_INT64_MAX - 1),
            [d for d in range(self.rays.shape[1]) if d != k],
            [(r, int(abs(slope[r]))) for r in np.flatnonzero(abs(slope) > 1).tolist()],
            np.flatnonzero(slope == 0),
        )
        return axis


def count_support_sets(lo, hi, coeffs, index, folds):
    """(B,) counts: the points of each box [lo, hi] (B x n, inclusive, lo <=
    hi on every axis) whose support set is exactly the one of membership
    row folds.masks[index] (index (B,)), for the rays of folds (R x n).
    coeffs is B x R."""
    lo, hi, coeffs, index = (np.asarray(x, np.int64) for x in (lo, hi, coeffs, index))
    widths = hi - lo + 1
    rest = widths.prod(axis=1)[:, None] // widths  # rest points per box and axis
    k = int(rest.sum(axis=0).argmin())
    axis = folds[k]
    rays, others, nrays = axis.rays, axis.others, len(axis.rays)
    ends = np.cumsum(rest[:, k])
    starts = ends - rest[:, k]
    # per box: sign * r + |v_rho,k| - [v_rho,k > 0] at lo, its mask's caps, the
    # widths of axis k and of the rest axes, and the box's first flat index
    table = np.concatenate([
        axis.sign * coeffs.T + axis.offset + rays @ lo.T,
        axis.caps[:, index],
        widths[:, [k] + others].T, starts[None],
    ])
    out, total = np.zeros(len(lo), dtype=np.int64), int(rest[:, k].sum())
    for begin in range(0, total, CHUNK_POINTS):
        end = min(begin + CHUNK_POINTS, total)
        b0, b1 = np.searchsorted(ends, begin, side="right"), np.searchsorted(starts, end)
        segments = np.maximum(starts[b0:b1] - begin, 0)
        rows = table[:, b0:b1].repeat(np.minimum(ends[b0:b1], end) - begin - segments, axis=1)
        value, caps, width = rows[:nrays], rows[nrays : 2 * nrays], rows[2 * nrays]
        flat = np.arange(begin, end) - rows[-1]
        for d, size in zip(others, rows[2 * nrays + 1 : -1]):
            flat, digit = np.divmod(flat, size)
            value += rays[:, d, None] * digit
        for r, divisor in axis.divisors:
            value[r] //= divisor
        value[axis.tests] = (value[axis.tests] >> 63) & _INT64_MAX
        low = np.maximum(0, np.minimum(value, caps).max(axis=0))
        high = np.minimum(width, np.maximum(value, caps).min(axis=0))
        out[b0:b1] += np.add.reduceat(np.maximum(high, low) - low, segments)
    return out
