"""Fans of the projective-bundle family and their blow-ups.

The only fans constructible through the public API are
X = P_{P^s}(O + O(a_1) + ... + O(a_r)), projective spaces (used as sanity
anchors), and star subdivisions of X along torus-invariant centers.

Ray naming is part of the contract: b0..bs are the base rays, f0..fr the
fiber rays, and "e" the exceptional ray of a blow-up; a blow-up of a fan
that already has a ray "e" names its new ray by the first free of e2, e3,
....  The names of a fan's rays are distinct (validate_fan).

Picard bases: on X the coordinates are (alpha, beta) with alpha the pullback
of the base hyperplane and beta the tautological class normalized so that
pushing forward O_p(beta) gives Sym^beta of the split bundle; on a blow-up
a third coordinate k counts the O(E) twist.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import chain, count
from operator import attrgetter

from .errors import InvalidSpec, NotACone, UnknownRay
from .intlinalg import inverse


class _Record:
    """Base of the package's records, each an immutable value.

    A record's fields are the parameters of its class's __init__, in order,
    which sets each with object.__setattr__, or all in one __dict__.update
    (mutation._Sheaf, the record built most often), and then checks them.
    Records are equal iff they are of one class and their fields are
    equal, so a LineBundle never equals a PushforwardTwist with the same
    numbers, and equal records hash alike.  The repr names the class and
    each field, as a dataclass's does; error messages embed it.  Assigning
    or deleting an attribute raises AttributeError (verify.Report, the one
    mutable record, allows both and is unhashable).  That is all the
    package needs of dataclasses, whose import (with inspect, ast and dis)
    and generated methods would cost a third of `import excol`.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PicClass(_Record):
    """A line bundle class in the declared basis of one fan; int coordinates."""

    def __init__(self, coords: tuple, basis: str):
        coords = tuple(coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "basis", basis)
        if not all(type(c) is int for c in coords):
            raise ValueError(f"Picard coordinates must be integers: {coords}")

    def _check(self, other):
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other):
        self._check(other)
        return PicClass(tuple(a + b for a, b in zip(self.coords, other.coords)), self.basis)

    def __sub__(self, other):
        self._check(other)
        return PicClass(tuple(a - b for a, b in zip(self.coords, other.coords)), self.basis)


class Fan(_Record):
    """A smooth complete fan with named rays and a declared Picard basis.

    max_cones holds sorted tuples of ray indices.  basis_divisors holds,
    per Picard basis element, a T-divisor (vector of ray coefficients)
    representing it, by which the oracle lifts a class.
    """

    def __init__(
        self,
        dim: int,
        ray_names: tuple,
        rays: tuple,
        max_cones: tuple,
        basis_tag: str,
        basis_divisors: tuple,
    ):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ray_names", ray_names)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", max_cones)
        object.__setattr__(self, "basis_tag", basis_tag)
        object.__setattr__(self, "basis_divisors", basis_divisors)

    @cached_property
    def name_index(self):
        return {n: i for i, n in enumerate(self.ray_names)}

    @property
    def n_rays(self):
        return len(self.rays)

    @property
    def pic_rank(self):
        return len(self.basis_divisors)

    @cached_property
    def _basis_inverse(self):
        """B^-1 = [C | D] (n_rays rows), for B = [basis divisors; lattice rows].

        Forming it is the fan's one check: validate_fan runs first, so a fan
        has a B^-1 iff it is a smooth complete fan whose basis divisors are
        a Z-basis of Pic.  Pic = Z^rays / M with M spanned by the lattice
        rows (v_rho[d])_rho, so that holds iff B is unimodular.  Row rho of
        C is the class of e_rho; (lattice rows) D = I (kernels._vertex_maps).
        A blow-up built by star_subdivide or make_blowup never runs this: it
        gets its parent's B^-1, bordered, in its __dict__ (star_subdivide),
        and with it its parent's check.  Every entry of a basis divisor must
        be an int.
        """
        validate_fan(self)
        if self.pic_rank + self.dim != self.n_rays:
            raise InvalidSpec(
                f"Picard rank {self.n_rays - self.dim} != declared basis size {self.pic_rank}"
            )
        for bd in self.basis_divisors:
            if not all(type(x) is int for x in bd):
                raise InvalidSpec(f"basis divisor entries must be integers: {bd}")
        rows = [*self.basis_divisors, *([ray[d] for ray in self.rays] for d in range(self.dim))]
        return _unimodular(rows, "declared basis divisors are not a Z-basis of Pic")[0]

    @cached_property
    def primitive_collections(self):
        """The minimal sets of rays in no max cone (Batyrev), as sorted tuples
        of ray indices, ascending: the minimal transversals of the max cones'
        complements, by Berge's algorithm."""
        rays = range(self.n_rays)
        found = {0}  # ray sets as bit masks
        for cone in self.max_cones:
            rest = [1 << i for i in rays if i not in cone]
            met = {t for t in found if any(t & r for r in rest)}
            # t | r for t in found - met is minimal unless it holds a met set
            grown = {t | r for t in found - met for r in rest}
            found = met | {g for g in grown if not any(u & g == u for u in met)}
        return tuple(sorted(tuple(i for i in rays if t >> i & 1) for t in found))

    def spans_cone(self, idx) -> bool:
        """Whether the rays with indices idx all lie in one maximal cone."""
        idx = set(idx)
        return any(idx.issubset(cone) for cone in self.max_cones)

    def class_of_divisor(self, coeffs) -> PicClass:
        if len(coeffs) != self.n_rays:
            raise ValueError("coefficient vector length mismatch")
        cm = self._basis_inverse  # its first pic_rank columns, C
        coords = tuple(
            sum(c * cm[rho][j] for rho, c in enumerate(coeffs))
            for j in range(self.pic_rank)
        )
        return PicClass(coords, self.basis_tag)

    @cached_property
    def _canonical_class(self):
        return self.class_of_divisor([-1] * self.n_rays)

    def canonical_class(self) -> PicClass:
        """K = -sum of the D_rho, computed once per fan (see Fan)."""
        return self._canonical_class

    def pic_class(self, coords) -> PicClass:
        cls = PicClass(coords, self.basis_tag)  # integer coordinates
        if len(cls.coords) != self.pic_rank:
            raise ValueError("wrong number of Picard coordinates")
        return cls

    # kernels._plan keeps the oracle's plan of the fan, one flat record
    # (its vertex maps, the vertex tests' tables and ranks of its type's
    # support sets, the kernel's fold tables of its rays and those sets, and
    # its basis divisors), in __dict__["_oracle_plan"], built on the fan's
    # first batch.  A record's __dict__ takes that without __setattr__, as
    # it takes cached_property (name_index, _basis_inverse,
    # primitive_collections and _canonical_class, which every Serre rotation
    # of a replay reads) and star_subdivide, which records a blow-up's
    # "_basis_inverse" there; a copy made by calling Fan with the fields
    # carries none of them, so it is checked anew.


def _unimodular(rows, message):
    """(rows^-1, det rows) from one elimination; InvalidSpec(message) unless
    rows is a square integer matrix of det +-1."""
    try:
        inv, det = inverse(rows)
    except ValueError:  # singular, or not square
        det = 0
    if abs(det) != 1:
        raise InvalidSpec(message)
    return inv, det


def validate_fan(fan: Fan) -> None:
    """Check that fan is a smooth complete fan; raise InvalidSpec if not.

    The rays must have n_rays distinct names, so that a name picks one ray
    (name_index).  Every ray index of a max cone must be an int in
    range(n_rays), every ray must lie in a max cone and have dim int
    coordinates, and every facet must lie on exactly two max cones.  The
    rest is read cone by cone in the
    frame of the first cone R_0, inverted exactly: a ray's coordinates are
    <u_i, v_rho>, u_i the dual basis of R_0's rays, in ascending order like
    every list of a cone's rays here.  R_0's rays in a cone sigma are unit
    rows there, so (Laplace) det R_sigma / det R_0 = det M * (-1)^(their
    positions in sigma and in R_0), with M the k x k (k <= min(dim, p))
    coordinates of sigma's other rays on the axes it drops.  |det M| = 1
    says that sigma is unimodular (Cox-Little-Schenck, Toric Varieties,
    3.1.19), so its rays are primitive.  The two cones tau + {rho} and
    tau + {rho'} on a facet tau lie on opposite sides of it (the wall
    relation, 6.4) iff det[tau, rho] and det[tau, rho'] differ in sign; up
    to one common sign these are the cones' determinants times (-1)^(the
    position of rho, of rho').  Cones glued like this cover space some
    number of times, at least once per facet-connected set of them, so
    exactly one cone may hold w, the sum of R_0's rays; this also says that
    the facet graph is connected.  w is 1 on every axis, so sigma holds it
    iff lambda = 1^T M^-1 >= 0 on its rays off R_0 and 1 - lambda . M_i >= 0
    on each axis i it keeps, M_i those rays' coordinates there.  Only
    lambda >= 0 is tested, and M^-1 and det M come from one elimination.
    This counts the cones sigma whose image in N / span(tau), tau = sigma
    meet R_0, holds the image of w; R_0 always counts, and the count is at
    least the number of cones that hold w, so a fan that fails the full
    test still fails.  On a fan that passes it, the images of the cones
    through tau form a fan, the star of tau, in which the image of w lies
    inside R_0's image, so no other cone's image holds it, and the count is
    still 1: both tests give the same verdict.  Nothing is written into fan.
    """
    n = fan.dim
    cones = fan.max_cones
    if not len(set(fan.ray_names)) == len(fan.ray_names) == fan.n_rays:
        raise InvalidSpec(
            f"ray names {fan.ray_names} are not {fan.n_rays} distinct names, one per ray"
        )
    for cone in cones:
        if not all(type(i) is int and 0 <= i < fan.n_rays for i in cone):
            raise InvalidSpec(f"max cone {cone} names a ray index outside range({fan.n_rays})")
    stray = set(range(fan.n_rays)).difference(*cones)
    if stray:
        raise InvalidSpec(f"ray {fan.rays[min(stray)]} lies in no max cone")
    if not cones:
        raise InvalidSpec("fan has no max cone")
    if any(len(v) != n for v in fan.rays):
        raise InvalidSpec("ray of wrong dimension")
    for v in fan.rays:
        if not all(type(x) is int for x in v):
            raise InvalidSpec(f"ray coordinates must be integers: {v}")
    facet_cones = {}  # facet as a bit mask of rays -> [(cone index, its ray off the facet)]
    for k, cone in enumerate(cones):
        if len(set(cone)) != n:
            raise InvalidSpec("max cone of wrong dimension")
        mask = sum(1 << i for i in cone)
        for rho in cone:
            facet_cones.setdefault(mask ^ 1 << rho, []).append((k, rho))
    if any(len(ks) != 2 for ks in facet_cones.values()):
        raise InvalidSpec("fan is not complete: facet shared by != 2 cones")
    first = sorted(cones[0])
    inv = _unimodular([fan.rays[i] for i in first], f"non-unimodular cone {cones[0]}")[0]
    axis = {rho: i for i, rho in enumerate(first)}
    coords = []  # coords[rho][i] = <u_i, v_rho>, u_i the columns of inv
    for v in fan.rays:
        c = [0] * n
        for d, x in enumerate(v):
            if x:
                c = [y + x * z for y, z in zip(c, inv[d])]
        coords.append(c)
    signs = []  # per cone, the sign of det R_sigma / det R_0
    covering = 0  # the cones with 1^T M^-1 >= 0
    for cone in cones:
        parity, kept, new = 0, set(), []
        for pos, rho in enumerate(sorted(cone)):
            if rho in axis:
                parity += pos + axis[rho]
                kept.add(axis[rho])
            else:
                new.append(coords[rho])
        minor = [[c[i] for i in range(n) if i not in kept] for c in new]
        minv, det = _unimodular(minor, f"non-unimodular cone {cone}")
        signs.append(det * (-1) ** parity)
        lam = [sum(col) for col in zip(*minv)]  # 1^T M^-1
        covering += min(lam, default=0) >= 0
    for facet, ((a, rho), (b, rho2)) in facet_cones.items():
        # a ray's position in its cone is the number of the facet's rays below it
        side = signs[a] * (-1) ** (facet & ((1 << rho) - 1)).bit_count()
        if side == signs[b] * (-1) ** (facet & ((1 << rho2) - 1)).bit_count():
            facet_rays = tuple(i for i in cones[a] if i != rho)
            raise InvalidSpec(
                f"cones {cones[a]} and {cones[b]} lie on one side of facet {facet_rays}"
            )
    if covering != 1:
        raise InvalidSpec(f"fan is not a fan: it covers a point {covering} times")


class BundleSpec(_Record):
    """The bundle data (s; a_0..a_r) with a_0 = 0 and non-decreasing a_i."""

    def __init__(self, s: int, fiber_degrees: tuple):
        a = tuple(fiber_degrees)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "fiber_degrees", a)
        if not all(type(x) is int for x in (s,) + a):
            raise InvalidSpec(f"base dimension and fiber degrees must be integers: {self}")
        if s < 1:
            raise InvalidSpec("base dimension s must be >= 1")
        if len(a) < 2:
            raise InvalidSpec("need at least two fiber degrees (a_0 and a_1)")
        if a[0] != 0:
            raise InvalidSpec(
                "fiber degrees must be normalized with a_0 = 0 "
                "(twist the bundle by O(-a_0))"
            )
        if any(x > y for x, y in zip(a, a[1:])):  # with a_0 = 0, also non-negative
            raise InvalidSpec("fiber degrees must be non-negative and non-decreasing")

    @property
    def r(self):
        return len(self.fiber_degrees) - 1

    @property
    def dim(self):
        return self.s + self.r


class CenterSpec(_Record):
    """A torus-invariant center: at least two ray names of the X fan, one
    per cut divisor, so its codimension is their number.  One ray is no
    blow-up: its star subdivision would only put a copy of the ray in its
    place.  Whether the rays span a cone is star_subdivide's check
    (NotACone)."""

    def __init__(self, ray_names: frozenset):
        ray_names = frozenset(ray_names)
        object.__setattr__(self, "ray_names", ray_names)
        if len(ray_names) < 2:
            raise InvalidSpec("a center needs at least two rays")

    @property
    def codim(self):
        return len(self.ray_names)


class CenterGeometry(_Record):
    """The center Y = P_{P^s'}(O(y_degrees[0]) + ... + O(y_degrees[r'])) and
    its conormal bundle, one (alpha, beta) class on Y per cut divisor:
    (-1, 0) for a base ray, (a_j, -1) for the fiber ray f_j.  The seed's
    pushforward blocks (Orlov's formula) and the Ext core (splitcalc) read
    nothing else of a center; X's own data stay in the BundleSpec."""

    def __init__(self, s_prime: int, y_degrees: tuple, conormal_summands: tuple):
        object.__setattr__(self, "s_prime", s_prime)
        object.__setattr__(self, "y_degrees", y_degrees)
        object.__setattr__(self, "conormal_summands", conormal_summands)

    @property
    def r_prime(self):
        return len(self.y_degrees) - 1

    @property
    def codim(self):
        return len(self.conormal_summands)


@cache
def build_projective_bundle_fan(spec: BundleSpec) -> Fan:
    """Fan of X = P_{P^s}(O + O(a_1) + ... + O(a_r)) in dimension s+r; the
    degrees a_1..a_r twist b0.  One shared Fan per spec, validated once,
    where its B^-1 is first read."""
    s, r, degrees = spec.s, spec.r, spec.fiber_degrees
    n = s + r

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(n))

    names = [f"b{i}" for i in range(s + 1)] + [f"f{j}" for j in range(r + 1)]
    b0 = tuple([-1] * s + list(degrees[1:]))
    f0 = tuple([0] * s + [-1] * r)
    rays = [b0] + [unit(i - 1) for i in range(1, s + 1)]
    rays += [f0] + [unit(s + j - 1) for j in range(1, r + 1)]
    cones = []
    for drop_b in range(s + 1):
        for drop_f in range(r + 1):
            cone = [i for i in range(s + 1) if i != drop_b]
            cone += [s + 1 + j for j in range(r + 1) if j != drop_f]
            cones.append(tuple(sorted(cone)))
    n_rays = len(rays)
    h_div = tuple(1 if i == 1 else 0 for i in range(n_rays))        # D_{b1}
    xi_div = tuple(1 if i == s + 1 else 0 for i in range(n_rays))   # D_{f0}
    return Fan(
        dim=n,
        ray_names=tuple(names),
        rays=tuple(rays),
        max_cones=tuple(cones),
        basis_tag=f"X(s={s},a={degrees})",
        basis_divisors=(h_div, xi_div),
    )


def projective_space_fan(n) -> Fan:
    """Fan of P^n with rays x0 = -sum(e_i), x1..xn = e_i."""
    if n < 1:
        raise InvalidSpec("projective space of dimension >= 1 only")

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(n))

    rays = [tuple([-1] * n)] + [unit(i) for i in range(n)]
    cones = [tuple(sorted(set(range(n + 1)) - {drop})) for drop in range(n + 1)]
    return Fan(
        dim=n,
        ray_names=tuple(f"x{i}" for i in range(n + 1)),
        rays=tuple(rays),
        max_cones=tuple(cones),
        basis_tag=f"P^{n}",
        basis_divisors=(tuple(1 if i == 1 else 0 for i in range(n + 1)),),
    )


def star_subdivide(fan: Fan, center: CenterSpec) -> Fan:
    """Blow-up along the orbit closure of the cone spanned by the center rays.

    fan's B^-1 is read first (Fan._basis_inverse: InvalidSpec unless fan is
    smooth and complete with a Z-basis of Pic), then the center: UnknownRay
    unless its rays are rays of fan, NotACone unless the one pass that
    builds the new cones finds a max cone holding them.  Each cone sigma
    that holds the center tau gives way to the cones (sigma - {c}) + {e}, c
    in tau, and each of those has |det R_sigma|, because e - sum_{tau -
    {c}} v_i = v_c.  A star subdivision of a complete fan is complete
    (Cox-Little-Schenck, Toric Varieties, 3.3).

    Up to row order the blow-up's B is [[B, B 1_tau], [0, 1]] (fan's B, its
    rows extended by their sums over the center tau, and the E row), so its
    B^-1 is fan's bordered: an E column holding -1 on the center rays, and
    the unit row of e.  The blow-up gets it in its __dict__, and with it
    fan's check: it needs none of its own.

    The blow-up's basis tag is fan's followed by +E(the center's ray names,
    sorted), so blow-ups of one fan along different centers have different
    tags, and a class of one is refused by the other's oracle.
    """
    inv = fan._basis_inverse
    names = sorted(center.ray_names)
    for name in names:
        if name not in fan.name_index:
            raise UnknownRay(name)
    idx = sorted(fan.name_index[name] for name in names)
    idx_set = set(idx)
    e = fan.n_rays
    cones = []
    for cone in fan.max_cones:
        if idx_set.issubset(cone):
            # e is above every index, so dropping one center ray from the
            # sorted rays of sigma and e leaves a sorted cone
            rays = (*sorted(cone), e)
            cones += [rays[:k] + rays[k + 1 :] for k in map(rays.index, idx)]
        else:
            cones.append(cone)
    # a cone that holds the center gives way to codim >= 2 cones
    if len(cones) == len(fan.max_cones):
        raise NotACone(f"rays {sorted(center.ray_names)} do not span a cone")
    new_ray = tuple(map(sum, zip(*[fan.rays[i] for i in idx])))
    # pullback of a divisor acquires coefficient sum(old coeffs over center) at e
    basis = [(*bd, sum([bd[i] for i in idx])) for bd in fan.basis_divisors]
    basis.append((0,) * e + (1,))
    name = next(n for n in chain(["e"], map("e{}".format, count(2))) if n not in fan.name_index)
    sub = Fan(
        dim=fan.dim,
        ray_names=fan.ray_names + (name,),
        rays=fan.rays + (new_ray,),
        max_cones=tuple(cones),
        basis_tag=f"{fan.basis_tag}+E({','.join(names)})",
        basis_divisors=tuple(basis),
    )
    p = fan.pic_rank
    sub.__dict__["_basis_inverse"] = (
        *[row[:p] + (-int(rho in idx_set),) + row[p:] for rho, row in enumerate(inv)],
        (0,) * p + (1,) + (0,) * (e - p),
    )
    return sub


def _geometry(spec: BundleSpec, center: CenterSpec) -> CenterGeometry:
    """Y and its conormal bundle, for a center already checked to be a cone
    of X: the fiber rays f_j it cuts leave the other degrees to Y.

    Every maximal cone of X omits one base and one fiber ray, so a cone cuts
    at most s base and r fiber rays and s', r' >= 0.
    """
    cuts = sorted(int(n[1:]) for n in center.ray_names if n[0] == "f")
    base_cuts = center.codim - len(cuts)
    a = spec.fiber_degrees
    return CenterGeometry(
        s_prime=spec.s - base_cuts,
        y_degrees=tuple(d for j, d in enumerate(a) if j not in cuts),
        conormal_summands=((-1, 0),) * base_cuts + tuple((a[j], -1) for j in cuts),
    )


class Blowup(_Record):
    """The full geometric setup: X's spec, the center, the center geometry
    and the blow-up's fan.  The center's codimension is geometry.codim, the
    rank of Y's conormal bundle; X's fan is build_projective_bundle_fan(spec),
    one shared Fan per spec."""

    def __init__(
        self,
        spec: BundleSpec,
        center: CenterSpec,
        geometry: CenterGeometry,
        fan_xt: Fan,
    ):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "fan_xt", fan_xt)


def make_blowup(spec: BundleSpec, center: CenterSpec) -> Blowup:
    # star_subdivide checks the center against X
    fan_xt = star_subdivide(build_projective_bundle_fan(spec), center)
    geom = _geometry(spec, center)
    return Blowup(spec=spec, center=center, geometry=geom, fan_xt=fan_xt)
