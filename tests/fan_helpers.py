"""Test-only helpers built on the fan layer."""

from functools import cache
from itertools import accumulate, combinations_with_replacement, product

from excol import CenterSpec, Fan, build_projective_bundle_fan, cohomology_on_bundle
from excol.errors import NotACone, UnknownRay
from excol.fan import _geometry, star_subdivide
from excol.intlinalg import determinant, inverse


def replace(record, **changes):
    """A copy of record with changes to its fields, built by its class's
    constructor: the checks run on the copy, and a Fan copy carries no
    cached B^-1 or oracle plan of the original."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


def center_geometry(spec, center):
    """Base/fiber dimensions of Y, surviving summands, conormal classes;
    UnknownRay or NotACone unless the center is a cone of X."""
    fan = build_projective_bundle_fan(spec)
    for name in sorted(center.ray_names):
        if name not in fan.name_index:
            raise UnknownRay(name)
    if not fan.spans_cone(fan.name_index[name] for name in center.ray_names):
        raise NotACone(f"rays {sorted(center.ray_names)} do not span a cone")
    return _geometry(spec, center)


def y_cohomology(geom, alpha, beta):
    """h^*(Y, q*O(alpha) ox O_q(beta)) on the center Y of geom, itself a
    split projective bundle over P^s'."""
    return cohomology_on_bundle(geom.s_prime, geom.y_degrees, alpha, beta)


def sym_conormal(geom, m):
    """The (alpha, beta) classes on Y of Sym^m of geom's conormal bundle, as
    a list with multiplicity."""
    return [
        (sum(t[0] for t in pick), sum(t[1] for t in pick))
        for pick in combinations_with_replacement(geom.conormal_summands, m)
    ]


def smooth_complete(fan):
    """Whether fan is a smooth complete fan, by a slow reference for
    validate_fan that shares none of its frame: every ray lies in a max cone
    of dim distinct rays, every facet on exactly two of them, each cone's
    whole determinant is +-1, the two cones on each facet tau give
    det[tau, rho] and det[tau, rho'] opposite signs, and exactly one cone's
    exact inverse maps w, the sum of the first cone's rays, to coefficients
    >= 0."""
    n = fan.dim
    cones = [tuple(sorted(cone)) for cone in fan.max_cones]
    if not cones or any(len(set(cone)) != n for cone in cones):
        return False
    if set().union(*cones) != set(range(fan.n_rays)):
        return False
    facets = {}
    for cone in cones:
        for rho in cone:
            facets.setdefault(tuple(i for i in cone if i != rho), []).append(rho)
    if any(len(off) != 2 for off in facets.values()):
        return False

    def rows(idx):
        return [fan.rays[i] for i in idx]

    if any(abs(determinant(rows(cone))) != 1 for cone in cones):
        return False
    for tau, (rho, rho2) in facets.items():
        if determinant(rows(tau + (rho,))) * determinant(rows(tau + (rho2,))) > 0:
            return False
    w = [sum(col) for col in zip(*rows(fan.max_cones[0]))]
    holding = 0
    for cone in cones:
        inv, _ = inverse(rows(cone))  # w = sum_j (w inv)_j v_j
        holding += all(sum(x * row[j] for x, row in zip(w, inv)) >= 0 for j in range(n))
    return holding == 1


def star_cones(fan, center):
    """The max cones of fan's star subdivision along center, set by set: a
    cone sigma that holds the center's rays tau gives way to the sorted
    (sigma - {c}) + {e}, c in tau in ascending order, e = n_rays; any
    other cone stays."""
    tau = {fan.name_index[name] for name in center.ray_names}
    e = fan.n_rays
    cones = []
    for cone in fan.max_cones:
        if tau <= set(cone):
            cones += [tuple(sorted((set(cone) - {c}) | {e})) for c in sorted(tau)]
        else:
            cones.append(cone)
    return tuple(cones)


def product_fan(*fans):
    """The product of fans: each factor's rays padded with zeros into the
    product lattice and named with the factor's position (x0 of the second
    factor is x0_1), one max cone per choice of a max cone of each factor,
    and the factors' basis divisors padded with zeros, so a class's
    coordinates are the factors' coordinates in turn."""
    dims = [0, *accumulate(fan.dim for fan in fans)]
    starts = [0, *accumulate(fan.n_rays for fan in fans)]
    rays, names, basis = [], [], []
    for j, fan in enumerate(fans):
        rays += [(0,) * dims[j] + ray + (0,) * (dims[-1] - dims[j + 1]) for ray in fan.rays]
        names += [f"{name}_{j}" for name in fan.ray_names]
        pad = (0,) * (starts[-1] - starts[j + 1])
        basis += [(0,) * starts[j] + bd + pad for bd in fan.basis_divisors]
    return Fan(
        dim=dims[-1],
        ray_names=tuple(names),
        rays=tuple(rays),
        # each factor's rays come after the last factor's, so every cone is sorted
        max_cones=tuple(
            tuple(i + start for cone, start in zip(pick, starts) for i in cone)
            for pick in product(*(fan.max_cones for fan in fans))
        ),
        basis_tag="x".join(fan.basis_tag for fan in fans),
        basis_divisors=tuple(basis),
    )


def unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1 (n >= 2): the
    identity after eight random row additions, each adding -2, -1, 1 or 2
    times one row to another, with its rows then shuffled and some
    negated."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
    rng.shuffle(g)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in g]


def moved(fan, g):
    """A copy of fan with every ray v moved to g v: the same variety in
    another basis of the lattice, with the same names, cones, basis
    divisors and basis tag."""
    rays = tuple(tuple(sum(a * b for a, b in zip(row, ray)) for row in g) for ray in fan.rays)
    return replace(fan, rays=rays)


def star_subdivisions(fan, *centers):
    """fan blown up along each center in turn, each a set of ray names of
    the fan before it (star_subdivide names the new rays e, e2, e3, ...)."""
    for names in centers:
        fan = star_subdivide(fan, CenterSpec(frozenset(names)))
    return fan


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@cache
def _axis_basis(v):
    """A unimodular g, as a tuple of rows, with g v = (1, 0, ..., 0), for a
    primitive integer vector v: Euclid's algorithm on v's entries, each
    step a row operation on g, then a swap and a sign.  So g's first row is
    a character m with <m, v> = 1, and its other rows project the lattice
    onto N / Z v."""
    n = len(v)
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    w = list(v)
    while True:
        nonzero = [i for i in range(n) if w[i]]
        p = min(nonzero, key=lambda i: abs(w[i]))
        if len(nonzero) == 1:
            break
        for i in nonzero:
            if i != p:
                q = w[i] // w[p]
                w[i] -= q * w[p]
                g[i] = [x - q * y for x, y in zip(g[i], g[p])]
    if abs(w[p]) != 1:
        raise ValueError(f"{v} is not primitive")
    g[0], g[p] = g[p], g[0]
    g[0] = [w[p] * x for x in g[0]]
    return tuple(map(tuple, g))


@cache
def star_fan(fan, ray):
    """The fan of the divisor V(ray), the star of the ray (Cox-Little-
    Schenck, Toric Varieties, 3.2.7): the rays that share a max cone with
    it, in fan's order and with their names, projected to N / Z v_ray by
    _axis_basis, and the max cones through the ray, minus the ray.  Its
    basis divisors are the rays off its first max cone, a Z-basis of Pic
    on a smooth complete fan; its B^-1 is formed, and so it is checked,
    from scratch."""
    e = fan.name_index[ray]
    g = _axis_basis(fan.rays[e])
    through = [cone for cone in fan.max_cones if e in cone]
    star = sorted(set().union(*through) - {e})
    index = {rho: i for i, rho in enumerate(star)}
    cones = tuple(tuple(index[rho] for rho in cone if rho != e) for cone in through)
    unit = [tuple(int(i == j) for j in range(len(star))) for i in range(len(star))]
    return Fan(
        dim=fan.dim - 1,
        ray_names=tuple(fan.ray_names[rho] for rho in star),
        rays=tuple(tuple(_dot(row, fan.rays[rho]) for row in g[1:]) for rho in star),
        max_cones=cones,
        basis_tag=f"{fan.basis_tag}|V({ray})",
        basis_divisors=tuple(unit[i] for i in range(len(star)) if i not in cones[0]),
    )


def restrict(fan, ray, cls):
    """The class on star_fan(fan, ray) of a class of fan restricted to
    V(ray): its T-divisor sum_j c_j B_j of fan's basis divisors, plus the
    character that zeroes its coefficient on the ray (-a_ray times
    _axis_basis's first row), is sum_rho a_rho D_rho with a_ray = 0, and
    D_rho restricts to the divisor of rho's image when rho shares a cone
    with the ray, and to 0 otherwise."""
    star = star_fan(fan, ray)
    e = fan.name_index[ray]
    m = _axis_basis(fan.rays[e])[0]
    coeffs = [_dot(cls.coords, col) for col in zip(*fan.basis_divisors)]
    kept = map(fan.name_index.get, star.ray_names)
    return star.class_of_divisor([coeffs[i] - coeffs[e] * _dot(m, fan.rays[i]) for i in kept])
