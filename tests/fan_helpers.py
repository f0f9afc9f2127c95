"""Test-only helpers built on the fan layer."""

from itertools import combinations_with_replacement

from excol import build_projective_bundle_fan, cohomology_on_bundle
from excol.errors import NotACone, UnknownRay
from excol.fan import _geometry
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
