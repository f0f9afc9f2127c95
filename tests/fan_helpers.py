"""Test-only helpers built on the fan layer."""

from excol import build_projective_bundle_fan
from excol.fan import _center_indices, _geometry


def center_geometry(spec, center):
    """Base/fiber dimensions of Y, surviving summands, conormal classes;
    UnknownRay or NotACone unless the center is a cone of X."""
    _center_indices(build_projective_bundle_fan(spec), center)
    return _geometry(spec, center)
