"""Test-only helpers built on the cohomology oracle."""

from excol import cohomology_dims


def euler_pairing(fan, a, b):
    """chi(a, b) = sum (-1)^i dim Ext^i(a, b) = chi(b - a)."""
    h = cohomology_dims(fan, b - a)
    return sum((-1) ** i * x for i, x in enumerate(h))
