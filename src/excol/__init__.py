"""Strong full exceptional collections of line bundles on blow-ups of
Picard-rank-two smooth projective toric varieties, constructed by mutation
replay and certified by exact cohomology computation."""

from .fan import (
    Blowup,
    BundleSpec,
    CenterGeometry,
    CenterSpec,
    Fan,
    PicClass,
    build_projective_bundle_fan,
    make_blowup,
    projective_space_fan,
    star_subdivide,
)
from .cohomology import cohomology_dims
from .mutation import (
    Collection,
    LineBundle,
    PushforwardTwist,
    collection_classes,
    construct,
)
from .splitcalc import (
    bott_dims,
    cohomology_on_bundle,
    ext_lemA,
    ext_line_to_pushforward,
    pushforward_levels,
)
from .verify import Report, certify, ext_table

__version__ = "0.1.0"

__all__ = [
    "Blowup",
    "BundleSpec",
    "CenterGeometry",
    "CenterSpec",
    "Collection",
    "Fan",
    "LineBundle",
    "PicClass",
    "PushforwardTwist",
    "Report",
    "bott_dims",
    "build_projective_bundle_fan",
    "certify",
    "cohomology_dims",
    "cohomology_on_bundle",
    "collection_classes",
    "construct",
    "ext_lemA",
    "ext_line_to_pushforward",
    "ext_table",
    "make_blowup",
    "projective_space_fan",
    "pushforward_levels",
    "star_subdivide",
]
