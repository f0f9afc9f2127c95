"""Certification of finished line-bundle collections.

Everything here is computed from the fan and the classes alone, through
the cohomology oracle, independently of the mutation engine's structured
formulas (which never call the oracle): pairwise graded Hom dimensions,
exceptionality, semiorthogonality, strongness, the length the fan's
maximal-cone count (the rank of K_0) demands, and the unimodular
upper-triangular Euler-Gram necessary condition for fullness.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .cohomology import cohomology_dims_many
from .errors import NonLineBundlePresent
from .fan import Fan, PicClass
from .intlinalg import determinant


def ext_table(fan: Fan, classes, cache=None):
    """n x n grid of graded Hom dimension vectors between line bundles, from
    one cohomology_dims_many batch; cache is a DiskCache, or None for no
    disk I/O."""
    for cls in classes:
        if not isinstance(cls, PicClass):
            raise NonLineBundlePresent(f"not a line bundle class: {cls!r}")
    n = len(classes)
    flat = cohomology_dims_many(fan, [b - a for a in classes for b in classes], cache)
    return [flat[i * n : (i + 1) * n] for i in range(n)]


@dataclass
class Report:
    exceptional: bool
    semiorthogonal: bool
    strong: bool
    gram: list
    gram_determinant: int
    length_expected: int
    length_actual: int
    violations: list = field(default_factory=list)
    provenance_hash: str = ""

    @property
    def all_passed(self):
        return (
            self.exceptional
            and self.semiorthogonal
            and self.strong
            and abs(self.gram_determinant) == 1
            and self.length_actual == self.length_expected
            and not any(v[0] == "gram" for v in self.violations)
        )

    def to_json(self):
        return {
            "exceptional": self.exceptional,
            "semiorthogonal": self.semiorthogonal,
            "strong": self.strong,
            "gram": self.gram,
            "gram_determinant": self.gram_determinant,
            "length_expected": self.length_expected,
            "length_actual": self.length_actual,
            "violations": [
                {"check": c, "row": i, "col": j, "hom": list(h)}
                for c, i, j, h in self.violations
            ],
            "provenance_hash": self.provenance_hash,
            "all_passed": self.all_passed,
        }


def certify(fan: Fan, classes, cache=None) -> Report:
    """Certify exceptionality, semiorthogonality, strongness, the length
    (one object per maximal cone of fan) and the Euler-Gram condition.
    Failures are report contents, never errors.

    cache is a DiskCache, or None (the default) for no disk I/O.
    """
    table = ext_table(fan, classes, cache=cache)
    n = len(classes)
    violations = []
    exceptional = True
    semiorthogonal = True
    strong = True
    identity = tuple([1] + [0] * fan.dim)
    for i in range(n):
        if table[i][i] != identity:
            exceptional = False
            violations.append(("exceptional", i, i, table[i][i]))
        for j in range(n):
            h = table[i][j]
            if i > j and any(h):
                semiorthogonal = False
                violations.append(("semiorthogonal", i, j, h))
            if i < j and any(h[1:]):
                strong = False
                violations.append(("strong", i, j, h))
    gram = [
        [sum((-1) ** d * x for d, x in enumerate(table[i][j])) for j in range(n)]
        for i in range(n)
    ]
    det = determinant(gram) if n else 1
    upper_unit = all(gram[i][i] == 1 for i in range(n)) and all(
        gram[i][j] == 0 for i in range(n) for j in range(i)
    )
    if not upper_unit:
        violations.append(("gram", -1, -1, ()))
    payload = json.dumps([list(c.coords) for c in classes])
    return Report(
        exceptional=exceptional,
        semiorthogonal=semiorthogonal,
        strong=strong,
        gram=gram,
        gram_determinant=det,
        length_expected=len(fan.max_cones),
        length_actual=n,
        violations=violations,
        provenance_hash=hashlib.sha256(payload.encode()).hexdigest(),
    )

