"""Certification of finished line-bundle collections.

Everything here is computed from the fan and the classes alone, through
the cohomology oracle, independently of the mutation engine's structured
formulas (which never call the oracle).  Each cell of the graded Hom table
gets one check: exceptionality on the diagonal, semiorthogonality below
it, strongness above it; each verdict flag says that no cell of its check
failed.  Each class is checked once, and cells share their Hom vector
with every cell of the same difference b - a, so each distinct vector is
computed (in one oracle pass), checked and summed once.  Together with
the length the fan's maximal-cone count (the rank of K_0) demands, the
three flags decide the report.  The Euler-Gram matrix and its determinant
are reported too; the first two flags already make it upper
unitriangular, the necessary condition for fullness.
"""

from __future__ import annotations

import hashlib
import json

from .cohomology import _class_coords, _dims_of_coords
from .fan import Fan, _Record
from .intlinalg import determinant


def _hom_batch(fan: Fan, classes, cache):
    """(grid, homs): homs holds the graded Hom dimension vectors of the
    distinct differences b - a of the checked classes, from one oracle pass
    over their coordinates, and grid[i][j] indexes Hom(classes[i], classes[j]).
    Row i's differences are formed a coordinate column at a time; homs is
    in row-major first-seen order."""
    coords = [_class_coords(fan, cls) for cls in classes]
    cols, index = list(zip(*coords)), {}
    rows = (zip(*[[x - y for x in col] for col, y in zip(cols, a)]) for a in coords)
    grid = [[index.setdefault(d, len(index)) for d in row] for row in rows]
    return grid, _dims_of_coords(fan, list(index), cache)


def ext_table(fan: Fan, classes, cache=None):
    """n x n grid of graded Hom dimension vectors between line bundles, from
    one oracle pass over the distinct differences; cache is a DiskCache, or
    None for no disk I/O."""
    grid, homs = _hom_batch(fan, classes, cache)
    return [[homs[k] for k in row] for row in grid]


class Report(_Record):
    """certify's verdict; mutable and unhashable, unlike the other records.
    violations defaults to a fresh list per report."""

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        exceptional: bool,
        semiorthogonal: bool,
        strong: bool,
        gram: list,
        gram_determinant: int,
        length_expected: int,
        length_actual: int,
        violations: list | None = None,
        provenance_hash: str = "",
    ):
        self.exceptional = exceptional
        self.semiorthogonal = semiorthogonal
        self.strong = strong
        self.gram = gram
        self.gram_determinant = gram_determinant
        self.length_expected = length_expected
        self.length_actual = length_actual
        self.violations = [] if violations is None else violations
        self.provenance_hash = provenance_hash

    @property
    def all_passed(self):
        return (
            self.exceptional
            and self.semiorthogonal
            and self.strong
            and self.length_actual == self.length_expected
        )

    def to_json(self):
        violations = [
            {"check": c, "row": i, "col": j, "hom": list(h)} for c, i, j, h in self.violations
        ]
        doc = {name: getattr(self, name) for name in self._fields}
        return doc | {"violations": violations, "all_passed": self.all_passed}


def certify(fan: Fan, classes, cache=None) -> Report:
    """Certify exceptionality, semiorthogonality, strongness and the length
    (one object per maximal cone of fan), and report the Euler-Gram matrix.
    Failures are report contents, never errors.

    cache is a DiskCache, or None (the default) for no disk I/O.
    """
    grid, homs = _hom_batch(fan, classes, cache)
    n = len(classes)
    # the distinct h (by index) failing their check as a diagonal cell, below it, above it
    not_exc = [h[0] != 1 or any(h[1:]) for h in homs]
    not_semi = {k for k, h in enumerate(homs) if any(h)}
    not_strong = {k for k, h in enumerate(homs) if any(h[1:])}
    violations = []
    for i, row in enumerate(grid):  # the diagonal cell first, then j < i, then j > i
        if not_exc[row[i]]:
            violations.append(("exceptional", i, i, homs[row[i]]))
        # a side's cells are listed one by one only when one of them fails
        for check, bad, lo, hi in (
            ("semiorthogonal", not_semi, 0, i),
            ("strong", not_strong, i + 1, n),
        ):
            if not bad.isdisjoint(row[lo:hi]):
                violations += [(check, i, j, homs[row[j]]) for j in range(lo, hi) if row[j] in bad]
    euler = [sum(h[::2]) - sum(h[1::2]) for h in homs]
    gram = [[euler[k] for k in row] for row in grid]
    if any(row[i] != 1 or any(row[:i]) for i, row in enumerate(gram)):
        violations.append(("gram", -1, -1, ()))
    failed = {v[0] for v in violations}
    payload = json.dumps([list(c.coords) for c in classes])
    return Report(
        exceptional="exceptional" not in failed,
        semiorthogonal="semiorthogonal" not in failed,
        strong="strong" not in failed,
        gram=gram,
        gram_determinant=determinant(gram) if "gram" in failed else 1,
        length_expected=len(fan.max_cones),
        length_actual=n,
        violations=violations,
        provenance_hash=hashlib.sha256(payload.encode()).hexdigest(),
    )

