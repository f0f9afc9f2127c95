"""Workload inputs shared by the benchmark and its reference generator.

Everything here is a fixed definition; the per-run seed only orders and
draws from it (see run.py).
"""

from __future__ import annotations

import hashlib
import json

# The headline sweep family: s + r <= 4, fiber degrees <= 1, both codims.
FAMILY_MAX_DIM = 4
FAMILY_MAX_DEGREE = 1
FAMILY_CODIMS = (2, 3)

# Sweep workloads run every SWEEP_STRIDE-th case of the family (in
# enumeration order, which groups cases by spec), a fixed sample whose
# cold cost per case matches the whole family's.
SWEEP_STRIDE = 12

# oracle-scan fans: name -> (base dim s, fiber degrees, center rays)
SCAN_FANS = {
    "P2-O012-b1f1": (2, (0, 1, 2), ("b1", "f1")),
    "P1-O0111-b1f1": (1, (0, 1, 1, 1), ("b1", "f1")),
    "P3-O01-b1b2f1": (3, (0, 1), ("b1", "b2", "f1")),
    # fans of the kernel cases in benchmarks/bench_kernel.py
    "P1-O00-b1f1": (1, (0, 0), ("b1", "f1")),
    "P2-O00-b1b2f1": (2, (0, 0), ("b1", "b2", "f1")),
}
SCAN_POOL_FANS = ("P2-O012-b1f1", "P1-O0111-b1f1", "P3-O01-b1b2f1")
SCAN_POOL_PER_FAN = 200
SCAN_POOL_RADIUS = 12
SCAN_POOL_GENERATOR_SEED = 20170217
# the four kernel cases of benchmarks/bench_kernel.py; every scan pass runs them
KERNEL_CASES = (
    ("P1-O00-b1f1", (6, 6, -3)),
    ("P2-O00-b1b2f1", (4, -5, 2)),
    ("P2-O012-b1f1", (-6, 6, 1)),
    ("P2-O012-b1f1", (8, -8, -2)),
)
# pool classes sorted by box volume are cut into strata of this size; each
# scan pass draws one class per stratum
SCAN_STRATUM = 5


def family_cases(cli):
    """Every (spec, center) of the family, in `excol sweep` order."""
    return [
        (spec, center)
        for spec in cli.enumerate_specs(FAMILY_MAX_DIM, FAMILY_MAX_DEGREE)
        for codim in FAMILY_CODIMS
        for center in cli.enumerate_centers(spec, codim)
    ]


def case_key(spec, center):
    degrees = ",".join(str(a) for a in spec.fiber_degrees)
    return f"s={spec.s} a={degrees} center={','.join(sorted(center.ray_names))}"


def report_digest(report):
    text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def scan_blowups(excol_fan, names):
    """Fresh blow-ups (fresh per-fan memo and rank caches) of the named fans."""
    out = {}
    for name in names:
        s, degrees, rays = SCAN_FANS[name]
        spec = excol_fan.BundleSpec(s=s, fiber_degrees=degrees)
        out[name] = excol_fan.make_blowup(spec, excol_fan.CenterSpec(frozenset(rays))).fan_xt
    return out
