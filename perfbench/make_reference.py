#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the frozen outputs the benchmark
checks every op against.

Run it only at a commit whose outputs are trusted, since the file it
writes defines "correct" for later commits:
    python3 perfbench/make_reference.py [--out FILE]

It constructs and certifies every case of the sweep family from an empty
disk cache and stores a SHA-256 digest of each Report.to_json(); it draws
the oracle-scan pool (a fixed generator seed, SCAN_POOL_PER_FAN distinct
classes per pool fan with coordinates in [-12, 12]) and stores each class's
h-vector and the lattice-point count of the box the oracle swept for it.
This takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile

from run import HERE, SRC, TMP_DIR, git_commit

from inputs import (
    KERNEL_CASES,
    SCAN_FANS,
    SCAN_POOL_FANS,
    SCAN_POOL_GENERATOR_SEED,
    SCAN_POOL_PER_FAN,
    SCAN_POOL_RADIUS,
    case_key,
    family_cases,
    report_digest,
    scan_blowups,
)


def sweep_reference(excol):
    os.makedirs(TMP_DIR, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="reference-", dir=TMP_DIR)
    os.environ["EXCOL_CACHE_DIR"] = cache
    out = []
    try:
        for spec, center in family_cases(excol.cli):
            report, err = excol.cli.run_case(spec, center)
            if err is not None:
                raise SystemExit(f"{case_key(spec, center)}: mutation aborted: {err}")
            out.append(
                {
                    "key": case_key(spec, center),
                    "digest": report_digest(report),
                    "all_passed": report.all_passed,
                }
            )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return out


def scan_entry(excol, fans, fan_name, coords):
    """h-vector of one class, with the box size the kernel was handed."""
    boxes = []
    kernel = excol.kernels.count_support_masks

    def counting(lo, hi, rays, coeffs):
        boxes.append(int((hi - lo + 1).prod()))
        return kernel(lo, hi, rays, coeffs)

    fan = fans[fan_name]
    excol.kernels.count_support_masks = counting
    try:
        h = excol.cohomology.cohomology_dims(fan, fan.pic_class(coords), cache=False)
    finally:
        excol.kernels.count_support_masks = kernel
    return {"fan": fan_name, "coords": list(coords), "box_points": sum(boxes), "h": list(h)}


def scan_reference(excol):
    fans = scan_blowups(excol.fan, SCAN_FANS)
    rng = random.Random(SCAN_POOL_GENERATOR_SEED)
    pool = []
    for name in SCAN_POOL_FANS:
        seen = set()
        while len(seen) < SCAN_POOL_PER_FAN:
            coords = tuple(rng.randint(-SCAN_POOL_RADIUS, SCAN_POOL_RADIUS) for _ in range(3))
            if coords not in seen:
                seen.add(coords)
                pool.append(scan_entry(excol, fans, name, coords))
    kernel_cases = [scan_entry(excol, fans, name, coords) for name, coords in KERNEL_CASES]
    return {"fans": {k: list(v) for k, v in SCAN_FANS.items()}, "pool": pool, "kernel_cases": kernel_cases}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    import excol.cli
    import excol.cohomology
    import excol.fan
    import excol.kernels

    doc = {
        "commit": git_commit(),
        "backend": excol.kernels.BACKEND,
        "scan": scan_reference(excol),
        "sweep": {"cases": sweep_reference(excol)},
    }
    with open(args.out, "w") as fh:
        fh.write(dumps_one_entry_per_line(doc) + "\n")


def dumps_one_entry_per_line(doc):
    """JSON with every entry of a list of cases on a line of its own."""
    if isinstance(doc, dict):
        body = ",\n".join(
            json.dumps(k) + ": " + dumps_one_entry_per_line(v) for k, v in sorted(doc.items())
        )
        return "{\n" + body + "\n}"
    if isinstance(doc, list) and doc and isinstance(doc[0], dict):
        return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in doc) + "\n]"
    return json.dumps(doc)


if __name__ == "__main__":
    main()
