#!/usr/bin/env python3
"""Summarise benchmark results and compare two sets of runs.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds the records run.py appends to .bench_out/results.jsonl.
For every workload and metric it prints the run count, the median and the
quartile spread (Q3 - Q1) / median; given a second file, also the ratio of
the medians.  Runs whose kernel backend differs are flagged, because their
numbers measure different code paths.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    groups = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            doc = json.loads(line)
            groups[(doc["stamp"]["workload"], doc["stamp"]["trace"])].append(doc)
    return groups


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv]
    backends = {d["stamp"]["backend"] for g in sets for runs in g.values() for d in runs}
    if len(backends) > 1:
        print(f"WARNING: runs use different kernel backends {sorted(backends)}")
    for key in sorted(sets[0]):
        runs = sets[0][key]
        other = sets[1].get(key, []) if len(sets) > 1 else []
        failed = sum(d["result"]["failed"] for d in runs + other)
        print(f"\n{key[0]} trace={key[1]}  runs={len(runs)}/{len(other)}  failed ops={failed}")
        for metric in sorted(runs[0]["result"]["metrics"]):
            base = [d["result"]["metrics"][metric]["value"] for d in runs]
            unit = runs[0]["result"]["metrics"][metric]["unit"]
            med, spread = stats(base)
            line = f"  {metric:<40}{med:>14.6g} {unit:<6} spread {spread:6.1%}"
            if other:
                omed, ospread = stats([d["result"]["metrics"][metric]["value"] for d in other])
                ratio = omed / med if med else float("nan")
                line += f"  | {omed:>14.6g} spread {ospread:6.1%}  ratio {ratio:.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
