"""In-memory span tracing around excol's public entry points.

The tracer is installed from outside the program: ``Tracer.install`` swaps
each traced function, in every loaded ``excol`` module that holds it, for a
wrapper that appends one span (name, start, end, parent, case id, payload)
to a list, and ``uninstall`` puts the originals back, so code run outside
the two calls is the program unchanged.  Nothing is written while spans
are recorded; ``write`` dumps them once at the end, and ``layer_metrics``
derives every per-layer number from the span list.

A span's self time is its duration minus the durations of its child spans.
Root spans (one per sweep case or per scan h-vector) cover everything the
program does, so the self times of all spans sum to the total root time;
``trace.unattributed_s`` is the traced wall time outside any root span.
Times here are raw wall seconds.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (span name, module holding the original, attribute path inside it)
TARGETS = (
    ("cli.run_case", "excol.cli", "run_case"),
    ("fan.make_blowup", "excol.fan", "make_blowup"),
    ("mutation.construct", "excol.mutation", "construct"),
    ("verify.certify", "excol.verify", "certify"),
    ("cohomology.cohomology_dims", "excol.cohomology", "cohomology_dims"),
    ("cohomology.DiskCache.get", "excol.cohomology", "DiskCache.get"),
    ("cohomology.DiskCache.put", "excol.cohomology", "DiskCache.put"),
    ("kernels.count_support_masks", "excol.kernels", "count_support_masks"),
    ("intlinalg.determinant", "excol.intlinalg", "determinant"),
)

MUTATION_RULES = (
    "transpose",
    "serre_rotate",
    "right_mutation_E_twist",
    "left_mutation_E_twist",
)

# span field positions
NAME, START, END, PARENT, CASE, PAYLOAD = range(6)


def _payload(name, args, out):
    """What a span keeps of its call for the metrics computed at the end."""
    if name == "kernels.count_support_masks":
        lo, hi, rays = args[0], args[1], args[2]
        return (lo, hi, len(rays), out[0])
    if name == "cohomology.DiskCache.get":
        return out is not None
    if name == "mutation.construct":
        return out[1].log
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._plan = None
        self.case = None

    def install(self):
        if self._plan is None:
            self._plan = self._make_plan()
        for holder, attr, _original, wrapper in self._plan:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original, _wrapper in self._plan or ():
            setattr(holder, attr, original)

    def _make_plan(self):
        """(holder, attribute, original, wrapper) for every place a traced
        entry point is reachable from: its module, the modules that import
        it by name, and the package namespace."""
        excol_modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "excol" or key.startswith("excol.")
        ]
        plan = []
        for name, module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # entry point gone from the program: its metrics read 0
            wrapper = self._wrap(name, original)
            holders = [owner] if owner_path else excol_modules
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    plan.append((holder, attr, original, wrapper))
        return plan

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            rec[PAYLOAD] = _payload(name, args, out)
            return out

        return traced

    def write(self, path):
        """Dump the spans as JSON lines (payloads summarised as numbers)."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, case, payload) in enumerate(self.spans):
                doc = {
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "case": case,
                }
                if name == "kernels.count_support_masks":
                    doc["box_points"] = _box_points(payload)
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")

    def layer_metrics(self, traced_wall_s, untraced_wall_s, disk_files, disk_bytes):
        spans = self.spans
        children = defaultdict(list)
        for i, rec in enumerate(spans):
            if rec[PARENT] >= 0:
                children[rec[PARENT]].append(i)

        calls = Counter()
        total = defaultdict(float)
        self_s = defaultdict(float)
        root_s = 0.0
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            calls[rec[NAME]] += 1
            total[rec[NAME]] += dur
            self_s[rec[NAME]] += dur - sum(
                spans[c][END] - spans[c][START] for c in children[i]
            )
            if rec[PARENT] < 0:
                root_s += dur

        memo = disk = miss = oracle_in_mutation = 0
        masks = points = ray_tests = 0
        steps = Counter()
        for i, rec in enumerate(spans):
            name = rec[NAME]
            if name == "cohomology.cohomology_dims":
                kids = [spans[c] for c in children[i]]
                if any(k[NAME] == "kernels.count_support_masks" for k in kids):
                    miss += 1
                elif any(k[NAME] == "cohomology.DiskCache.get" and k[PAYLOAD] for k in kids):
                    disk += 1
                else:
                    memo += 1
                if self._has_ancestor(i, "mutation.construct"):
                    oracle_in_mutation += 1
            elif name == "kernels.count_support_masks":
                box = _box_points(rec[PAYLOAD])
                points += box
                ray_tests += box * rec[PAYLOAD][2]
                masks += int(np.count_nonzero(rec[PAYLOAD][3]))
            elif name == "mutation.construct" and rec[PAYLOAD] is not None:
                steps.update(entry["rule"] for entry in rec[PAYLOAD])

        oracle_calls = calls["cohomology.cohomology_dims"]
        kernel_s = total["kernels.count_support_masks"]
        out = {
            "fan.make_blowup.calls": (calls["fan.make_blowup"], "count"),
            "fan.make_blowup.s": (total["fan.make_blowup"], "s"),
            "mutation.construct.calls": (calls["mutation.construct"], "count"),
            "mutation.construct.self_s": (self_s["mutation.construct"], "s"),
        }
        for rule in MUTATION_RULES:
            out[f"mutation.steps.{rule}"] = (steps[rule], "count")
        out.update(
            {
                "mutation.oracle_calls": (oracle_in_mutation, "count"),
                "cohomology.cohomology_dims.calls": (oracle_calls, "count"),
                "cohomology.cohomology_dims.self_s": (
                    self_s["cohomology.cohomology_dims"],
                    "s",
                ),
                "cohomology.memo_hits": (memo, "count"),
                "cohomology.disk_hits": (disk, "count"),
                "cohomology.misses": (miss, "count"),
                "cohomology.hit_ratio": (
                    (memo + disk) / oracle_calls if oracle_calls else 0.0,
                    "ratio",
                ),
                "cohomology.masks_visited": (masks, "count"),
                "cohomology.DiskCache.get.calls": (
                    calls["cohomology.DiskCache.get"],
                    "count",
                ),
                "cohomology.DiskCache.get.s": (total["cohomology.DiskCache.get"], "s"),
                "cohomology.DiskCache.put.calls": (
                    calls["cohomology.DiskCache.put"],
                    "count",
                ),
                "cohomology.DiskCache.put.s": (total["cohomology.DiskCache.put"], "s"),
                "cohomology.disk.files": (disk_files, "count"),
                "cohomology.disk.bytes_written": (disk_bytes, "bytes"),
                "kernels.count_support_masks.calls": (
                    calls["kernels.count_support_masks"],
                    "count",
                ),
                "kernels.count_support_masks.s": (kernel_s, "s"),
                "kernels.box_points": (points, "count"),
                "kernels.ray_tests": (ray_tests, "count"),
                "kernels.points_per_s": (points / kernel_s if kernel_s else 0.0, "1/s"),
                "verify.certify.calls": (calls["verify.certify"], "count"),
                "verify.certify.self_s": (self_s["verify.certify"], "s"),
                "intlinalg.determinant.calls": (calls["intlinalg.determinant"], "count"),
                "intlinalg.determinant.s": (total["intlinalg.determinant"], "s"),
                "cli.run_case.self_s": (self_s["cli.run_case"], "s"),
                "trace.spans": (len(spans), "count"),
                "trace.wall_s": (traced_wall_s, "s"),
                "trace.unattributed_s": (traced_wall_s - root_s, "s"),
                "trace.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
            }
        )
        return out

    def _has_ancestor(self, i, name):
        parent = self.spans[i][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False


def _box_points(payload):
    lo, hi = payload[0], payload[1]
    return int(np.prod(np.asarray(hi, dtype=np.int64) - np.asarray(lo, dtype=np.int64) + 1))
