#!/usr/bin/env python3
"""excol benchmark: cold and warm construct+certify sweeps, and an exact
oracle scan on large classes.

Usage (from the repository root):
    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Workloads:
  sweep-cold   construct + certify, as `excol sweep` does, a fixed 1-in-12
               sample of the s+r<=4, degree<=1 family (31 of its 362
               cases) in seeded order; every pass starts from an empty disk
               cache.  --full-family runs all 362 cases instead.
  sweep-warm   the same cases after one untimed pass has filled the cache.
  oracle-scan  exact h-vectors with the disk cache off (as `verify
               --no-cache`): each pass builds the scan fans afresh, draws
               one class from every stratum of a box-volume-sorted pool of
               600 classes with coordinates up to +-12, and adds the pool's
               largest class and the four kernel cases of
               benchmarks/bench_kernel.py.

One op is one construct+certify case (sweeps) or one h-vector (scan).  A
run repeats whole passes until the next one would end after --seconds, and
makes at least MIN_PASSES.  Every op's output is checked against
perfbench/reference.json: a mutation abort, a report that does not pass
every check, an exception or a mismatch with the reference fails the op.

Host speed.  The host's speed drifts (perfbench/hostspeed.py), so fixed
calibration loops are timed before every op and after the last, and every
time the benchmark reports is scaled by (the loops' nominal time) / (their
mean time just before and just after the op): times read as on the
nominal host.  setup_s is the package import in a fresh interpreter,
scaled by the loops timed in that interpreter, plus building the inputs.
The raw wall times are in the summary line too.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics (raw wall seconds): it runs every op of TRACE_PASSES passes twice
in a row, untraced and then traced (perfbench/tracing.py), so that
trace.overhead_s compares runs made at the same host speed; the spans go
to .bench_out/.  The last line of standard output is the JSON result; the
lines before it carry a stamp (commit, seed, versions, kernel backend,
cores) and a summary.  Each result is also appended to
.bench_out/results.jsonl, and a run whose kernel backend differs from the
previous run of the same workload there is flagged.  Exit code: 0 when
every op passed, 1 when any failed, 2 when the program cannot be imported.
"""

from __future__ import annotations

import os

# one thread per workload process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")

sys.path.insert(0, HERE)
from hostspeed import NOMINAL_S, HostSpeed  # noqa: E402
from inputs import (  # noqa: E402
    KERNEL_CASES,
    SCAN_FANS,
    SCAN_STRATUM,
    SWEEP_STRIDE,
    case_key,
    family_cases,
    report_digest,
    scan_blowups,
)

WORKLOADS = ("sweep-cold", "sweep-warm", "oracle-scan")
# fixed tail percentile per workload; MIN_PASSES (and, for sweep-warm, a
# run of 20 s) leaves at least 10 samples beyond it
TAIL_PERCENTILE = {"sweep-cold": 80, "sweep-warm": 99, "oracle-scan": 95}
MIN_PASSES = {"sweep-cold": 4, "sweep-warm": 1, "oracle-scan": 2}
# passes of a --trace 1 run (each op runs untraced, then traced)
TRACE_PASSES = {"sweep-cold": 1, "sweep-warm": 10, "oracle-scan": 1}
SETUP_REPEATS = 9
MAX_REPORTED_FAILURES = 5

# times the package import in a fresh interpreter, then a calibration loop
# there (argv: the perfbench directory)
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import excol, excol.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hostspeed\n"
    "print(t, hostspeed.probe_seconds())\n"
)


class ImportFailed(Exception):
    pass


def time_import():
    """Seconds a fresh interpreter takes to import the package, scaled to
    the nominal host by a calibration loop timed there right after."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, HERE],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise ImportFailed(proc.stderr.strip().splitlines()[-1:] or ["import failed"])
    import_s, loop_s = (float(x) for x in proc.stdout.split())
    return import_s * NOMINAL_S / loop_s


def git_commit():
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def disk_usage(root):
    files = size = 0
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            try:
                size += os.path.getsize(os.path.join(dirpath, name))
                files += 1
            except OSError:
                pass
    return files, size


class Sweep:
    """construct + certify cases through excol.cli.run_case, as `excol sweep`.

    A lane is a disk cache directory: a fresh one per pass and lane for the
    cold sweep, the one filled by prepare() for the warm sweep."""

    def __init__(self, excol, reference, seed, warm, full_family):
        self.excol = excol
        self.warm = warm
        cases = family_cases(excol.cli)
        if not full_family:
            cases = cases[::SWEEP_STRIDE]
        self.items = [(case_key(spec, center), spec, center) for spec, center in cases]
        random.Random(seed).shuffle(self.items)
        digests = {c["key"]: c["digest"] for c in reference["sweep"]["cases"]}
        self.expected = {key: digests.get(key) for key, _, _ in self.items}
        self.cache_root = None
        self.lanes = []
        self.passes = 0

    def prepare(self, cache_root):
        """For the warm sweep, fill the cache with one untimed pass.
        Returns the failures of that pass, one entry per op."""
        self.cache_root = cache_root
        if not self.warm:
            return []
        self.lanes = [self._cache_dir("warm")]
        return [self.check(item, self.call(item)) for item in self.items]

    def reset(self):
        pass

    def start_pass(self, lanes=1):
        if not self.warm:
            self.lanes = [self._cache_dir(f"cold-{self.passes}-{i}") for i in range(lanes)]
        else:
            self.lanes = self.lanes[:1] * lanes
        self.passes += 1
        return self.items

    def cache_dirs(self, lane):
        return [self.lanes[lane]]

    def _cache_dir(self, name):
        path = os.path.join(self.cache_root, name)
        os.makedirs(path, exist_ok=True)
        return path

    def call(self, item, lane=0):
        _key, spec, center = item
        os.environ["EXCOL_CACHE_DIR"] = self.lanes[lane]
        return self.excol.cli.run_case(spec, center)

    def check(self, item, out):
        key = item[0]
        report, err = out
        if err is not None:
            return f"{key}: mutation aborted: {err}"
        if not report.all_passed:
            return f"{key}: report does not pass every check"
        expected = self.expected[key]
        if expected is None:
            return f"{key}: no reference digest"
        if report_digest(report) != expected:
            return f"{key}: report differs from the reference"
        return None

    @staticmethod
    def label(item):
        return item[0]


class Scan:
    """Exact h-vectors through excol.cohomology.cohomology_dims, cache off.

    A lane is a set of freshly built fans, so no lane reuses another's
    per-fan memo or support-rank cache."""

    def __init__(self, excol, reference, seed):
        self.excol = excol
        self.seed = seed
        pool = sorted(
            reference["scan"]["pool"],
            key=lambda e: (e["box_points"], e["fan"], e["coords"]),
        )
        # the largest class runs in every pass, so peak memory does not
        # depend on the draw
        largest, pool = pool[-1], pool[:-1]
        cut = len(pool) // SCAN_STRATUM
        self.strata = [pool[i * SCAN_STRATUM : (i + 1) * SCAN_STRATUM] for i in range(cut)]
        self.strata[-1] = self.strata[-1] + pool[cut * SCAN_STRATUM :]
        kernel = {(e["fan"], tuple(e["coords"])): e for e in reference["scan"]["kernel_cases"]}
        self.fixed = [largest] + [kernel[(fan, tuple(c))] for fan, c in KERNEL_CASES]
        self.lanes = []
        self.reset()

    def prepare(self, cache_root):
        return []

    def reset(self):
        self.rng = random.Random(self.seed)

    def start_pass(self, lanes=1):
        self.lanes = [scan_blowups(self.excol.fan, SCAN_FANS) for _ in range(lanes)]
        draw = [self.rng.choice(stratum) for stratum in self.strata] + self.fixed
        self.rng.shuffle(draw)
        return draw

    def cache_dirs(self, lane):
        return []

    def call(self, entry, lane=0):
        fan = self.lanes[lane][entry["fan"]]
        return self.excol.cohomology.cohomology_dims(
            fan, fan.pic_class(entry["coords"]), cache=False
        )

    def check(self, entry, out):
        if list(out) != entry["h"]:
            return f"{self.label(entry)}: h = {list(out)}, reference {entry['h']}"
        return None

    @staticmethod
    def label(entry):
        return f"{entry['fan']} {tuple(entry['coords'])}"


class Outcome:
    """Ops attempted and failures, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, why):
        self.attempted += 1
        if why is not None:
            self.failures.append(why)
            if len(self.failures) <= MAX_REPORTED_FAILURES:
                print(f"FAIL {why}", file=sys.stderr)


def run_op(workload, item, outcome, lane=0):
    """One op, timed and checked; returns its raw wall time."""
    t0 = perf_counter()
    try:
        out = workload.call(item, lane)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
        elapsed = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        outcome.record(f"{workload.label(item)}: {type(exc).__name__}: {exc}")
        return elapsed
    elapsed = perf_counter() - t0
    outcome.record(workload.check(item, out))
    return elapsed


def run_timed(workload, seconds, min_passes, outcome, speed):
    """Whole passes, at least `min_passes`, until the next would end after
    `seconds`.  Returns (nominal op times, raw op times, raw pass times)."""
    raw, before, pass_s = [], [], []
    while True:
        t0 = perf_counter()
        for item in workload.start_pass():
            before.append(speed.sample())
            raw.append(run_op(workload, item, outcome))
        pass_s.append(perf_counter() - t0)
        busy = sum(pass_s)
        if len(pass_s) >= min_passes and busy + busy / len(pass_s) > seconds:
            break
    after = before[1:] + [speed.sample()]
    nominal = [r * speed.scale(b, a) for r, b, a in zip(raw, before, after)]
    return nominal, raw, pass_s


def percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def build_workload(name, excol, reference, seed, full_family):
    if name == "oracle-scan":
        return Scan(excol, reference, seed)
    return Sweep(excol, reference, seed, warm=name == "sweep-warm", full_family=full_family)


def timed_builds(speed, build):
    """Build the workload SETUP_REPEATS times; returns the last build and
    the median build time, scaled to the nominal host."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        t0 = perf_counter()
        workload = build()
        elapsed = perf_counter() - t0
        times.append(elapsed * speed.scale(before, speed.sample()))
    return workload, statistics.median(times)


def stamp(args, excol):
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "full_family": args.full_family,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "backend": excol.kernels.BACKEND,
        "nproc": os.cpu_count(),
    }


def log_result(path, record):
    """Append the record; flag a backend change against the previous run
    of the same workload in the same file."""
    previous = None
    try:
        with open(path) as fh:
            for line in fh:
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue
                if doc["stamp"]["workload"] == record["stamp"]["workload"]:
                    previous = doc
    except OSError:
        pass
    if previous is not None and previous["stamp"]["backend"] != record["stamp"]["backend"]:
        print(
            f"# WARNING: kernel backend {record['stamp']['backend']} differs from the "
            f"previous {record['stamp']['workload']} run ({previous['stamp']['backend']}, "
            f"commit {previous['stamp']['commit']}); their numbers are not comparable"
        )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference",
        default=os.path.join(HERE, "reference.json"),
        help="frozen outputs to check against",
    )
    parser.add_argument(
        "--full-family",
        action="store_true",
        help="sweep all 362 cases instead of the 1-in-12 sample",
    )
    parser.add_argument(
        "--results",
        default=os.path.join(OUT_DIR, "results.jsonl"),
        help="file the result is appended to",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.full_family and args.workload == "oracle-scan":
        print("error: --full-family applies to the sweeps", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "excol", "__init__.py")):
        print(f"error: no excol package under {SRC}", file=sys.stderr)
        return 2
    try:
        import_s = statistics.median(time_import() for _ in range(SETUP_REPEATS))
        sys.path.insert(0, SRC)
        import excol
        import excol.cli
        import excol.cohomology
        import excol.fan
        import excol.kernels
    except (ImportFailed, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: cannot import excol from {SRC}: {exc}", file=sys.stderr)
        return 2
    with open(args.reference) as fh:
        reference = json.load(fh)

    speed = HostSpeed()
    workload, build_s = timed_builds(
        speed,
        lambda: build_workload(args.workload, excol, reference, args.seed, args.full_family),
    )
    setup_s = import_s + build_s

    os.makedirs(TMP_DIR, exist_ok=True)
    cache_root = tempfile.mkdtemp(prefix="run-", dir=TMP_DIR)
    prep, measured = Outcome(), Outcome()
    try:
        for why in workload.prepare(cache_root):
            prep.record(why)
        if args.trace:
            metrics, summary = traced_run(args, workload, measured)
        else:
            metrics, summary = timed_run(args, workload, measured, speed)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass

    attempted = prep.attempted + measured.attempted
    failed = len(prep.failures) + len(measured.failures)
    error_rate = failed / attempted
    if args.trace:
        metrics["error_rate"] = (error_rate, "ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = stamp(args, excol)
    summary.update(
        error_rate=error_rate,
        setup_import_s=import_s,
        setup_build_s=build_s,
        host_loop_s_median=statistics.median(speed.samples),
    )
    log_result(args.results, {"stamp": info, "summary": summary, "result": result})
    print("# stamp " + json.dumps(info, sort_keys=True))
    print("# summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def timed_run(args, workload, outcome, speed):
    nominal, raw, pass_s = run_timed(
        workload, args.seconds, MIN_PASSES[args.workload], outcome, speed
    )
    p = TAIL_PERCENTILE[args.workload]
    tail = percentile(nominal, p)
    metrics = {
        "ops_per_s": (len(nominal) / sum(nominal), "1/s"),
        "op_p50_ms": (statistics.median(nominal) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    summary = {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "ops": len(nominal),
        "tail_percentile": p,
        "samples_beyond_tail": sum(1 for x in nominal if x > tail),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": percentile(raw, p) * 1e3,
    }
    return metrics, summary


def traced_run(args, workload, outcome):
    """Every op of TRACE_PASSES passes, untraced and then traced on a
    second lane; per-layer metrics from the traced copies."""
    from tracing import Tracer

    tracer = Tracer()
    untraced_wall = traced_wall = 0.0
    files = written = 0
    for _ in range(TRACE_PASSES[args.workload]):
        items = workload.start_pass(lanes=2)
        usage_before = [disk_usage(d) for d in workload.cache_dirs(lane=1)]
        for item in items:
            untraced_wall += run_op(workload, item, outcome, lane=0)
            tracer.case = workload.label(item)
            tracer.install()
            try:
                traced_wall += run_op(workload, item, outcome, lane=1)
            finally:
                tracer.uninstall()
        usage_after = [disk_usage(d) for d in workload.cache_dirs(lane=1)]
        for (f0, b0), (f1, b1) in zip(usage_before, usage_after):
            files += f1 - f0
            written += b1 - b0
    metrics = tracer.layer_metrics(traced_wall, untraced_wall, files, written)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    unattributed = metrics["trace.unattributed_s"][0]
    summary = {
        "passes": TRACE_PASSES[args.workload],
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "attributed_share": 1 - unattributed / traced_wall,
        "spans": os.path.relpath(spans_path, ROOT),
    }
    return metrics, summary


if __name__ == "__main__":
    sys.exit(main())
