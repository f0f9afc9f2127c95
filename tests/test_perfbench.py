"""The benchmark's entry points (perfbench/run.py) against the package: a
change to excol that breaks what the benchmark reads fails here."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import excol
import excol.cli
import excol.cohomology
import excol.fan
import excol.kernels

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py imported without running main, with the process
    environment and sys.path it changes restored afterwards."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sweep-cold", "sweep-warm", "oracle-scan"])
def test_each_workload_runs_one_op_that_matches_the_reference(bench, tmp_path, monkeypatch, name):
    """Each workload builds, prepares its cache under tmp_path, and runs one
    op of its first pass, which passes the check against reference.json;
    the stamp reads the kernel backend."""
    monkeypatch.setenv("EXCOL_CACHE_DIR", str(tmp_path))  # the sweeps set it per lane
    reference = json.loads((PERFBENCH_DIR / "reference.json").read_text())
    workload = bench.build_workload(name, excol, reference, seed=1, full_family=False)
    prep, outcome = bench.Outcome(), bench.Outcome()
    for why in workload.prepare(str(tmp_path)):
        prep.record(why)
    assert prep.failures == []
    item = workload.start_pass()[0]
    bench.run_op(workload, item, outcome)
    assert (outcome.attempted, outcome.failures) == (1, [])
    args = bench.parse_args(["--workload", name, "--seed", "1", "--seconds", "1"])
    info = bench.stamp(args, excol)
    assert info["backend"] == excol.kernels.BACKEND and info["workload"] == name
