import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import excol
from excol import BundleSpec, CenterSpec, cli, kernels, make_blowup
from excol import fan as fan_module
from excol.cli import default_cache_dir
from excol.cohomology import DiskCache
from excol.errors import InvalidSpec, MutationError
from excol.verify import certify
from fan_helpers import replace


def run(args):
    return cli.main(args)


def test_construct_writes_collection(tmp_path, capsys):
    out = tmp_path / "col.json"
    code = run(
        [
            "construct",
            "--base-dim",
            "1",
            "--fiber-degrees",
            "0,0",
            "--center",
            "b1,f1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["objects"]) == 5
    assert doc["spec"] == {"base_dim": 1, "fiber_degrees": [0, 0]}
    assert doc["center"] == ["b1", "f1"]
    assert all("rule" in entry for entry in doc["log"])


def test_construct_then_verify_roundtrip(tmp_path):
    col = tmp_path / "col.json"
    rep = tmp_path / "report.json"
    assert (
        run(
            [
                "construct",
                "--base-dim",
                "2",
                "--fiber-degrees",
                "0,0",
                "--center",
                "b1,b2,f1",
                "--out",
                str(col),
            ]
        )
        == 0
    )
    assert run(["verify", "--collection", str(col), "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["all_passed"] is True
    assert doc["length_actual"] == 8


def test_verify_detects_tampering(tmp_path, capsys):
    col = tmp_path / "col.json"
    run(
        [
            "construct",
            "--base-dim",
            "1",
            "--fiber-degrees",
            "0,0",
            "--center",
            "b1,f1",
            "--out",
            str(col),
        ]
    )
    doc = json.loads(col.read_text())
    doc["objects"][0], doc["objects"][2] = doc["objects"][2], doc["objects"][0]
    col.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["--no-cache", "verify", "--collection", str(col)]) == 1
    # the failing report, violations and all, as json.dumps writes it
    fan = make_blowup(BundleSpec(1, (0, 0)), CenterSpec(frozenset({"b1", "f1"}))).fan_xt
    report = certify(fan, [fan.pic_class((o["alpha"], o["beta"], o["k"])) for o in doc["objects"]])
    assert report.violations
    assert capsys.readouterr().out == _indented(report.to_json())


def test_verify_ignores_planted_cache(tmp_path, monkeypatch):
    """verify certifies from scratch: a wrong h-vector planted in the disk
    cache for every pairwise class difference changes nothing."""
    monkeypatch.setenv("EXCOL_CACHE_DIR", str(tmp_path / "cache"))
    col = tmp_path / "col.json"
    args = ["construct", "--base-dim", "1", "--fiber-degrees", "0,1", "--center", "b1,f1"]
    assert run(args + ["--out", str(col)]) == 0
    clean, planted = tmp_path / "clean.json", tmp_path / "planted.json"
    shutil.rmtree(tmp_path / "cache", ignore_errors=True)
    assert run(["verify", "--collection", str(col), "--out", str(clean)]) == 0

    doc = json.loads(col.read_text())
    fan = make_blowup(BundleSpec(1, (0, 1)), CenterSpec(frozenset({"b1", "f1"}))).fan_xt
    classes = [fan.pic_class((o["alpha"], o["beta"], o["k"])) for o in doc["objects"]]
    disk = DiskCache(default_cache_dir())
    wrong = (99,) + (0,) * fan.dim
    disk.put(fan, {(b - a).coords: wrong for a in classes for b in classes})
    assert disk.get(fan)[(classes[0] - classes[0]).coords] == wrong

    assert run(["verify", "--collection", str(col), "--out", str(planted)]) == 0
    assert planted.read_text() == clean.read_text()


def _indented(doc):
    """What _dump writes for doc: the reference writer, json's pure-Python
    indenting encoder."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        "a",
        0,
        None,
        {"b": [], "a": {}, "c": [[], {}, [[]], [{}]], "d": {"e": {"f": []}}},
        [1, [2, [3, []]], {"x": 1.5, "y": [True, False, None]}, (4, (5,))],
        {
            "\u00e9\n\"\\": "tab\t\u2603 \ud83d\ude00",
            "k": ["\x00", "</script>"],
            "z": {"\u2603": -1e300},
        },
    ],
    ids=["empty dict", "empty list", "empty tuple", "string", "int", "null", "empty containers",
         "nested lists", "escaped strings"],
)
def test_dump_writes_what_json_dumps_writes(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    cli._dump(doc, str(path))
    cli._dump(doc, None)
    assert path.read_text() == capsys.readouterr().out == _indented(doc)


def test_construct_documents_are_written_as_json_dumps_writes(capsys):
    """Every 4/1 construct document and the S = 40 b1,f1 one (a log of 820
    entries) print byte for byte as json.dumps(..., indent=2) does."""
    cases = [
        (spec, center)
        for spec in cli.enumerate_specs(4, 1)
        for codim in (2, 3)
        for center in cli.enumerate_centers(spec, codim)
    ]
    assert len(cases) == 362
    cases.append((BundleSpec(40, (0, 0)), CenterSpec(frozenset({"b1", "f1"}))))
    for spec, center in cases:
        doc = cli._collection_doc(*cli.construct(spec, center))
        cli._dump(doc, None)
        assert capsys.readouterr().out == _indented(doc)
    assert len(doc["log"]) == 820


def _write_collection(path, base_dim, fiber_degrees, center, alphas):
    objects = [{"kind": "line", "alpha": a, "beta": a, "k": 0} for a in alphas]
    doc = {
        "spec": {"base_dim": base_dim, "fiber_degrees": fiber_degrees},
        "center": center,
        "objects": objects,
    }
    path.write_text(json.dumps(doc))


BUDGET_ERROR = (
    r"^error: T-divisor \(.*\), support set \d+: polytope box lo=.* points \(budget 100000000\)$"
)
GUARD_ERROR = (
    r"^error: T-divisor \(.*\): values bounded by \d+ \(int64 limit 9223372036854775807\)$"
)


@pytest.mark.parametrize(
    "base_dim, fiber_degrees, center, alpha",
    [
        (2, [0, 1, 2], ["b1", "f1"], 100),  # 9.2e8 points in P_0's box
        (1, [0, 0], ["b1", "f1"], 10**30),  # coefficients beyond int64
        (2, [0, 1, 2], ["b1", "f1"], 10**17),  # guard passed, box over budget
        (2, [0, 1, 2], ["b1", "f1"], 2 * 10**18),  # past the guard
        (26, [0, 0], ["b1", "f1"], 1),  # 2^27 points in P_0's box, dim 27
    ],
)
def test_verify_huge_class_exit_2(tmp_path, capsys, base_dim, fiber_degrees, center, alpha):
    col = tmp_path / "col.json"
    _write_collection(col, base_dim, fiber_degrees, center, [0, alpha])
    t0 = time.perf_counter()
    assert run(["verify", "--collection", str(col)]) == 2
    assert time.perf_counter() - t0 < 1.0
    past_guard = alpha in (10**30, 2 * 10**18)
    assert re.match(GUARD_ERROR if past_guard else BUDGET_ERROR, capsys.readouterr().err)


def test_verify_large_class_gets_a_verdict(tmp_path, capsys):
    """A class whose arrangement box is over the point budget, but none of
    whose polytope boxes is (the largest holds 5.9e7 points), is certified
    within a second: a two-object collection fails its length check."""
    col = tmp_path / "col.json"
    _write_collection(col, 2, [0, 1, 2], ["b1", "f1"], [0, 50])
    t0 = time.perf_counter()
    assert run(["verify", "--collection", str(col)]) == 1
    assert time.perf_counter() - t0 < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["length_actual"], doc["length_expected"]) == (2, 13)


def test_verify_huge_class_stderr(tmp_path, capsys):
    """The one stderr line of a class whose polytope box is over budget."""
    col = tmp_path / "col.json"
    _write_collection(col, 2, [0, 1, 2], ["b1", "f1"], [0, 10**17])
    assert run(["verify", "--collection", str(col)]) == 2
    assert capsys.readouterr().err == (
        "error: T-divisor (0, 100000000000000000, 0, 100000000000000000, 0, 0, "
        "100000000000000000), support set 0: polytope box lo=[-100000000000000000, "
        "0, 0, 0] hi=[200000000000000000, 300000000000000000, 100000000000000000, "
        "100000000000000000]: "
        "900000000000000024000000000000000220000000000000000800000000000000001 "
        "points (budget 100000000)\n"
    )


# O + O(2^70) over P^1 blown up along b1,f1: its vertex maps leave int64
HUGE_FAN_ERROR = (
    "fan X(s=1,a=(0, 1180591620717411303424))+E: vertex maps reach "
    "2787593149816327892694325967322480010854400 (int64 limit 9223372036854775807)"
)


def test_verify_vertex_maps_past_int64_exit_2(tmp_path, capsys):
    """A fan the oracle cannot hold in int64 is one error line and exit 2,
    not an OverflowError traceback."""
    col = tmp_path / "col.json"
    _write_collection(col, 1, [0, 2**70], ["b1", "f1"], [0])
    assert run(["verify", "--collection", str(col)]) == 2
    assert capsys.readouterr().err == f"error: {HUGE_FAN_ERROR}\n"


def test_verify_a_64_ray_fan_exit_2(tmp_path, capsys):
    """P^60 x P^1 blown up along b1, f1 has 64 rays, more than an int64 bit
    mask holds.  Its collection is constructed, and verify names the
    first polytope box over budget in one error line and exits 2, with no
    traceback."""
    col = tmp_path / "col.json"
    args = ["--base-dim", "60", "--fiber-degrees", "0,0", "--center", "b1,f1"]
    assert run(["construct", *args, "--out", str(col)]) == 0
    capsys.readouterr()
    assert run(["verify", "--collection", str(col)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and re.match(BUDGET_ERROR, err), err
    assert "Traceback" not in err


def test_sweep_aborts_a_fan_past_int64(capsys, monkeypatch):
    """In a sweep the same fan is an ABORT row and a failure."""
    monkeypatch.setattr(cli, "enumerate_specs", lambda *_: [BundleSpec(1, (0, 2**70))])
    assert run(["sweep", "--max-dim", "2", "--max-degree", "0", "--codim", "2"]) == 1
    out, err = capsys.readouterr()
    rows = [line for line in out.splitlines() if "center" not in line and "---" not in line]
    assert rows and all(line.split()[-2:-1] == ["ABORT"] for line in rows)
    assert f"s=1 a=[0, 1180591620717411303424] center=b1,f1: {HUGE_FAN_ERROR}\n" in err


@pytest.mark.parametrize("alpha", [1.5, 1.0, True, "1"])
def test_verify_non_integer_class_exit_2(tmp_path, capsys, alpha):
    col = tmp_path / "col.json"
    _write_collection(col, 1, [0, 0], ["b1", "f1"], [0, alpha])
    assert run(["verify", "--collection", str(col)]) == 2
    assert "must be integers" in capsys.readouterr().err


GOOD_COLLECTION = {
    "spec": {"base_dim": 1, "fiber_degrees": [0, 0]},
    "center": ["b1", "f1"],
    "objects": [{"kind": "line", "alpha": 0, "beta": 0, "k": 0}],
}


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(dict(GOOD_COLLECTION, spec={"base_dim": 1, "fiber_degrees": [0, 1.5]})),
        json.dumps(dict(GOOD_COLLECTION, spec={"base_dim": 1.9, "fiber_degrees": [0, 0]})),
        json.dumps(dict(GOOD_COLLECTION, spec={"base_dim": True, "fiber_degrees": [0, 0]})),
        json.dumps(dict(GOOD_COLLECTION, spec={"base_dim": 1, "fiber_degrees": 0})),
        json.dumps(dict(GOOD_COLLECTION, center="b1,f1")),
        json.dumps(dict(GOOD_COLLECTION, objects=3)),
        json.dumps(dict(GOOD_COLLECTION, objects=["line"])),
        json.dumps([GOOD_COLLECTION]),
        "[" * 100_000,
        json.dumps(dict(GOOD_COLLECTION, objects=[{"kind": "push", "alpha": 0, "beta": 0, "k": 1}])),
    ],
    ids=[
        "float degree",
        "float base_dim",
        "bool base_dim",
        "integer degrees",
        "string center",
        "integer objects",
        "string object",
        "top-level list",
        "nested past the recursion limit",
        "pushforward object",
    ],
)
def test_verify_malformed_collection_exit_2(tmp_path, capsys, text):
    """A file of the wrong shape or with non-integer spec values is invalid
    input, reported in one line, never truncated or certified."""
    col = tmp_path / "col.json"
    col.write_text(text)
    assert run(["verify", "--collection", str(col)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["construct", "verify", "sweep"])
def test_unwritable_output_exit_2(tmp_path, capsys, monkeypatch, command):
    """An output path under a regular file is one error line and exit 2, not
    an OSError traceback: construct --out, verify --out of a passing
    collection, and a sweep whose cache directory cannot be created, which
    fails before its header."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    col = tmp_path / "col.json"
    construct = ["construct", "--base-dim", "1", "--fiber-degrees", "0,0", "--center", "b1,f1"]
    assert run(construct + ["--out", str(col)]) == 0
    monkeypatch.setenv("EXCOL_CACHE_DIR", str(blocker / "cache"))
    args = {
        "construct": construct + ["--out", str(blocker / "col.json")],
        "verify": ["verify", "--collection", str(col), "--out", str(blocker / "report.json")],
        "sweep": ["sweep", "--max-dim", "2", "--max-degree", "0", "--codim", "2"],
    }[command]
    capsys.readouterr()
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "base_dim, degrees, center, message",
    [
        ("1", "1,0", "b1,f1", "a_0 = 0"),
        ("1", "0,0", "b0,b1", "do not span a cone"),
        ("1", "0,0", "b1,f9", "f9"),
        ("1", "0,x", "b1,f1", "invalid literal for int()"),
        ("201", "0,0", "b1,f1", "past the cap of 201"),
    ],
    ids=[
        "unnormalized degrees", "center not a cone", "unknown ray", "non-integer degree",
        "past the cap",
    ],
)
def test_construct_invalid_input_exit_2(capsys, base_dim, degrees, center, message):
    """Invalid construct input is exit 2, nothing on stdout and one error
    line naming the fault."""
    args = ["--base-dim", base_dim, "--fiber-degrees", degrees, "--center", center]
    code = run(["construct", *args])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize("command", ["construct", "verify", "sweep"])
def test_past_the_cap_exit_2_before_a_fan_is_built(tmp_path, capsys, monkeypatch, command):
    """construct --base-dim 201, a collection file with base_dim 201 and
    sweep --max-dim 202 ask for an X of dimension 202, past MAX_DIM: each is
    one error line and exit 2, and no fan is built."""
    built = []
    monkeypatch.setattr(fan_module, "build_projective_bundle_fan", built.append)
    monkeypatch.setattr(cli, "build_projective_bundle_fan", built.append)
    col = tmp_path / "col.json"
    _write_collection(col, 201, [0, 0], ["b1", "f1"], [0])
    args = {
        "construct": [
            "construct", "--base-dim", "201", "--fiber-degrees", "0,0", "--center", "b1,f1"
        ],
        "verify": ["verify", "--collection", str(col)],
        "sweep": ["sweep", "--max-dim", "202", "--max-degree", "0"],
    }[command]
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: dimension s + r = 202 is past the cap of 201\n"
    assert built == []


def test_the_cap_admits_dimension_201():
    """s + r = 201 passes the check whichever summand is large, and one
    more in either does not; only the parsed specs are checked."""
    assert cli.MAX_DIM == 201
    cli._check_dim(201)  # sweep --max-dim 201
    for s, r in [(200, 1), (1, 200)]:
        spec, center = cli._case(s, [0] * (r + 1), ["b1", "f1"])
        assert spec == BundleSpec(s, (0,) * (r + 1)) and spec.dim == 201
        assert center == CenterSpec(frozenset({"b1", "f1"}))
        for past in [(s + 1, r), (s, r + 1)]:
            with pytest.raises(InvalidSpec, match="s \\+ r = 202 is past the cap of 201"):
                cli._case(past[0], [0] * (past[1] + 1), ["b1", "f1"])


def test_verify_missing_file_exit_2(tmp_path):
    assert run(["verify", "--collection", str(tmp_path / "nope.json")]) == 2


def test_mutation_failure_exit_3(tmp_path, monkeypatch, capsys):
    def boom(spec, center):
        raise MutationError("scripted failure", log=({"rule": "transpose"},))

    monkeypatch.setattr(cli, "construct", boom)
    out = tmp_path / "fail.json"
    code = run(
        [
            "construct",
            "--base-dim",
            "1",
            "--fiber-degrees",
            "0,0",
            "--center",
            "b1,f1",
            "--out",
            str(out),
        ]
    )
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["error"] == "scripted failure"
    assert doc["log"] == [{"rule": "transpose"}]
    assert out.read_text() == _indented(doc)


def test_exit_3_log_is_written_as_json_dumps_writes(tmp_path, monkeypatch):
    """The exit-3 document of a real replay log, nested pairs and Hom
    vectors included."""
    log = cli.construct(BundleSpec(2, (0, 1)), CenterSpec(frozenset({"b1", "b2", "f1"})))[1].log

    def boom(spec, center):
        raise MutationError("planted failure", log=log)

    monkeypatch.setattr(cli, "construct", boom)
    out = tmp_path / "fail.json"
    args = ["construct", "--base-dim", "2", "--fiber-degrees", "0,1", "--center", "b1,b2,f1"]
    assert run([*args, "--out", str(out)]) == 3
    assert out.read_text() == _indented({"error": "planted failure", "log": list(log)})


# In a fresh interpreter: which of dataclasses, inspect and numpy are loaded
# after importing the CLI, then (exit code, those loaded) after each argv of
# sys.argv[1].
MODULES_PROBE = """
import json, sys
import excol, excol.cli
watched = ("dataclasses", "inspect", "numpy")
def loaded():
    return [name for name in watched if name in sys.modules]
seen = [loaded()]
for argv in json.loads(sys.argv[1]):
    seen.append([excol.cli.main(argv), loaded()])
print(json.dumps(seen))
"""


def _loaded_after(argvs, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(excol.__file__).parent.parent),
        EXCOL_CACHE_DIR=str(tmp_path / "cache"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, json.dumps(argvs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_numpy_loads_only_when_a_class_is_computed(tmp_path):
    """Importing the package and its CLI, construct, and a sweep whose
    h-vectors an earlier process left on disk load no numpy; the first
    sweep, which fills the cache, and the same sweep with --no-cache do, so
    the probe sees numpy when it is there.  No run loads dataclasses, and
    only numpy's own import loads inspect."""
    construct = ["construct", "--base-dim", "2", "--fiber-degrees", "0,1", "--center", "b1,f1",
                 "--out", str(tmp_path / "col.json")]
    sweep = ["sweep", "--max-dim", "2", "--max-degree", "1", "--codim", "2"]
    computed = ["inspect", "numpy"]
    assert _loaded_after([construct, sweep], tmp_path) == [[], [0, []], [0, computed]]
    assert _loaded_after([sweep, ["--no-cache", *sweep]], tmp_path) == [
        [], [0, []], [0, computed]
    ]


def _time_cli():
    """tools/time_cli.py, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / "time_cli.py"
    spec = importlib.util.spec_from_file_location("time_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_cli_reports_both_trees(capsys):
    """tools/time_cli.py runs one excol argv in fresh interpreters against
    two source trees, here this one twice, and prints both sides' times
    and how many pairs' outputs differ."""
    module = _time_cli()
    src = str(Path(excol.__file__).parent.parent)
    assert module.main([src, src, "--pairs", "2", "--", "sweep", "--help"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "excol sweep --help  (2 pairs)"
    assert [line.split(":")[0] for line in out[1:]] == [
        "  base", "  head", "  head/base", "  stdout (seconds masked)"
    ]
    assert out[1].endswith("exit [0]") and out[2].endswith("exit [0]") and out[3].endswith("/2")
    assert out[4] == "  stdout (seconds masked): differs in 0/2 pairs"
    # a sweep's rows print their seconds, which the comparison masks
    sweep = ["--no-cache", "sweep", "--max-dim", "2", "--max-degree", "1", "--codim", "2"]
    assert module.main([src, src, "--pairs", "2", "--", *sweep]) == 0
    assert capsys.readouterr().out.endswith("differs in 0/2 pairs\n")


def test_time_cli_fails_when_the_trees_print_differently(monkeypatch, capsys):
    """Two trees whose sweep rows differ only in the seconds column print
    the same; rows that differ in anything else fail the comparison, with
    exit 1, though the exit codes agree."""
    module = _time_cli()
    rows = {
        "base": b"s=1 a=[0, 0]            b1,f1              5  ES1         0.12\n",
        "head": b"s=1 a=[0, 0]            b1,f1              5  ES1        10.57\n",
    }
    monkeypatch.setattr(module, "run_once", lambda src, argv, cwd: (0.1, 0, rows[src]))
    assert module.main(["base", "head", "--pairs", "2", "--", "sweep"]) == 0
    assert capsys.readouterr().out.endswith("differs in 0/2 pairs\n")
    rows["head"] = rows["head"].replace(b"ES1", b"ES.")
    assert module.main(["base", "head", "--pairs", "3", "--", "sweep"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith("exit [0]") and out[2].endswith("exit [0]")
    assert out[4] == "  stdout (seconds masked): differs in 3/3 pairs"


def test_sweep_small(capsys):
    assert run(["sweep", "--max-dim", "2", "--max-degree", "1", "--codim", "2"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "passed" in out


def test_sweep_reports_box_too_large(monkeypatch, capsys):
    """A class whose polytope box is over the oracle's budget aborts its
    case, not the sweep: an ABORT row, the T-divisor, its support set and
    its box on stderr, exit 1."""
    # the 8 cases' largest polytope boxes hold 4 or 6 points
    monkeypatch.setattr(kernels, "MAX_BOX_POINTS", 5)
    args = ["--no-cache", "sweep", "--max-dim", "2", "--max-degree", "1", "--codim", "2"]
    assert run(args) == 1
    out, err = capsys.readouterr()
    rows = out.splitlines()[2:10]
    assert [row.split()[-2] for row in rows] == ["ES1"] * 4 + ["ABORT"] * 4
    assert err.startswith("\n4 failing case(s):\n")
    assert (
        "  s=1 a=[0, 1] center=b1,f1: T-divisor (0, 1, 1, 0, 1), support set 0: "
        "polytope box lo=[-1, 0] hi=[1, 1]: 6 points (budget 5)\n"
    ) in err


@pytest.mark.parametrize("failure", ["replay", "certificate"])
def test_sweep_lists_each_failed_case_and_goes_on(monkeypatch, capsys, failure):
    """A case whose replay raises MutationError is an ABORT row, and one
    whose certificate fails (here one object short, so every check passes
    but the length) keeps its row; either is listed on stderr, the other
    cases still run, and the sweep exits 1."""
    real = cli.construct

    def planted(spec, center):
        bl, col = real(spec, center)
        if center.ray_names != {"b1", "f1"}:
            return bl, col
        if failure == "replay":
            raise MutationError("planted failure", log=col.log)
        return bl, replace(col, objects=col.objects[:-1])

    monkeypatch.setattr(cli, "construct", planted)
    args = ["--no-cache", "sweep", "--max-dim", "2", "--max-degree", "1", "--codim", "2"]
    assert run(args) == 1
    out, err = capsys.readouterr()
    # each row's center, length and flags, without the seconds column
    rows = [row.split()[-4:-1] for row in out.splitlines()[2:10]]
    failed = ["b1,f1", "-", "ABORT"] if failure == "replay" else ["b1,f1", "4", "ES1"]
    assert rows[3] == rows[7] == failed
    assert all(row[1:] == ["5", "ES1"] for k, row in enumerate(rows) if k not in (3, 7))
    why = "planted failure" if failure == "replay" else "verification failed"
    assert err == (
        f"\n2 failing case(s):\n  s=1 a=[0, 0] center=b1,f1: {why}\n"
        f"  s=1 a=[0, 1] center=b1,f1: {why}\n"
    )


def test_sweep_cache_plumbing(tmp_path, monkeypatch, capsys):
    """sweep writes one cache file per isomorphism class of its cases, 3 for
    these 8; a second run reads them all without a kernel call or a write
    and prints the same rows; --no-cache writes nothing."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("EXCOL_CACHE_DIR", str(cache))
    args = ["sweep", "--max-dim", "2", "--max-degree", "1", "--codim", "2"]
    cases = [c for s in cli.enumerate_specs(2, 1) for c in cli.enumerate_centers(s, 2)]

    def rows():
        # every printed line without its last field, the seconds column
        out = capsys.readouterr().out
        return [line.rsplit(None, 1)[0] for line in out.splitlines() if line]

    assert run(args) == 0
    cold = rows()
    assert len(cold) == len(cases) + 3
    files = {p.name: p.read_bytes() for p in cache.iterdir()}
    assert len(files) == 3
    calls = []
    real = kernels.count_support_sets
    monkeypatch.setattr(
        kernels, "count_support_sets", lambda *a: calls.append(a) or real(*a)
    )
    assert run(args) == 0
    assert rows() == cold
    assert calls == []
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == files
    shutil.rmtree(cache)
    assert run(["--no-cache"] + args) == 0
    assert rows() == cold
    assert calls and not cache.exists()
    # every box is a non-empty lattice box
    assert all((lo <= hi).all() for lo, hi, *_ in calls)


def test_sweep_discards_an_edited_cache_file(tmp_path, monkeypatch, capsys):
    """A warm 2/0 sweep whose s=1 a=[0, 0] center=b1,f0 file has its entry
    [[0, 0, 0], [1, 0, 0]] edited to [2, 0, 0], which no longer matches the
    file's checksum, recomputes that case: it passes, the sweep exits 0,
    and the file is written again as the cold run wrote it.  The 4 cases
    are isomorphic, so they share that one file."""
    monkeypatch.setenv("EXCOL_CACHE_DIR", str(tmp_path))
    args = ["sweep", "--max-dim", "2", "--max-degree", "0"]
    assert run(args) == 0
    capsys.readouterr()
    fan = make_blowup(BundleSpec(1, (0, 0)), CenterSpec(frozenset({"b1", "f0"}))).fan_xt
    with open(DiskCache(str(tmp_path))._path(fan)[0], "r+b") as fh:
        cold = fh.read()
        assert cold.count(b"[[0, 0, 0], [1, 0, 0]]") == 1
        fh.seek(0)
        fh.write(cold.replace(b"[[0, 0, 0], [1, 0, 0]]", b"[[0, 0, 0], [2, 0, 0]]"))
    assert run(args) == 0
    out, err = capsys.readouterr()
    assert ["s=1", "a=[0,", "0]", "b1,f0", "5", "ES1"] in [r.split()[:6] for r in out.splitlines()]
    assert "all 4 cases passed" in out and err == ""
    with open(DiskCache(str(tmp_path))._path(fan)[0], "rb") as fh:
        assert fh.read() == cold
    assert len(list(tmp_path.iterdir())) == 1


def test_sweep_empty_codim3(capsys):
    assert run(["sweep", "--max-dim", "2", "--max-degree", "0", "--codim", "3"]) == 0
    assert "empty" in capsys.readouterr().out


def test_enumerate_centers_respects_fan():
    centers = cli.enumerate_centers(cli.BundleSpec(1, (0, 0)), 2)
    names = {tuple(sorted(c.ray_names)) for c in centers}
    assert ("b0", "b1") not in names
    assert ("b1", "f1") in names
    assert all(len(c.ray_names) == 2 for c in centers)


def test_run_case_reads_cache_dir_at_call_time(tmp_path, monkeypatch):
    """run_case(spec, center) certifies through the disk cache under the
    EXCOL_CACHE_DIR of the moment it is called: one file, the fan's."""
    spec, center = BundleSpec(1, (0, 0)), CenterSpec(frozenset({"b1", "f1"}))
    fan = make_blowup(spec, center).fan_xt
    for name in ("first", "second"):
        root = tmp_path / name
        monkeypatch.setenv("EXCOL_CACHE_DIR", str(root))
        report, err = cli.run_case(spec, center)
        assert err is None and report.all_passed
        disk = DiskCache(str(root))
        assert [p.name for p in root.iterdir()] == [os.path.basename(disk._path(fan)[0])]
        assert disk.get(fan)
