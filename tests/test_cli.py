import json
import shutil

import pytest

from excol import BundleSpec, CenterSpec, cli, make_blowup
from excol.cohomology import DiskCache, _cache_key, default_cache_dir
from excol.errors import MutationError


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


def test_verify_detects_tampering(tmp_path):
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
    assert run(["--no-cache", "verify", "--collection", str(col)]) == 1


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
    for a in classes:
        for b in classes:
            disk.put(_cache_key(fan, (b - a).coords), wrong)
    assert disk.get(_cache_key(fan, (classes[0] - classes[0]).coords)) == wrong

    assert run(["verify", "--collection", str(col), "--out", str(planted)]) == 0
    assert planted.read_text() == clean.read_text()


def test_unnormalized_degrees_exit_2(capsys):
    code = run(
        ["construct", "--base-dim", "1", "--fiber-degrees", "1,0", "--center", "b1,f1"]
    )
    assert code == 2
    assert "a_0 = 0" in capsys.readouterr().err


def test_center_not_a_cone_exit_2(capsys):
    code = run(
        ["construct", "--base-dim", "1", "--fiber-degrees", "0,0", "--center", "b0,b1"]
    )
    assert code == 2


def test_unknown_ray_exit_2():
    code = run(
        ["construct", "--base-dim", "1", "--fiber-degrees", "0,0", "--center", "b1,f9"]
    )
    assert code == 2


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


def test_sweep_small(capsys):
    assert run(["sweep", "--max-dim", "2", "--max-degree", "1", "--codim", "2"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "passed" in out


def test_sweep_empty_codim3(capsys):
    assert run(["sweep", "--max-dim", "2", "--max-degree", "0", "--codim", "3"]) == 0
    assert "empty" in capsys.readouterr().out


def test_enumerate_centers_respects_fan():
    centers = cli.enumerate_centers(cli.BundleSpec(1, (0, 0)), 2)
    names = {tuple(sorted(c.ray_names)) for c in centers}
    assert ("b0", "b1") not in names
    assert ("b1", "f1") in names
    assert all(len(c.ray_names) == 2 for c in centers)
