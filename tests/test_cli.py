import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dre
from dre.cli import main
from dre.clusters import backward_cluster, forward_cluster
from dre.env import Window, sample_environment
from dre.models import ModelId, catalog_names
from dre.render import (SHADE_BACKGROUND, SHADE_BACKWARD, SHADE_COMMUNICATING, SHADE_FORWARD,
                        membership_shades)
from dre.snapshot import load_snapshot, save_snapshot

from conftest import MIXED_MEASURES


def run_cli(*argv):
    return main(list(argv))


def test_gen_roundtrip(tmp_path):
    out = tmp_path / "env.dre"
    assert run_cli("gen", "--model", "NE-SW", "--p", "0.5", "--radius", "6",
                   "--seed", "42", "--out", str(out)) == 0
    env = load_snapshot(str(out))
    ref = sample_environment(ModelId("NE-SW", 0.5), Window.centered(6), 42)
    assert np.array_equal(env.arrows, ref.arrows)


def test_gen_deterministic_and_seed_sensitive(tmp_path):
    digests = set()
    for seed in range(20):
        out = tmp_path / f"e{seed}.dre"
        run_cli("gen", "--model", "EW-NS", "--p", "0.4", "--radius", "5",
                "--seed", str(seed), "--out", str(out))
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 20
    again = tmp_path / "again.dre"
    run_cli("gen", "--model", "EW-NS", "--p", "0.4", "--radius", "5",
            "--seed", "0", "--out", str(again))
    assert hashlib.sha256(again.read_bytes()).hexdigest() in digests


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run_cli("estimate", "--model", "NE-.", "--p", "1.5",
                   "--radius", "5", "--trials", "5") == 2
    assert run_cli("estimate", "--model", "not-a-model", "--p", "0.5",
                   "--radius", "5", "--trials", "5") == 2
    assert run_cli("classify", "--p", "0.5", "--radius", "5", "--trials", "5") == 2
    assert run_cli("estimate", "--statistic", "reach_otsp", "--p", "0.5",
                   "--radius", "-3", "--trials", "5") == 2
    assert run_cli("estimate", "--statistic", "reach_otsp", "--p", "0.5",
                   "--radius", "5", "--trials", "0") == 2
    assert run_cli("bisect", "--model", "otsp", "--radius", "0", "--trials", "5") == 2
    capsys.readouterr()
    for bad in (["--target", "nan"], ["--tol", "nan"], ["--target", "1.5"], ["--target", "0"],
                ["--tol", "0"], ["--tol", "inf"]):
        assert run_cli("bisect", "--model", "otsp", "--radius", "5", "--trials", "5", *bad) == 2
        assert "probe" not in capsys.readouterr().out, bad  # rejected before any probe
    assert run_cli("cluster", "--model", "NE-SW", "--radius", "4", "--origin", "1") == 2
    out = tmp_path / "render.pgm"
    for origin in (["--origin=-9,-9"], ["--origin", "9,9"]):
        assert run_cli("render", "--model", "NE-SW", "--radius", "5", *origin,
                       "--out", str(out)) == 2
    assert not out.exists()
    assert run_cli("classify", "--model", "NE-SW", "--radius", "5", "--trials", "0") == 2
    capsys.readouterr()
    for margin in ("-1", "-3", "-10"):  # the message names the input
        assert run_cli("classify", "--model", "NE-SW", "--radius", "5", "--trials", "3",
                       f"--margin={margin}") == 2
        assert "margin" in capsys.readouterr().err, margin
    assert run_cli("verify", "duality", "--model", "NE-SW", "--radius", "5",
                   "--trials", "0") == 2
    assert run_cli("verify", "duality", "--model", "NE-.", "--p", "0.9", "--radius", "5",
                   "--trials", "3") == 2


def test_classify_usage_errors_leave_no_file(capsys, tmp_path):
    # the census checks its input before --out is opened, as render does
    out = tmp_path / "census.txt"
    for bad in (["--radius", "5", "--trials", "3", "--margin=-3"],
                ["--radius", "5", "--trials", "0"], ["--radius", "0", "--trials", "3"]):
        assert run_cli("classify", "--model", "NE-SW", *bad, "--out", str(out)) == 2, bad
        assert not out.exists(), bad
    assert "margin" in capsys.readouterr().err


OTSP_ESTIMATE = ("estimate", "--p", "0.7", "--radius", "5", "--trials", "2",
                 "--statistic", "reach_otsp")


@pytest.mark.parametrize("model", ["bogus", "NE-SW", "NE-.", "osp"])
def test_estimate_reach_otsp_rejects_other_models(capsys, tmp_path, model):
    out = tmp_path / "est.csv"
    assert run_cli(*OTSP_ESTIMATE, "--model", model, "--out", str(out)) == 2
    assert not out.exists()
    assert "otsp" in capsys.readouterr().err


def test_estimate_reach_otsp_takes_otsp_or_no_model(tmp_path):
    # the name resolves as bisect reads it: stripped, in any case
    out = tmp_path / "est.csv"
    for same in ([], ["--model", "otsp"], ["--model", " OTSP "]):
        assert run_cli(*OTSP_ESTIMATE, *same, "--out", str(out)) == 0, same
        assert out.read_text().splitlines()[1].startswith("otsp,0.7,5,2,reach_otsp,"), same


def test_estimate_csv(tmp_path):
    out = tmp_path / "est.csv"
    assert run_cli("estimate", "--model", "osp", "--p", "0.75", "--radius", "20",
                   "--trials", "100", "--seed", "3", "--format", "csv",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "model,p,M,trials,statistic,estimate,se,seed,seconds"
    assert lines[1].startswith("NE-.,0.75,20,100,reach_C,")
    jsonl = tmp_path / "est.jsonl"
    assert run_cli("estimate", "--model", "osp", "--p", "0.75", "--radius", "20",
                   "--trials", "100", "--seed", "3", "--format", "jsonl",
                   "--out", str(jsonl)) == 0
    (rec,) = map(json.loads, jsonl.read_text().splitlines())
    assert (rec["model"], rec["p"], rec["M"], rec["trials"], rec["statistic"]) == (
        "NE-.", 0.75, 20, 100, "reach_C")
    assert f"{rec['estimate']!r},{rec['se']!r},3," in lines[1]


def test_cluster_dump(tmp_path):
    out = tmp_path / "cluster.txt"
    assert run_cli("cluster", "--model", "NE-SW", "--p", "0.5", "--radius", "4",
                   "--seed", "7", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert all(line.startswith("site ") for line in lines)
    parts = lines[0].split()
    assert len(parts) == 5 and parts[3] in "01" and parts[4] in "01"
    # the same environment read from a snapshot gives the same dump
    snap = tmp_path / "env.dre"
    save_snapshot(sample_environment(ModelId("NE-SW", 0.5), Window.centered(4), 7), str(snap))
    out2 = tmp_path / "cluster_in.txt"
    assert run_cli("cluster", "--in", str(snap), "--out", str(out2)) == 0
    assert out2.read_text() == out.read_text()


def test_malformed_snapshot_exits_2(tmp_path, capsys):
    snap = tmp_path / "env.dre"
    save_snapshot(sample_environment(ModelId("NE-SW", 0.5), Window.centered(4), 7), str(snap))
    head, row, rest = snap.read_text().split("\n", 2)
    snap.write_text("\n".join([head, "z" + row[1:], rest]))  # a row of the right length
    assert run_cli("cluster", "--in", str(snap), "--out", str(tmp_path / "out.txt")) == 2
    assert "not hex" in capsys.readouterr().err


def test_render_deterministic_with_legend(tmp_path):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    for path in (a, b):
        assert run_cli("render", "--model", "NE-SW", "--p", "0.6", "--radius", "8",
                       "--seed", "5", "--format", "pgm", "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()
    snap = tmp_path / "env.dre"
    save_snapshot(sample_environment(ModelId("NE-SW", 0.6), Window.centered(8), 5), str(snap))
    c = tmp_path / "c.pgm"
    assert run_cli("render", "--in", str(snap), "--format", "pgm", "--out", str(c)) == 0
    assert c.read_bytes() == a.read_bytes()
    assert a.read_bytes().startswith(b"P2\n17 17\n255\n")
    legend = (tmp_path / "a.pgm.legend.txt").read_text()
    from dre.clusters import backward_cluster, forward_cluster

    env = sample_environment(ModelId("NE-SW", 0.6), Window.centered(8), 5)
    fwd = forward_cluster(env, (0, 0))
    bwd = backward_cluster(env, (0, 0))
    assert f"forward_count={len(fwd.sites)}" in legend
    assert f"backward_count={len(bwd.sites)}" in legend
    assert f"communicating_count={len(fwd.sites & bwd.sites)}" in legend


@pytest.mark.parametrize("model", MIXED_MEASURES, ids=str)
def test_membership_shades_per_site(model):
    env = sample_environment(model, Window.centered(8), 5)
    # (in the forward cluster, in the backward cluster) -> shade
    want = {(True, True): SHADE_COMMUNICATING, (True, False): SHADE_FORWARD,
            (False, True): SHADE_BACKWARD, (False, False): SHADE_BACKGROUND}
    lo_x, lo_y = env.window.lo
    # off the centre on both axes, and a corner of the edge ring
    for origin in ((3, -2), (-8, 8)):
        shades, counts = membership_shades(env, origin)
        fwd = forward_cluster(env, origin).sites
        bwd = backward_cluster(env, origin).sites
        for ix, iy in np.ndindex(shades.shape):
            site = (ix + lo_x, iy + lo_y)
            assert shades[ix, iy] == want[site in fwd, site in bwd]
        assert counts == {"forward": len(fwd), "backward": len(bwd),
                          "communicating": len(fwd & bwd)}


def test_render_svg(tmp_path):
    out = tmp_path / "r.svg"
    assert run_cli("render", "--model", "EW-NS", "--p", "0.5", "--radius", "5",
                   "--seed", "2", "--format", "svg", "--out", str(out)) == 0
    assert out.read_bytes().startswith(b"<svg")
    assert run_cli("render", "--model", "EW-NS", "--p", "0.5", "--radius", "5",
                   "--seed", "2", "--format", "svg") == 2  # --out required


def test_bounds_keys(tmp_path):
    out = tmp_path / "bounds.txt"
    assert run_cli("bounds", "--out", str(out)) == 0
    text = out.read_text()
    assert "eps0.d2=0.16730" in text
    assert "otsp.lower_bound.paper=0.5466" in text
    jsonl = tmp_path / "bounds.jsonl"
    assert run_cli("bounds", "--format", "jsonl", "--out", str(jsonl)) == 0
    rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert [f"{r['key']}={r['value']}" for r in rows] == text.splitlines()
    assert all(r["source"] for r in rows)


def test_classify_single_and_census(tmp_path, capsys):
    out = tmp_path / "one.txt"
    assert run_cli("classify", "--model", "NE-SW", "--p", "0.9", "--radius", "20",
                   "--seed", "4", "--trials", "1", "--out", str(out)) == 0
    assert out.read_text().startswith("shape=")
    snap = tmp_path / "env.dre"
    save_snapshot(sample_environment(ModelId("NE-SW", 0.9), Window.centered(20), 4), str(snap))
    one_in = tmp_path / "one_in.txt"
    assert run_cli("classify", "--in", str(snap), "--out", str(one_in)) == 0
    assert one_in.read_text() == out.read_text()
    # a margin widens a census's sampling window; a single environment is
    # classified whole, so a margin there is a usage error
    for single in (["--trials", "1"], ["--in", str(snap)]):
        capsys.readouterr()
        assert run_cli("classify", "--model", "NE-SW", "--p", "0.9", "--radius", "20",
                       "--seed", "4", "--margin", "30", *single,
                       "--out", str(tmp_path / "margin.txt")) == 2
        assert "census" in capsys.readouterr().err
    assert not (tmp_path / "margin.txt").exists()
    out2 = tmp_path / "census.txt"
    assert run_cli("classify", "--model", "NE-SW", "--p", "0.9", "--radius", "15",
                   "--seed", "4", "--trials", "10", "--out", str(out2)) == 0
    assert "count[BlockedAbove]=" in out2.read_text()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_output_pipe_exits_1_without_traceback(unbuffered):
    # the read end closes before the child starts: a buffered stdout meets the
    # broken pipe at its flush, an unbuffered one at its first write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(dre.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "dre.cli", "bounds", "--format", "jsonl"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


def test_verify_duality_subcommand(tmp_path):
    out = tmp_path / "verify.txt"
    assert run_cli("verify", "duality", "--model", "NE-SW", "--p", "0.9",
                   "--radius", "15", "--trials", "15", "--seed", "6",
                   "--out", str(out)) == 0
    text = out.read_text()
    assert "blocked_above=" in text and "verified=" in text


def test_static_classify_output(tmp_path):
    out = tmp_path / "sc.txt"
    assert run_cli("static-classify", "--model", "N-E", "--p", "0.5",
                   "--out", str(out)) == 0
    text = out.read_text()
    assert "theta_plus=one" in text
    assert "theta_minus=zero" in text
    listed = tmp_path / "list.txt"
    assert run_cli("static-classify", "--list", "--out", str(listed)) == 0
    assert tuple(listed.read_text().splitlines()) == catalog_names()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "dre.cfg"
    cfg.write_text("p = 0.9\nradius = 4\nseed = 11\n# comment\n")
    out1 = tmp_path / "c1.dre"
    assert run_cli("gen", "--model", "NE-SW", "--config", str(cfg),
                   "--out", str(out1)) == 0
    env1 = load_snapshot(str(out1))
    assert env1.model.p == 0.9 and env1.window == Window.centered(4)
    out2 = tmp_path / "c2.dre"
    assert run_cli("gen", "--model", "NE-SW", "--config", str(cfg),
                   "--p", "0.2", "--out", str(out2)) == 0
    assert load_snapshot(str(out2)).model.p == 0.2

    assert run_cli("gen", "--model", "NE-SW", "--config",
                   str(tmp_path / "missing.cfg"), "--out", str(out2)) == 2
    for bad in ("p = 0.9\nradius 4\n", "p = 0.9\nradius = four\n"):  # no "=", no int
        cfg.write_text(bad)
        assert run_cli("gen", "--model", "NE-SW", "--config", str(cfg),
                       "--out", str(out2)) == 2


def test_bisect_cli_synthetic(tmp_path):
    out = tmp_path / "bisect.txt"
    assert run_cli("bisect", "--model", "osp", "--radius", "20",
                   "--trials", "150", "--seed", "2", "--tol", "0.02",
                   "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("p_hat=")
    assert run_cli("bisect", "--model", "NE-SW", "--radius", "10",
                   "--trials", "10") == 2
