import json
import subprocess
import sys

import argparse

import numpy as np
import pytest

import su2vol.cli
from su2vol.cli import ConfigError, default_config, load_config, main
from su2vol.metrics import from_parameters, metric_to_json


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_default_config_validates():
    cfg = default_config()
    assert cfg["eta"] == pytest.approx(0.1)
    assert cfg["format"] == "csv"
    assert list(cfg) == ["eta", "iota", "seed", "samples",
                         "format", "out", "a1", "a2", "a3", "d", "r",
                         "a_grid", "d_grid", "r_grid"]


def _args(config=None, **kw):
    ns = argparse.Namespace(config=config, seed=None, samples=None,
                            out=None, format=None)
    for key, val in kw.items():
        setattr(ns, key, val)
    return ns


def test_load_config_overrides_and_rejects(tmp_path):
    p = _write(tmp_path / "ok.cfg", "seed=42\n# comment\neta=0.2\n")
    cfg = load_config(_args(p))
    assert cfg["seed"] == 42 and cfg["eta"] == pytest.approx(0.2)
    # command line flags win over the file
    cfg = load_config(_args(p, seed=7))
    assert cfg["seed"] == 7
    for text in ("no_such_key=1\n", "just some words\n",
                 "a_grid=1.0,-2.0\n"):
        bad = _write(tmp_path / "bad.cfg", text)
        with pytest.raises(ConfigError):
            load_config(_args(bad))


def test_verify_identities_green(tmp_path, capsys):
    rc = main(["verify-identities", "--out", str(tmp_path), "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert " pass" in out and " fail" not in out
    report = (tmp_path / "verify_identities.csv").read_text()
    assert report.startswith("#")
    assert "# seed=3" in report
    # seed 3 fixes every residual, so the rows are pinned
    assert [ln for ln in report.splitlines() if not ln.startswith("#")] == [
        "check,points,max_residual,tolerance,status",
        "word_grid,2500,5.5511151231257827e-16,1e-10,pass",
        "word_random,1000,5.9787339602818165e-16,1e-10,pass",
        "word_tilted_frame,600,8.8817841970012523e-16,1e-10,pass",
        "adjoint_rotation,1000,2.2204460492503131e-16,"
        "9.9999999999999998e-13,pass",
        "exp_consistency,1000,6.6657638364428094e-16,"
        "9.9999999999999998e-13,pass",
        "chart_jacobian_fd,100,1.3391452156708781e-10,"
        "1.0000000000000001e-05,pass",
        "collision_classifier,150,0,0,pass",
    ]


def test_verify_identities_tight_tolerance_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(su2vol.cli, "_WORD_TOL", 1e-16)
    rc = main(["verify-identities", "--out", str(tmp_path)])
    assert rc == 1


def test_reduce_identity_metric(tmp_path, capsys):
    path = _write(tmp_path / "id.csv",
                  "\n".join(",".join("1.0" if i == j else "0.0"
                                     for j in range(6))
                            for i in range(6)))
    rc = main(["reduce", path])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a"] == pytest.approx([1.0, 1.0, 1.0])
    assert doc["d"] == pytest.approx(0.0, abs=1e-9)


def test_reduce_json_round_trip(tmp_path, capsys):
    m = from_parameters(1.0, 2.0, 3.0, 5.0)
    path = _write(tmp_path / "m.json",
                  json.dumps({"gram": json.loads(metric_to_json(
                      __import__("su2vol").metrics.MetricTensor(m.gram)))}))
    rc = main(["reduce", path])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a"] == pytest.approx([1.0, 2.0, 3.0], abs=1e-8)
    assert doc["d"] == pytest.approx(5.0, abs=1e-8)
    assert max(doc["residuals"].values()) < 1e-9


def test_reduce_rejects_non_spd(tmp_path, capsys):
    path = _write(tmp_path / "bad.csv",
                  "1.0,2.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0")
    rc = main(["reduce", path])
    assert rc == 2
    capsys.readouterr()
    # JSON NaN and Infinity parse to floats; reduce names them in one line
    for bad in (float("nan"), float("inf")):
        gram = np.eye(4)
        gram[0, 3] = gram[3, 0] = bad
        path = _write(tmp_path / "bad.json", json.dumps(gram.tolist()))
        rc = main(["reduce", path])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "non-finite" in err
        assert len(err.splitlines()) == 1


def test_estimate_writes_table(tmp_path):
    cfg = _write(tmp_path / "e.cfg",
                 "a_grid=1.0,10.0\nd_grid=0.0,1.0\nr_grid=0.1\n")
    rc = main(["estimate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "estimate.csv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    # header + 4 ascending triples x 2 tilts x 1 radius
    assert len(lines) == 1 + 8
    assert lines[0].startswith("a1,")


def _report_cells(path):
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return [(float(r["a1"]), float(r["a2"]), float(r["a3"]), float(r["d"]))
            for r in rows]


def test_unset_a_grid_is_the_configured_triple(tmp_path):
    # a2 and a3 take part in the grid, not only a1
    cfg = _write(tmp_path / "g.cfg",
                 "a1=3\na2=1\na3=2\nd_grid=0,1\nr=0.05\nsamples=500\n")
    want = [(1.0, 2.0, 3.0, 0.0), (1.0, 2.0, 3.0, 1.0)]
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert _report_cells(tmp_path / "estimate.csv") == want
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert _report_cells(tmp_path / "sweep_report.csv") == want


def test_ball_volume_single_cell(tmp_path):
    cfg = _write(tmp_path / "b.cfg", "a1=1.0\na2=1.0\na3=1.0\nd=0.0\n"
                 "r=0.1\nsamples=20000\n")
    rc = main(["ball-volume", "--config", cfg, "--out", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    doc = json.loads((tmp_path / "ball_volume.json").read_text())
    assert doc["config"]["samples"] == 20000
    row = doc["rows"][0] if "rows" in doc else doc
    # either layout carries the bracket
    text = json.dumps(doc)
    assert "lower" in text and "upper" in text


def test_ball_volume_rejected_values_exit_2(tmp_path, capsys):
    # a1 = 1e-300 is rejected by the metric, r = 1e200 and r = 1e-60 by
    # ball_volume
    for text, cause in (("a1=1e-300\nr=0.1\nsamples=100\n",
                         "a_i^2 underflows"),
                        ("r=1e200\nsamples=100\n", "not finite"),
                        ("r=1e-60\nsamples=100\n", "bracket underflows")):
        cfg = _write(tmp_path / "b.cfg", text)
        with np.errstate(all="ignore"):
            rc = main(["ball-volume", "--config", cfg, "--out",
                       str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert cause in err[0]


def test_sweep_small_and_byte_identical(tmp_path):
    cfg = _write(tmp_path / "s.cfg",
                 "a_grid=1.0\nd_grid=0.0\nr_grid=0.1\nsamples=2000\n")
    out_dir = tmp_path / "runs"
    rc = main(["sweep", "--config", cfg, "--out", str(out_dir)])
    assert rc == 0
    first = (out_dir / "sweep_report.csv").read_bytes()
    summary1 = (out_dir / "sweep_summary.json").read_bytes()
    rc = main(["sweep", "--config", cfg, "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "sweep_report.csv").read_bytes() == first
    assert (out_dir / "sweep_summary.json").read_bytes() == summary1
    doc = json.loads(summary1)
    assert doc["summary"]["doubling_ok"] is True


def test_sweep_reports_do_not_depend_on_output_directory(tmp_path):
    cfg = _write(tmp_path / "s.cfg",
                 "a_grid=1.0\nd_grid=0.0\nr_grid=0.1\nsamples=2000\n")
    dirs = [tmp_path / "first", tmp_path / "second" / "nested"]
    for out_dir in dirs:
        assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == 0
    for name in ("sweep_report.csv", "sweep_summary.json"):
        assert ((dirs[0] / name).read_bytes()
                == (dirs[1] / name).read_bytes())


def test_sweep_json_format_adds_report(tmp_path):
    cfg = _write(tmp_path / "s.cfg",
                 "a_grid=1.0\nd_grid=0.0\nr_grid=0.1\nsamples=1500\n"
                 "format=json\n")
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "sweep_report.json").read_text())
    assert "config" in doc
    assert len(doc["rows"]) == 1


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.cfg", "eta=-3\n")
    rc = main(["estimate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "eta" in capsys.readouterr().err
    # keys that were parsed but never acted on are now unknown keys
    for line in ("budget=2", "m_dd=6", "tol_word=1e-16", "tol_adjoint=1",
                 "tol_rodrigues=1", "tol_jacobian=1", "tol_collision=0"):
        cfg = _write(tmp_path / "old.cfg", line + "\n")
        rc = main(["estimate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        key = line.split("=")[0]
        assert f"unknown config key: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "ball-volume", "sweep"])
@pytest.mark.parametrize("line", ["eta=nan", "r=nan", "d=nan", "a1=inf",
                                  "r_grid=0.1,inf", "a_grid=1,nan",
                                  "d_grid="])
def test_non_finite_or_empty_values_exit_2(tmp_path, capsys, command, line):
    # r_grid makes the sweep one cell, so an accepted value would run fast
    cfg = _write(tmp_path / "bad.cfg", f"samples=100\nr_grid=0.1\n{line}\n")
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    key = line.split("=")[0]
    assert f"config error: {key} " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["reduce", "--seed", "1", "m.csv"],
    ["reduce", "--config", "c.cfg", "m.csv"],
    ["estimate", "--samples", "5"],
    ["estimate", "--seed", "5"],
    ["verify-identities", "--samples", "5"],
])
def test_unread_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_negative_seed_exits_2(tmp_path, capsys):
    rc = main(["sweep", "--seed", "-1", "--out", str(tmp_path)])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "su2vol.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sweep" in proc.stdout
