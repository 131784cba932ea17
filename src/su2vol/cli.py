"""Batch front end: identity verification, metric reduction, estimator
tables, single ball volumes, and the full sweep.

Subcommands: verify-identities, reduce, estimate, ball-volume, sweep.
Config is a key=value text file; command line flags override it.  Exit
codes: 0 success, 1 check failure, 2 usage or config error.  Every output
file embeds the effective config so reports are self-describing.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement, GroupElement, exp_group, log_su2, mul
from .balls import SWEEP_COLUMNS, ball_volume, default_sweep_grid, sweep
from .frames import (CollisionClass, Coordinates, adjoint_rotate,
                     commutator_identity, jacobian, psi,
                     psi_collision_classify, word_group_element)
from .metrics import (MetricTensor, NotSPD, canonicalize, decoupled_to_json,
                      from_parameters, reduce_to_decoupled)
from .volumes import (EstimatorInputs, linear_upper, m_rho, vbar_g,
                      vbar_g_doubling_bound)


class ConfigError(Exception):
    pass


_FLOAT_KEYS = ("eta", "iota", "c_outer", "m_dd", "a1", "a2", "a3", "d", "r",
               "tol_word", "tol_adjoint", "tol_rodrigues", "tol_jacobian",
               "tol_collision")
_INT_KEYS = ("seed", "samples")
_STR_KEYS = ("format", "out")
_LIST_KEYS = ("a_grid", "d_grid", "r_grid")


def default_config():
    return {
        "eta": 0.1,
        "iota": math.pi / 4.0,
        "c_outer": 8.0,
        "m_dd": 6.0,
        "seed": 0,
        "samples": 10000,
        "format": "csv",
        "out": ".",
        "a1": 1.0, "a2": 1.0, "a3": 1.0, "d": 0.0, "r": 0.1,
        "a_grid": None, "d_grid": None, "r_grid": None,
        "tol_word": 1e-10,
        "tol_adjoint": 1e-12,
        "tol_rodrigues": 1e-12,
        "tol_jacobian": 1e-5,
        "tol_collision": 0.0,
    }


def _parse_config_text(text):
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ConfigError(f"config line {lineno}: expected key=value")
        key, val = s.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _convert(key, raw):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _STR_KEYS:
            return raw
        if key in _LIST_KEYS:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    raise ConfigError(f"unknown config key: {key}")


def load_config(args):
    cfg = default_config()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for key, raw in _parse_config_text(path.read_text()).items():
            cfg[key] = _convert(key, raw)
    for key in ("seed", "samples", "out", "format"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    _validate_config(cfg)
    return cfg


def _validate_config(cfg):
    if cfg["eta"] <= 0.0:
        raise ConfigError("eta must be positive")
    if not 0.0 < cfg["iota"] <= math.pi / 3.0:
        raise ConfigError("iota must be in (0, pi/3]")
    if cfg["c_outer"] < 1.0:
        raise ConfigError("c_outer must be >= 1")
    if cfg["samples"] < 1:
        raise ConfigError("samples must be >= 1")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    for key in ("a_grid", "r_grid"):
        grid = cfg[key]
        if grid is not None and (not grid or any(v <= 0.0 for v in grid)):
            raise ConfigError(f"{key} entries must be positive")
    if cfg["d_grid"] is not None and any(v < 0.0 for v in cfg["d_grid"]):
        raise ConfigError("d_grid entries must be nonnegative")
    if not (0.0 < cfg["a1"] and 0.0 < cfg["a2"] and 0.0 < cfg["a3"]):
        raise ConfigError("a1, a2, a3 must be positive")
    if cfg["d"] < 0.0:
        raise ConfigError("d must be nonnegative")
    if cfg["r"] <= 0.0:
        raise ConfigError("r must be positive")


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _config_for_report(cfg):
    return {k: cfg[k] for k in sorted(cfg) if cfg[k] is not None}


def _write_csv(path, cfg, header, rows):
    lines = [f"# {k}={_fmt(v)}" for k, v in _config_for_report(cfg).items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, cfg, payload):
    doc = {"config": {k: (list(v) if isinstance(v, tuple) else v)
                      for k, v in _config_for_report(cfg).items()}}
    doc.update(payload)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit(cfg, stem, header, rows, extra=None):
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg["format"] == "csv":
        _write_csv(out_dir / f"{stem}.csv", cfg, header, rows)
    else:
        payload = {"rows": rows}
        if extra:
            payload.update(extra)
        _write_json(out_dir / f"{stem}.json", cfg, payload)


# -- verify-identities -------------------------------------------------------

def _word_residual(s, t, use_v=False, metric=None):
    f, _ = commutator_identity(s, t)
    got = word_group_element(s, t, (0, 1, 2), use_v=use_v, m=metric)
    if metric is None:
        coeffs = np.zeros(6)
        coeffs[2] = f
    else:
        coeffs = f * metric.u_columns()[:, 2]
    want = exp_group(AlgebraElement(coeffs))
    return max(float(np.max(np.abs(got.su2 - want.su2))),
               float(np.max(np.abs(got.vec - want.vec))))


def _check_words_grid():
    worst = 0.0
    for s in np.linspace(-math.pi, math.pi, 50):
        for t in np.linspace(-math.pi / 2.0, math.pi / 2.0, 50):
            worst = max(worst, _word_residual(float(s), float(t)))
    return worst, 2500


def _check_words_random(rng):
    worst = 0.0
    for _ in range(1000):
        s = float(rng.uniform(-math.pi, math.pi))
        t = float(rng.uniform(-math.pi / 2.0, math.pi / 2.0))
        worst = max(worst, _word_residual(s, t))
    return worst, 1000


def _check_words_tilted(rng):
    worst = 0.0
    count = 0
    for d in (0.0, 0.5, 10.0):
        metric = from_parameters(1.0, 1.0, 1.0, d)
        for _ in range(200):
            s = float(rng.uniform(-math.pi, math.pi))
            t = float(rng.uniform(-math.pi / 2.0, math.pi / 2.0))
            worst = max(worst, _word_residual(s, t, use_v=True,
                                              metric=metric))
            count += 1
    return worst, count


def _check_adjoint(rng):
    worst = 0.0
    for _ in range(1000):
        ix = int(rng.integers(0, 3))
        iy = int(rng.integers(0, 3))
        if ix == iy:
            iy = (iy + 1) % 3
        s = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        X = AlgebraElement(np.eye(6)[ix])
        Y = AlgebraElement(np.eye(6)[iy])
        predicted = adjoint_rotate(X, Y, s)
        gy = exp_group(s * Y)
        x = GroupElement(X.su2_matrix(), np.zeros(3))
        conj = mul(mul(gy.inverse(), x), gy)
        worst = max(worst, float(np.max(np.abs(
            conj.su2 - predicted.su2_matrix()))))
    return worst, 1000


def _check_rodrigues(rng):
    worst = 0.0
    for _ in range(1000):
        vec = rng.normal(size=3) * float(rng.uniform(0.0, 10.0))
        full, half, back = (exp_group(AlgebraElement.from_parts(
            c * vec, np.zeros(3))) for c in (1.0, 0.5, -1.0))
        worst = max(worst, float(np.max(np.abs(
            full.su2 - mul(half, half).su2))))
        worst = max(worst, float(np.max(np.abs(
            mul(full, back).su2 - np.eye(2)))))
    return worst, 1000


def _fd_chart_columns(x, eps=1e-5):
    base = psi(Coordinates(np.asarray(x, float), np.zeros(3)))
    cols = []
    for i in range(3):
        step = np.zeros(3)
        step[i] = eps
        fwd = psi(Coordinates(np.asarray(x) + step, np.zeros(3)))
        bwd = psi(Coordinates(np.asarray(x) - step, np.zeros(3)))
        fcol = log_su2(mul(base.inverse(), fwd)).su2_coeffs
        bcol = log_su2(mul(base.inverse(), bwd)).su2_coeffs
        cols.append((fcol - bcol) / (2.0 * eps))
    return np.stack(cols, axis=1)


def _check_jacobian(rng):
    worst = 0.0
    for _ in range(100):
        x = np.array([
            rng.uniform(-2.0 * math.pi, 2.0 * math.pi),
            rng.uniform(-(math.pi / 2.0 - 0.1), math.pi / 2.0 - 0.1),
            rng.uniform(-2.0 * math.pi, 2.0 * math.pi)])
        det = abs(float(np.linalg.det(_fd_chart_columns(x))))
        expected = jacobian(x[1])
        worst = max(worst, abs(det - expected) / expected)
    return worst, 100


def _check_collisions(rng):
    bad = 0
    total = 0
    for _ in range(50):
        x = rng.uniform(-math.pi / 2.0 + 0.2, math.pi / 2.0 - 0.2, 3)
        y = rng.normal(size=3)
        c1 = Coordinates(x, y)
        shift = 2.0 * math.pi * np.array([1.0, 1.0, 0.0])
        c2 = Coordinates(x + shift, y)
        if psi_collision_classify(c1, c2) != CollisionClass.LATTICE:
            bad += 1
        reflected = Coordinates(np.array([
            x[0] + math.pi, math.pi - x[1], x[2] + math.pi]), y)
        if psi_collision_classify(c1, reflected) != \
                CollisionClass.HALF_PI_BRANCH:
            bad += 1
        other = Coordinates(x + np.array([0.4, 0.3, -0.2]), y)
        if psi_collision_classify(c1, other) != CollisionClass.DISTINCT:
            bad += 1
        total += 3
    return float(bad), total


def cmd_verify_identities(cfg):
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    t0 = time.time()
    checks = [
        ("word_grid", *_check_words_grid(), cfg["tol_word"]),
        ("word_random", *_check_words_random(rng), cfg["tol_word"]),
        ("word_tilted_frame", *_check_words_tilted(rng), cfg["tol_word"]),
        ("adjoint_rotation", *_check_adjoint(rng), cfg["tol_adjoint"]),
        ("exp_consistency", *_check_rodrigues(rng), cfg["tol_rodrigues"]),
        ("chart_jacobian_fd", *_check_jacobian(rng), cfg["tol_jacobian"]),
        ("collision_classifier", *_check_collisions(rng),
         cfg["tol_collision"]),
    ]
    rows = []
    failed = False
    for name, residual, count, tol in checks:
        ok = residual <= tol
        failed = failed or not ok
        rows.append({"check": name, "points": count, "max_residual": residual,
                     "tolerance": tol, "status": "pass" if ok else "FAIL"})
    header = ["check", "points", "max_residual", "tolerance", "status"]
    _emit(cfg, "verify_identities", header, rows)
    for row in rows:
        print(f"{row['check']:24s} {row['points']:6d} pts "
              f"residual {row['max_residual']:.3e} "
              f"tol {row['tolerance']:.1e} {row['status']}")
    print(f"elapsed {time.time() - t0:.1f} s")
    return 1 if failed else 0


# -- reduce ------------------------------------------------------------------

def _read_metric_file(path):
    text = Path(path).read_text()
    values = None
    try:
        doc = json.loads(text)
        if isinstance(doc, dict):
            doc = doc.get("gram", doc.get("values"))
        values = np.asarray(doc, dtype=float).reshape(-1)
    except (json.JSONDecodeError, TypeError, ValueError):
        pass
    if values is None:
        try:
            values = np.fromstring(text.replace("\n", ","), sep=",")
        except Exception as exc:
            raise ConfigError(f"cannot parse metric file: {exc}") from exc
        if values.size == 0:
            raise ConfigError("metric file contains no numbers")
    k = math.isqrt(values.size)
    if k * k != values.size or k < 3:
        raise ConfigError(
            f"need a square matrix of side >= 3, got {values.size} numbers")
    return values.reshape(k, k)


def cmd_reduce(cfg, metric_path):
    try:
        gram = _read_metric_file(metric_path)
        tensor = MetricTensor(gram)
    except (ConfigError, NotSPD, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dec = canonicalize(reduce_to_decoupled(tensor))
    res = dec.invariant_residuals()
    doc = json.loads(decoupled_to_json(dec))
    doc["center_dim"] = int(gram.shape[0] - 3)
    doc["residuals"] = {k: float(v) for k, v in res.items()}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


# -- estimate ----------------------------------------------------------------

def _grid_cells(cfg):
    if cfg["a_grid"] is None and cfg["d_grid"] is None \
            and cfg["r_grid"] is None:
        return None
    return default_sweep_grid(cfg["a_grid"] or (cfg["a1"],),
                              cfg["d_grid"] or (cfg["d"],),
                              cfg["r_grid"] or (cfg["r"],))


def cmd_estimate(cfg):
    cells = _grid_cells(cfg)
    if cells is None:
        a_sorted = tuple(sorted((cfg["a1"], cfg["a2"], cfg["a3"])))
        cells = [{"a": a_sorted, "d": cfg["d"], "r": cfg["r"]}]
    bound = vbar_g_doubling_bound()
    rows = []
    for cell in cells:
        inp = EstimatorInputs(cell["r"], cell["a"], cell["d"], cfg["eta"])
        inp2 = EstimatorInputs(2.0 * cell["r"], cell["a"], cell["d"],
                               cfg["eta"])
        m, rho = m_rho(inp)
        half = linear_upper(inp)
        v1, v2 = vbar_g(inp), vbar_g(inp2)
        rows.append({
            "a1": cell["a"][0], "a2": cell["a"][1], "a3": cell["a"][2],
            "d": cell["d"], "r": cell["r"], "eta": cfg["eta"],
            "m1": m[0], "m2": m[1], "m3": m[2],
            "rho1": rho[0], "rho2": rho[1], "rho3": rho[2],
            "vbar": v1, "vbar_2r": v2, "vbar_ratio": v2 / v1,
            "calc_bound": bound,
            "box1": half[0], "box2": half[1], "box3": half[2],
        })
    header = list(rows[0].keys())
    _emit(cfg, "estimate", header, rows)
    print(f"estimate: {len(rows)} rows written to {cfg['out']}")
    return 0


# -- ball-volume -------------------------------------------------------------

def cmd_ball_volume(cfg):
    a_sorted = tuple(sorted((cfg["a1"], cfg["a2"], cfg["a3"])))
    metric = from_parameters(a_sorted[0], a_sorted[1], a_sorted[2], cfg["d"])
    vb = ball_volume(metric, cfg["r"], cfg["samples"], cfg["seed"],
                     cfg["eta"], cfg["c_outer"])
    row = {
        "a1": a_sorted[0], "a2": a_sorted[1], "a3": a_sorted[2],
        "d": cfg["d"], "r": cfg["r"],
        "lower": vb.lower, "upper": vb.upper,
        "ambiguous_mass": vb.ambiguous_mass,
        "n_samples": vb.n_samples, "seed": vb.seed, "mode": vb.mode,
        "flags": ";".join(vb.flags),
    }
    header = list(row.keys())
    _emit(cfg, "ball_volume", header, [row])
    print(json.dumps(row, indent=2, sort_keys=True, default=_fmt))
    if vb.lower > vb.upper:
        return 1
    return 0


# -- sweep -------------------------------------------------------------------

def cmd_sweep(cfg):
    t0 = time.time()
    grid = _grid_cells(cfg)
    if grid is None:
        grid = default_sweep_grid()
    report = sweep(grid, samples=cfg["samples"], seed=cfg["seed"],
                   eta=cfg["eta"], iota=cfg["iota"],
                   c_outer=cfg["c_outer"], m_dd=cfg["m_dd"])
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "sweep_report.csv", cfg, SWEEP_COLUMNS,
               report["rows"])
    if cfg["format"] == "json":
        _write_json(out_dir / "sweep_report.json", cfg,
                    {"rows": report["rows"], "summary": report["summary"]})
    _write_json(out_dir / "sweep_summary.json", cfg,
                {"summary": report["summary"]})
    summary = report["summary"]
    for key in ("cells", "c_emp", "C_emp", "sup_doubling", "calc_bound",
                "envelope_bound", "doubling_ok", "containment_leak",
                "low_confidence_cells", "mdd_emp_max"):
        print(f"{key} = {_fmt(summary[key])}")
    print(f"elapsed {time.time() - t0:.1f} s")
    errors = [row for row in report["rows"] if "error:" in row["flags"]]
    if errors:
        print(f"{len(errors)} cells raised errors", file=sys.stderr)
        return 1
    if not summary["doubling_ok"]:
        print("doubling bound violated", file=sys.stderr)
        return 1
    return 0


# -- entry point -------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--samples", type=int, default=None)
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--format", choices=("csv", "json"), default=None)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="su2vol",
        description="volume doubling toolkit for left-invariant metrics")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("verify-identities", "estimate", "ball-volume", "sweep"):
        _add_common(subs.add_parser(name))
    reduce_p = subs.add_parser("reduce")
    _add_common(reduce_p)
    reduce_p.add_argument("metric_file", help="Gram matrix as CSV or JSON")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify-identities":
            return cmd_verify_identities(cfg)
        if args.command == "reduce":
            return cmd_reduce(cfg, args.metric_file)
        if args.command == "estimate":
            return cmd_estimate(cfg)
        if args.command == "ball-volume":
            return cmd_ball_volume(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
