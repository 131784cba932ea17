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
from .balls import (SWEEP_COLUMNS, ball_volume, default_sweep_grid, sweep,
                    sweep_cells)
from .frames import (CollisionClass, Coordinates, adjoint_rotate,
                     commutator_identity, jacobian, psi,
                     psi_collision_classify, word_group_element)
from .metrics import (InvalidParameters, MetricTensor, NotSPD, canonicalize,
                      decoupled_to_json, from_parameters,
                      reduce_to_decoupled)
from .volumes import (EstimatorInputs, linear_upper, m_rho, vbar_g,
                      vbar_g_doubling_bound)


class ConfigError(Exception):
    pass


def _float_list(raw):
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


# the values a key accepts: a predicate, and the same rule in words
_ANY = (lambda v: True, "any path")
_POSITIVE = (lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")
_NONNEGATIVE = (lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0")


def _grid(rule):
    accepts, words = rule
    return (lambda grid: len(grid) > 0 and all(accepts(v) for v in grid),
            f"a non-empty list, each {words}")


# every config key: its parser, its default and the values it accepts;
# a grid left unset (None) is its axis's single value
_KEYS = {
    "eta": (float, 0.1, _POSITIVE),
    "iota": (float, math.pi / 4.0,
             (lambda v: 0.0 < v <= math.pi / 3.0, "in (0, pi/3]")),
    "seed": (int, 0, (lambda v: v >= 0, ">= 0")),
    "samples": (int, 10000, (lambda v: v >= 1, ">= 1")),
    "format": (str, "csv", (lambda v: v in ("csv", "json"), "csv or json")),
    "out": (str, ".", _ANY),
    "a1": (float, 1.0, _POSITIVE), "a2": (float, 1.0, _POSITIVE),
    "a3": (float, 1.0, _POSITIVE),
    "d": (float, 0.0, _NONNEGATIVE), "r": (float, 0.1, _POSITIVE),
    "a_grid": (_float_list, None, _grid(_POSITIVE)),
    "d_grid": (_float_list, None, _grid(_NONNEGATIVE)),
    "r_grid": (_float_list, None, _grid(_POSITIVE)),
}
# the command line flags; those named after a config key override it
_FLAG_OPTIONS = {
    "config": {"help": "key=value config file"},
    "seed": {"type": int},
    "samples": {"type": int},
    "out": {"help": "output directory"},
    "format": {"choices": ("csv", "json")},
}


def default_config():
    return {key: default for key, (_, default, _) in _KEYS.items()}


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
    if key not in _KEYS:
        raise ConfigError(f"unknown config key: {key}")
    try:
        return _KEYS[key][0](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def load_config(args):
    cfg = default_config()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for key, raw in _parse_config_text(path.read_text()).items():
            cfg[key] = _convert(key, raw)
    for key in _FLAG_OPTIONS:
        val = getattr(args, key, None)
        if key in _KEYS and val is not None:
            cfg[key] = val
    _validate_config(cfg)
    return cfg


def _validate_config(cfg):
    for key, (_, _, (accepts, words)) in _KEYS.items():
        if cfg[key] is not None and not accepts(cfg[key]):
            raise ConfigError(f"{key} must be {words}, got {cfg[key]!r}")


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
    """Effective config without the output directory, a deployment path,
    so reports do not depend on where they are written."""
    return {k: cfg[k] for k in sorted(cfg)
            if cfg[k] is not None and k != "out"}


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

# words and exact identities hold to rounding, the central-difference
# Jacobian to its truncation error, and no collision pair may be misfiled
_WORD_TOL = 1e-10
_ADJOINT_TOL = 1e-12
_RODRIGUES_TOL = 1e-12
_JACOBIAN_TOL = 1e-5
_COLLISION_TOL = 0.0


def _check_words(cases):
    """Largest residual of the commutator word against its one-factor
    identity over (s, t, metric, use_v) cases."""
    worst = 0.0
    for s, t, metric, use_v in cases:
        f, _ = commutator_identity(s, t)
        got = word_group_element(s, t, (0, 1, 2), use_v=use_v, m=metric)
        want = exp_group(AlgebraElement(f * metric.u_columns()[:, 2]))
        worst = max(worst, float(np.max(np.abs(got.su2 - want.su2))),
                    float(np.max(np.abs(got.vec - want.vec))))
    return worst, len(cases)


def _random_word_angles(rng):
    return (float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(-math.pi / 2.0, math.pi / 2.0)))


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
    standard = from_parameters(1.0, 1.0, 1.0, 0.0)
    grid = [(float(s), float(t), standard, False)
            for s in np.linspace(-math.pi, math.pi, 50)
            for t in np.linspace(-math.pi / 2.0, math.pi / 2.0, 50)]
    # drawn before the other checks, 1000 standard pairs and then 200
    # pairs through each tilted frame's v
    drawn = [(*_random_word_angles(rng), standard, False)
             for _ in range(1000)]
    tilted = [(*_random_word_angles(rng), metric, True)
              for metric in (from_parameters(1.0, 1.0, 1.0, d)
                             for d in (0.0, 0.5, 10.0))
              for _ in range(200)]
    checks = [
        ("word_grid", *_check_words(grid), _WORD_TOL),
        ("word_random", *_check_words(drawn), _WORD_TOL),
        ("word_tilted_frame", *_check_words(tilted), _WORD_TOL),
        ("adjoint_rotation", *_check_adjoint(rng), _ADJOINT_TOL),
        ("exp_consistency", *_check_rodrigues(rng), _RODRIGUES_TOL),
        ("chart_jacobian_fd", *_check_jacobian(rng), _JACOBIAN_TOL),
        ("collision_classifier", *_check_collisions(rng), _COLLISION_TOL),
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


def cmd_reduce(metric_path):
    try:
        gram = _read_metric_file(metric_path)
        dec = canonicalize(reduce_to_decoupled(MetricTensor(gram)))
    except (ConfigError, NotSPD, InvalidParameters, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res = dec.invariant_residuals()
    doc = json.loads(decoupled_to_json(dec))
    doc["center_dim"] = int(gram.shape[0] - 3)
    doc["residuals"] = {k: float(v) for k, v in res.items()}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


# -- estimate ----------------------------------------------------------------

def _configured_triple(cfg):
    return tuple(sorted((cfg["a1"], cfg["a2"], cfg["a3"])))


def _grid_cells(cfg):
    """The config's grid; an unset axis is its one configured value, and
    an unset a_grid the one triple sorted((a1, a2, a3))."""
    d_vals = cfg["d_grid"] or (cfg["d"],)
    r_vals = cfg["r_grid"] or (cfg["r"],)
    if cfg["a_grid"] is not None:
        return default_sweep_grid(cfg["a_grid"], d_vals, r_vals)
    return sweep_cells([_configured_triple(cfg)], d_vals, r_vals)


def cmd_estimate(cfg):
    cells = _grid_cells(cfg)
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
    a_sorted = _configured_triple(cfg)
    try:
        metric = from_parameters(*a_sorted, cfg["d"])
        vb = ball_volume(metric, cfg["r"], cfg["samples"], cfg["seed"],
                         cfg["eta"])
    except (InvalidParameters, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    t0 = time.monotonic()
    # with no grid key set, the sweep runs its default grid
    gridded = any(cfg[k] is not None for k in ("a_grid", "d_grid", "r_grid"))
    report = sweep(_grid_cells(cfg) if gridded else default_sweep_grid(),
                   samples=cfg["samples"], seed=cfg["seed"], eta=cfg["eta"],
                   iota=cfg["iota"])
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
    print(f"workers = {report['workers']}")
    print(f"elapsed {time.monotonic() - t0:.1f} s")
    errors = [row for row in report["rows"] if "error:" in row["flags"]]
    if errors:
        print(f"{len(errors)} cells raised errors", file=sys.stderr)
        return 1
    if not summary["doubling_ok"]:
        print("doubling bound violated", file=sys.stderr)
        return 1
    return 0


# -- entry point -------------------------------------------------------------

# the flags each subcommand reads; reduce reads only its metric file
_COMMANDS = {
    "verify-identities": (cmd_verify_identities,
                          ("config", "seed", "out", "format")),
    "estimate": (cmd_estimate, ("config", "out", "format")),
    "ball-volume": (cmd_ball_volume,
                    ("config", "seed", "samples", "out", "format")),
    "sweep": (cmd_sweep, ("config", "seed", "samples", "out", "format")),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="su2vol",
        description="volume doubling toolkit for left-invariant metrics")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sub = subs.add_parser(name)
        for flag in flags:
            sub.add_argument(f"--{flag}", **_FLAG_OPTIONS[flag])
    subs.add_parser("reduce").add_argument(
        "metric_file", help="Gram matrix as CSV or JSON")
    args = parser.parse_args(argv)
    if args.command == "reduce":
        return cmd_reduce(args.metric_file)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command][0](cfg)


if __name__ == "__main__":
    sys.exit(main())
