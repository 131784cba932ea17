"""su2vol benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload ball --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload sweep --seed 2031 --full-grid

Workloads (see workloads.py): ``sweep``, ``ball``, ``hexagon`` and
``distance``.  Each run happens in a fresh worker process with one BLAS
thread and ``PYTHONPATH=src``.  With ``--trace 0`` the run reports the
end-to-end metrics; set-up is started several times and its median
reported.  With ``--trace 1`` it reports per-layer metrics from a traced
replay and writes the spans to ``perfbench/out/``.  ``--full-grid`` runs
one untimed pass of the default 700-cell sweep grid and reports its check
failures.

Output: a readable report, then as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
ops that raised or failed a check; known-defect brackets (see
workloads.py) are left out of it and counted in ``ok_fraction``;
``correct`` is false when a run-level invariant fails (the traced replay
must reproduce the untraced digest and its self times must add up).
Exit code 1, with no result line, when a worker cannot run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "ball", "hexagon", "distance")
SETUPS = 5  # set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("ok_fraction", "ratio"),
    ("bracket_decades_mean", "decade"),
)


LAYER_UNITS = (
    (("calls", "samples", "points", "nfev", "failures", "cell_errors",
      "spans"), "count"),
    (("ns_per_sample",), "ns"), (("us_per_call",), "us"),
    (("report_bytes",), "bytes"),
    (("hexagon_mode_share", "ambiguous_share_p50",
      "low_confidence_fraction"), "ratio"),
)


def layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    for suffixes, unit in LAYER_UNITS:
        if last in suffixes:
            return unit
    return "s"


class WorkerError(Exception):
    pass


def run_worker(args, extra, deadline):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(HERE / "out")] + extra
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{args.workload} worker timed out") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"{args.workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args):
    """Run one workload; returns (worker result, contract result line)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    extra = ["--full-grid"] if args.full_grid else []
    setups = []
    if not args.trace and not args.full_grid:
        setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUPS - 1)]
    res = run_worker(args, extra, deadline)
    setups.append(res["setup_s"])
    res["setup_s"] = statistics.median(setups)
    res["setup_samples"] = setups
    res["ok_fraction"] = 1.0 - res["failed_fraction"]
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": res[k], "unit": unit}
                   for k, unit in END_TO_END}
    line = {"correct": bool(res["consistent"]),
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}
    return res, line


def report(res, line):
    """Readable block: every metric by name, unit, op count and seed."""
    env = res["env"]
    print(f"== {res['workload']}  seed {res['seed']}  "
          f"ops {res['attempted']}  batches {res['batches']}  "
          f"timed {res['timed_s']:.2f} s  trace {res['trace']}")
    print(f"   nproc {env['nproc']} (allowed {env['cpus_allowed']})  "
          f"python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}")
    for name, m in line["metrics"].items():
        print(f"   {name:40s} {m['value']:.6g} {m['unit']}")
    extra = {"failed_fraction": res["failed_fraction"],
             "bracket_ratio_p50": res["bracket_ratio_p50"],
             "low_confidence_fraction": res["low_confidence_fraction"]}
    for name, value in extra.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {name:40s} {shown} ratio")
    print(f"   invalid {res['invalid']}  failed {res['failed']}  "
          f"failures {res['failures']}  setup samples "
          f"{[round(s, 3) for s in res['setup_samples']]}")
    print(f"   digest sha256 {res['digest']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full-grid", action="store_true",
                    help="one pass of the default sweep grid (sweep only)")
    args = ap.parse_args(argv)
    if args.full_grid and args.workload != "sweep":
        ap.error("--full-grid applies to the sweep workload only")
    if not (ROOT / "src" / "su2vol").is_dir():
        print(f"error: no su2vol package under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            res, line = measure(argparse.Namespace(**{**vars(args),
                                                      "workload": name}))
            report(res, line)
            lines[name] = line
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
