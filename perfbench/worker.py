"""One run of one workload, in a fresh process started by run.py.

Prints one JSON line.  Set-up is measured from ``--spawned-at`` (the
parent's CLOCK_MONOTONIC reading just before it started this process) to
the first timed op: interpreter start, imports, input generation and
warm-up.  With ``--setup-only`` the process stops there.

Untraced (``--trace 0``): batches run until ``--seconds`` have passed, then
every op's output is checked.  Traced (``--trace 1``): batches run
untraced for half of ``--seconds``, then the tracer is installed, the
inputs are generated again and the same batches run again.  The traced
results must hash to the same digest as the untraced ones.
"""
import os

# before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from stats import failed_fraction, percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, Sweep, api  # noqa: E402


def run_phase(wl, seconds, n_batches=None, tracer=None):
    """Run batches; returns (raw outputs, per-batch seconds).

    Without n_batches, stops after `seconds` once the digest batches are
    done.
    """
    raws, durs = [], []
    t_begin = perf_counter()
    b = 0
    while True:
        if n_batches is not None:
            if b >= n_batches:
                break
        elif (b >= wl.digest_batches
              and perf_counter() - t_begin >= seconds):
            break
        if tracer is not None:
            tracer.current_op = b
        t0 = perf_counter()
        try:
            raw = wl.run_batch(b)
        except Exception as exc:  # a failed op: counted, never fatal
            raw = exc
        durs.append(perf_counter() - t0)
        raws.append(raw)
        b += 1
    return raws, durs


def environment():
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def summarize(ops):
    """Per-run figures from the op records.

    ``invalid`` ops failed any check; ``failed`` ops failed a check that is
    not a known defect.
    """
    failures = collections.Counter(f for op in ops for f in op["failures"])
    invalid = sum(not op["ok"] for op in ops)
    failed = sum(any(f not in KNOWN_DEFECTS for f in op["failures"])
                 for op in ops)
    ratios = [r for op in ops for r in op["ratios"]]
    flagged = [op["low_confidence"] for op in ops
               if op["low_confidence"] is not None]
    return {
        "attempted": len(ops), "failed": failed, "invalid": invalid,
        "failed_fraction": failed_fraction(len(ops), invalid),
        "failures": dict(sorted(failures.items())),
        "bracket_ratio_p50": percentile(ratios, 50) if ratios else None,
        "bracket_decades_mean": (
            statistics.fmean(math.log10(1.0 + r) for r in ratios)
            if ratios else None),
        "low_confidence_fraction": (sum(flagged) / len(flagged)
                                    if flagged else None),
    }


def timings(wl, durs):
    per_op = [d / wl.ops_per_batch for d in durs
              for _ in range(wl.ops_per_batch)]
    return {"timed_s": sum(durs), "batches": len(durs),
            "ops_per_s": len(per_op) / sum(durs),
            "op_p50_ms": 1e3 * percentile(per_op, 50),
            "op_p90_ms": 1e3 * percentile(per_op, 90)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--full-grid", action="store_true")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=out)
    try:
        cls = WORKLOADS[args.workload]
        if cls is Sweep:
            wl = cls(args.seed, work_dir, full_grid=args.full_grid)
        else:
            wl = cls(args.seed, work_dir)
        wl.make_inputs()
        wl.warm_up()
        setup_s = time.monotonic() - args.spawned_at
        result = {"workload": wl.name, "seed": args.seed,
                  "trace": args.trace, "setup_s": setup_s,
                  "env": environment()}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        if args.full_grid:
            raws, durs = run_phase(wl, 0.0, n_batches=1)
        else:
            seconds = args.seconds / 2 if args.trace else args.seconds
            raws, durs = run_phase(wl, seconds)
        result.update(timings(wl, durs))
        ops, result["digest"] = wl.evaluate(raws)
        result["consistent"] = True
        if args.trace:
            tracer = Tracer()
            t0 = perf_counter()
            tracer.install(api)
            try:
                wl.make_inputs()
                traced_raws, traced_durs = run_phase(
                    wl, 0.0, n_batches=len(raws), tracer=tracer)
            finally:
                tracer.uninstall()
            wall = perf_counter() - t0
            tracer.counters.update(wl.extra_counters(traced_raws))
            layers, consistent = tracer.layer_metrics(wall)
            layers["trace.overhead_s"] = sum(traced_durs) - sum(durs)
            traced_ops, traced_digest = wl.evaluate(traced_raws)
            ops += traced_ops
            result["layers"] = layers
            result["consistent"] = (consistent
                                    and traced_digest == result["digest"])
            tracer.write(out / f"trace-{wl.name}-seed{args.seed}.npz")
        result.update(summarize(ops))
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
