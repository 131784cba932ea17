"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload ball --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one after another, and prints each
metric's median and its quartile spread (Q3 - Q1) / median next to the
bound in BENCHMARK.json.  With ``--json FILE`` it also writes every run's
result line there.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--json", help="write every run's result line here")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, check=True)
        line = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        runs.append({"seed": seed, **line})
        print(f"seed {seed}: correct {line['correct']} attempted "
              f"{line['attempted']} failed {line['failed']}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        print(f"{metric['name']:20s} median {statistics.median(values):.6g} "
              f"spread {spread:.4f} bound {metric['bound']}  "
              f"values {[float(f'{v:.5g}') for v in sorted(values)]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
