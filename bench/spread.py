"""Run one workload once per seed and report each metric's median and spread.

    python3 bench/spread.py --workload train_short --seeds 1-10

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure BENCHMARK.json's bounds are set against.  Runs are sequential,
untraced and BENCHMARK.json's ``run_seconds`` long.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="first-last")
    args = p.parse_args(argv)
    seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    values, ok = {}, True
    for seed in args.seeds:
        started = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if run.returncode != 0 or result is None or not result["correct"]:
            ok = False
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}", file=sys.stderr)
            continue
        print(f"seed {seed}: {time.perf_counter() - started:.1f} s wall, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:40s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {(q3 - q1) / median:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
