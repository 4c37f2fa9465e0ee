"""Scan a range of bench seeds for rounds that fail the held-out recall floors.

    python tools/seed_scan.py --workload rank_ensemble --seeds 300-419

For each seed it runs one round of ``bench/run.py`` through that file's own
functions (``write_inputs``, ``set_up``, ``deploy``, ``run_round``) in a
temporary directory, then checks the round with its ``check_round``.  It
prints one line per floored member (``RECALL_FLOOR``): the seed, the check's
name, ``pass`` or ``fail`` and the check's own detail (held-out recall@1
against the floor), then every other check that failed, and last the
failure rate over the seeds.  Every round retrains from its seed, so a seed
that fails here fails every bench run of the same code.

The scan measures how often the bench's checks fail; it must not be used to
pick bench seeds.  A seed is not dropped or re-picked because it fails.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run as bench  # noqa: E402  (sets the BLAS thread variables before numpy loads)


def seed_range(text):
    """``A-B`` (both included) or a single seed."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def scan_seed(w, seed):
    """The check results of one bench round at ``seed``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        paths, _ = bench.write_inputs(w, seed, out)
        data = bench.set_up(w, paths, seed)
        serving = bench.deploy(w, data, seed, out)
        result = bench.run_round(w, paths, seed, out, serving, None, [0])
        checks = bench.Checks()
        bench.check_round(w, result, checks)
    return checks.results


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    p.add_argument("--seeds", required=True, type=seed_range, help="A-B, both included")
    args = p.parse_args(argv)
    w = bench.WORKLOADS[args.workload]
    failed_seeds = {f"recall_floor.{arch}": [] for arch in bench.RECALL_FLOOR}
    for seed in args.seeds:
        results = scan_seed(w, seed)
        for name, passed, detail in results:
            if name in failed_seeds:
                print(f"{seed}\t{name}\t{'pass' if passed else 'fail'}\t{detail}", flush=True)
                if not passed:
                    failed_seeds[name].append(seed)
            elif not passed:
                print(f"{seed}\t{name}\tfail\t{detail}", flush=True)
    n = len(args.seeds)
    for name, seeds in failed_seeds.items():
        print(f"failure_rate\t{name}\t{len(seeds)}/{n}\t{', '.join(map(str, seeds)) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
