"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload http_ingest --runs 10 --seconds 10

Spread is the distance between the first and third quartile of the runs'
values as a share of their median, the figure BENCHMARK.json's bounds are
set against.  Seeds are first-seed, first-seed+1, ...
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import iqr_share

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=HERE.parent,
        ).stdout.splitlines()
        result = json.loads(out[-1])
        validity = json.loads(next(line for line in out if line.startswith("validity")).split(None, 1)[1])
        print(
            f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            + f" steal={validity['steal_share']:.3f}",
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = iqr_share(vals)
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of its bound"
        print(f"{name:<18} median {statistics.median(vals):<12.5g} spread {spread:.4f} bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
