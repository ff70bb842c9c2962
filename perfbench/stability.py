"""Run one workload once per seed and summarize each end-to-end metric.

    python3 perfbench/stability.py --workload steady --seeds 1-10 --seconds 20

Runs are sequential, one process each, from the repository root.  For every
metric it prints the median, the first and third quartile
(statistics.quantiles(values, n=4)) and their distance as a share of the
median, and checks that share against a third of the metric's bound in
BENCHMARK.json.  --json writes the raw results too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--json", type=Path, help="write the raw run results here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in seed_list(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"], result["wall_s"] = seed, wall
        runs.append(result)
        print(f"seed {seed}: {wall:.1f} s, failed {result['failed']}/{result['attempted']}, "
              + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    ok = True
    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        flag = ""
        if spread > metric["bound"] / 3:
            flag = "  > bound/3"
            ok = False
        print(f"{metric['name']:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
              f"{metric['bound']:6.2f}{flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}; max run wall {max(r['wall_s'] for r in runs):.1f} s")
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1))
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
