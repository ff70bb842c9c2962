"""Benchmark command: replays seeded IP-pair streams through sspd's library API.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Workloads: steady, flood, sliding, distsim (see README.md).  With
``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, whose spans also go to out/trace_<workload>_seed<n>.json next
to this file.  Run from the repository root; sspd is imported from src/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 25


def measure_setup(spec):
    """Median over repeats of: import sspd afresh, build the detector.

    Returns (median seconds, the sspd module, the detector of the last repeat).
    """
    samples = []
    built = None
    for _ in range(SETUP_REPEATS):
        built = None  # free the previous detector before building the next
        for name in [n for n in sys.modules if n == "sspd" or n.startswith("sspd.")]:
            del sys.modules[name]
        t0 = perf_counter()
        sspd = importlib.import_module("sspd")
        built = spec.build(sspd)
        samples.append(perf_counter() - t0)
    return statistics.median(samples), sspd, built


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = workloads.SPECS[args.workload]
    setup_s, sspd, built = measure_setup(spec)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(sspd)
    try:
        result = workloads.run(args.workload, sspd, built, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    for problem in result.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    if tracer is None:
        print(f"samples: {len(result.latencies)} report lists, "
              f"{len(result.rates)} windows for pairs_per_s")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pairs_per_s": {"value": workloads.median(result.rates), "unit": "pairs/s"},
            "report_latency_s_p50": {"value": workloads.median(result.latencies), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "state_bytes": {"value": result.state_bytes, "unit": "bytes"},
            "superpoints_found": {"value": result.superpoints_found, "unit": "count"},
        }
    else:
        metrics = tracer.per_layer(result.traced_rates, result.rates)
        out = HERE / "out" / f"trace_{args.workload}_seed{args.seed}.json"
        tracer.write(out, {"workload": args.workload, "seed": args.seed}, metrics)
        print(f"samples: {len(result.traced_rates)} traced and {len(result.rates)} untraced "
              f"windows; spans in {out.relative_to(HERE.parent)}")
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
