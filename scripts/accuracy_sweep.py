#!/usr/bin/env python3
"""Accuracy vs counter-memory sweep on a synthetic trace.

Shrinks the long-register budget step by step and reports FPR/FNR/FTR at
each size, which is the memory/accuracy trade the two-tier design is
about: the candidate sketch stays at a few tens of KB while the filter
array absorbs the budget.

    python3 scripts/accuracy_sweep.py --n-pairs 500000 --n-super 30
"""

import argparse

from sspd.evaluation import ExactOracle, TraceSpec, generate_trace, metrics
from sspd.window_detector import DetectorParams, DetectorState

DEFAULTS = DetectorParams()


def run_once(trace, theta, k, v, design_n, seed):
    params = DetectorParams(theta=theta, k=k, v=v, design_n=design_n, master_seed=seed)
    state = DetectorState.create(params)
    for lo in range(0, len(trace.hips), 1 << 16):
        state.process_batch(trace.hips[lo:lo + (1 << 16)],
                            trace.oips[lo:lo + (1 << 16)])
    detected = [r.ip for r in state.finalize_window()]
    return detected, params


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theta", type=int, default=DEFAULTS.theta)
    ap.add_argument("--n-super", type=int, default=50)
    ap.add_argument("--n-background", type=int, default=100_000)
    ap.add_argument("--n-pairs", type=int, default=1_000_000)
    ap.add_argument("--k", type=int, default=DEFAULTS.k)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULTS.master_seed)
    ap.add_argument("--gen-seed", type=int, default=1)
    args = ap.parse_args()

    spec = TraceSpec(n_super=args.n_super,
                     super_cardinality_range=(2 * args.theta, 2 * args.theta),
                     n_background=args.n_background,
                     background_cardinality_range=(1, 8),
                     n_pairs=args.n_pairs, slices=1, seed=args.gen_seed)
    trace = generate_trace(spec)
    oracle = ExactOracle(trace.hips, trace.oips)
    truth = oracle.superpoints(args.theta)
    distinct = int(oracle.counts.sum())
    print(f"trace: {len(trace)} pairs, {distinct} distinct, "
          f"{len(truth)} true super points")
    print(f"{'ldca_bytes':>12} {'lr':>3} {'lc':>6} {'fpr':>7} {'fnr':>7} {'ftr':>7}")
    for v in (8192, 4096, 2048, 1024, 512, 256):
        detected, params = run_once(trace, args.theta, args.k, v,
                                    design_n=distinct, seed=args.seed)
        fpr, fnr, ftr = metrics(detected, truth)
        cfg = params.ldca_config()
        print(f"{cfg.memory_bytes():>12} {cfg.lr:>3} {cfg.lc:>6} "
              f"{fpr:>7.4f} {fnr:>7.4f} {ftr:>7.4f}")


if __name__ == "__main__":
    main()
