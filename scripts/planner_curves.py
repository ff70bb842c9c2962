#!/usr/bin/env python3
"""Union-noise probability as a function of the row count.

Prints psu and the expected noise-bit count psu*k across LR for a fixed
register budget, marking the planner's pick, so you can see the
diminishing-returns valley the optimum sits in.

    python3 scripts/planner_curves.py --v 8192 --k 8192 --n 1e6
"""

import argparse

from sspd.long_sketch import noise_factor, plan_rows, psu
from sspd.window_detector import DetectorParams

DEFAULTS = DetectorParams()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--v", type=int, default=DEFAULTS.v)
    ap.add_argument("--k", type=int, default=DEFAULTS.k)
    ap.add_argument("--n", type=float, default=DEFAULTS.design_n)
    ap.add_argument("--max-lr", type=int, default=16)
    args = ap.parse_args()

    best, _ = plan_rows(args.v, args.n, args.k, max_rows=None)
    clamped, _ = plan_rows(args.v, args.n, args.k)
    print(f"budget V={args.v}, k={args.k}, expected pairs N={args.n:g}")
    print(f"analytic optimum rounds to LR={best}; default clamp gives LR={clamped}")
    print(f"{'lr':>4} {'lc':>6} {'psu':>12} {'psu*k':>12}")
    for lr in range(1, args.max_lr + 1):
        lc = args.v // lr
        p = psu(args.k, args.n, lc, lr)
        mark = "  <- planned" if lr == clamped else ""
        print(f"{lr:>4} {lc:>6} {p:>12.4e} {noise_factor(args.k, args.n, lc, lr):>12.4e}{mark}")


if __name__ == "__main__":
    main()
