#!/usr/bin/env python3
"""Demonstrate the discrete-window blind spot and the sliding fix.

A host talks to theta/2 distinct peers just before a window boundary and
to theta/2 fresh peers just after it.  Neither discrete window sees
enough to report; a sliding window straddling the boundary does.

    python3 scripts/boundary_window_demo.py --theta 1024 --window-slices 20
"""

import argparse

import numpy as np

from sspd.sliding import SlidingDetector
from sspd.window_detector import DetectorParams, DetectorState


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theta", type=int, default=1024)
    ap.add_argument("--window-slices", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0x5EED)
    args = ap.parse_args()

    w = args.window_slices
    half = args.theta // 2
    params = DetectorParams(theta=args.theta, k=8192, lr=2, v=32,
                            design_n=args.theta, master_seed=args.seed)
    rng = np.random.default_rng(7)
    hip = 0xC0A86401
    peers_before = np.unique(rng.integers(0, 2**31, size=half + 64,
                                          dtype=np.uint64))[:half]
    peers_after = np.unique(rng.integers(2**31, 2**32, size=half + 64,
                                         dtype=np.uint64))[:half]

    for label, peers in (("window 1", peers_before), ("window 2", peers_after)):
        st = DetectorState.create(params)
        st.process_batch(np.full(half, hip, dtype=np.uint64), peers)
        reports = st.finalize_window()
        print(f"discrete {label}: {half} distinct peers -> "
              f"{len(reports)} report(s)")

    # The host is live during slices [w/2, w/2 + w): half before the
    # boundary at slice w, half after it.
    det = SlidingDetector(params, window_slices=w)
    start = w // 2
    per_slice = np.array_split(np.concatenate([peers_before, peers_after]), w)
    first_hit = None
    for s in range(2 * w):
        j = s - start
        if 0 <= j < w and len(per_slice[j]):
            det.observe_batch(np.full(len(per_slice[j]), hip, dtype=np.uint64),
                              per_slice[j])
        for rep in det.detect():
            if first_hit is None and rep.ip == hip:
                first_hit = (s, rep.estimated_cardinality)
        det.advance_slice()

    if first_hit is None:
        print("sliding detector: host never reported (unexpected)")
    else:
        s, est = first_hit
        print(f"sliding detector: host reported first at slide {s} "
              f"with estimate {est:.0f} (true {args.theta})")


if __name__ == "__main__":
    main()
