#!/usr/bin/env python3
"""Digest of the reports of one benchmark round per workload.

Replays one round of each perfbench workload (the same inputs, windows and
checks as ``perfbench/run.py`` at that seed, untimed) and prints the sha256
of every window's ``report_key`` list, in window order.  Two checkouts
whose digests match gave byte-identical reports.  A workload that ships
frames (distsim) gets a second line: the sha256 over every frame
``sspd.distributed.serialize`` returned in the round, in call order.
Exits 1 when any workload fails a check.  ``report_digests.expected``
beside this script holds the output at seeds 1 and 2, one after the other;
CI diffs against it.

    python3 scripts/report_digests.py --seed 1
    python3 scripts/report_digests.py --seed 1 --workload steady --workload flood

Run from the repository root; sspd is imported from src/.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import sspd  # noqa: E402
import workloads  # noqa: E402
from checks import report_key  # noqa: E402


def round_reports(name: str, seed: int) -> tuple[list, int, str, int]:
    """report_key of each window of one round, the failed-check count, and
    the sha256 and count of the frames serialized in the round."""
    keys: dict[int, list] = {}
    frames = hashlib.sha256()
    n_frames = 0
    check = workloads.Loop.check
    serialize = sspd.distributed.serialize

    def keep_first(loop, position, reports, truth):
        keys.setdefault(position, report_key(reports))
        check(loop, position, reports, truth)

    def hashing_serialize(sketch, window_id):
        nonlocal n_frames
        data = serialize(sketch, window_id)
        frames.update(data)
        n_frames += 1
        return data

    workloads.Loop.check = keep_first
    sspd.distributed.serialize = hashing_serialize
    try:
        spec = workloads.SPECS[name]
        # seconds=0: a run always finishes its first round, and stops there.
        result = workloads.run(name, sspd, spec.build(sspd), seed, 0.0, None)
    finally:
        workloads.Loop.check = check
        sspd.distributed.serialize = serialize
    return [keys[p] for p in sorted(keys)], result.failed, frames.hexdigest(), n_frames


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", choices=sorted(workloads.SPECS),
                    help="workload to replay (repeatable; default: all four)")
    args = ap.parse_args()

    any_failed = False
    for name in args.workload or list(workloads.SPECS):
        keys, failed, frame_digest, n_frames = round_reports(name, args.seed)
        digest = hashlib.sha256(repr(keys).encode()).hexdigest()
        print(f"{name:8} {digest}  windows={len(keys)} reports={sum(map(len, keys))} "
              f"failed_checks={failed}")
        if n_frames:
            print(f"{name:8} {frame_digest}  frames={n_frames}")
        any_failed |= failed > 0
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
