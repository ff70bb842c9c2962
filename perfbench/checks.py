"""Ground truth and output checks for the benchmark.

The truth is computed here from the pairs the benchmark handed in, never
taken from sspd, and never from a stored copy of earlier reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

U64 = np.uint64


# What a window's report list must satisfy.
#
# RECALL_FLOOR       share of true super points (>= theta distinct opposite
#                    IPs) that must be reported.  Hosts just above theta are
#                    missed now and then by design: a host needs 3 sampled
#                    bits in its candidate register, so the floor is not 1.
# MAX_FALSE_REPORTS  reports of hosts below theta allowed per window.  The
#                    workloads hold no host between beta*theta and theta, so
#                    a correct detector reports none.
# MAX_REL_ERROR      bound on |estimate - truth| / truth for every
#                    non-saturated estimate of a true super point.  Linear
#                    counting at k=8192 errs by about 1 % here.
RECALL_FLOOR = 0.95
MAX_FALSE_REPORTS = 0
MAX_REL_ERROR = 0.10


@dataclass(frozen=True)
class Truth:
    """Exact distinct opposite-IP count of every host in one window."""

    hosts: np.ndarray   # sorted uint64
    counts: np.ndarray  # int64, aligned with hosts

    def count(self, ip: int) -> int:
        i = int(np.searchsorted(self.hosts, U64(ip)))
        if i < len(self.hosts) and int(self.hosts[i]) == ip:
            return int(self.counts[i])
        return 0

    def superpoints(self, theta: int) -> dict[int, int]:
        heavy = self.counts >= theta
        return dict(zip(self.hosts[heavy].tolist(), self.counts[heavy].tolist()))


def truth_of(hips: np.ndarray, oips: np.ndarray) -> Truth:
    """Distinct (hip, oip) keys, then distinct keys per host.

    Sort-and-mask gives what np.unique does; under numpy 2.4 np.unique on
    1.5M uint64 keys took 1.6 s against 0.02 s for the sort.
    """
    key = (hips.astype(U64) << U64(32)) | oips.astype(U64)
    key.sort()
    distinct = key[np.concatenate(([True], key[1:] != key[:-1]))]
    host = distinct >> U64(32)
    first = np.flatnonzero(np.concatenate(([True], host[1:] != host[:-1])))
    counts = np.diff(np.append(first, len(host)))
    return Truth(hosts=host[first], counts=counts.astype(np.int64))


def report_key(reports) -> list[tuple[int, float, bool]]:
    """What two report lists must share to count as identical."""
    return [(r.ip, r.estimated_cardinality, r.saturated) for r in reports]


def check_window(reports, truth: Truth, theta: int) -> tuple[list[str], int]:
    """Check one window's reports; returns (problems, true super points found)."""
    problems = []
    ips = [r.ip for r in reports]
    if any(b <= a for a, b in zip(ips, ips[1:])):
        problems.append("reports are not unique and sorted by IP")
    true = truth.superpoints(theta)
    found = set(ips) & true.keys()
    if true and len(found) / len(true) < RECALL_FLOOR:
        problems.append(f"recall {len(found)}/{len(true)} below {RECALL_FLOOR}")
    false = [ip for ip in ips if ip not in true]
    if len(false) > MAX_FALSE_REPORTS:
        problems.append(f"{len(false)} reports of hosts below theta, e.g. {false[0]:#010x} "
                        f"with {truth.count(false[0])} peers")
    for r in reports:
        if r.ip in true and not r.saturated:
            error = abs(r.estimated_cardinality - true[r.ip]) / true[r.ip]
            if error > MAX_REL_ERROR:
                problems.append(f"estimate {r.estimated_cardinality:.0f} of {r.ip:#010x} is "
                                f"{error:.1%} off its {true[r.ip]} peers")
    return problems, len(found)
