"""Ground truth, accuracy metrics, and synthetic trace generation.

The oracle keeps exact per-host distinct opposite-IP sets, so detector
output can be scored without any estimation error of its own.  Note the
rate definitions: both the false-positive and the false-negative rate
are normalized by the number of true super points (not by the number of
detections), and their sum is the headline "false total rate".
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, UndefinedMetricError
from .hashing import MASK32, mix64

TRACE_DTYPE = np.dtype([("slice", "<u4"), ("hip", "<u4"), ("oip", "<u4")])

# Pairs a trace may hold or plant: below this numpy can hold one uint64
# per pair in an array below its 2^63-byte limit.
MAX_PAIRS = 1 << 60


def ip_to_str(ip: int) -> str:
    return str(ipaddress.IPv4Address(ip))


def ip_from_str(text: str) -> int:
    return int(ipaddress.IPv4Address(text))


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) by one sort and an adjacent-difference mask:
    under numpy 2.4, np.unique is many times slower on integer keys."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class ExactOracle:
    """Exact per-host opposite-IP counts via sort-unique over the trace."""

    def __init__(self, hips: np.ndarray, oips: np.ndarray):
        key = (hips.astype(np.uint64) << np.uint64(32)) | oips.astype(np.uint64)
        host = _sorted_distinct(key) >> np.uint64(32)  # one entry per distinct pair
        hosts = _sorted_distinct(host)
        self.hosts = hosts.astype(np.uint32)
        self.counts = np.diff(np.searchsorted(host, hosts), append=len(host)).astype(np.int64)

    def superpoints(self, theta: int) -> list[int]:
        """Hosts with at least theta distinct opposite IPs, sorted."""
        return [int(ip) for ip in self.hosts[self.counts >= theta]]


def metrics(detected: list[int], truth: list[int]) -> tuple[float, float, float]:
    """(FPR, FNR, FTR), all normalized by the true super-point count."""
    truth_set = set(truth)
    if not truth_set:
        raise UndefinedMetricError("metrics are undefined for an empty truth set")
    detected_set = set(detected)
    fpr = len(detected_set - truth_set) / len(truth_set)
    fnr = len(truth_set - detected_set) / len(truth_set)
    return fpr, fnr, fpr + fnr


def metrics_report(detected: list[int], truth: list[int]) -> dict[str, float]:
    """Metrics plus a conventional precision figure (not one of the paper
    trio; kept clearly labeled for sanity checks)."""
    fpr, fnr, ftr = metrics(detected, truth)
    detected_set, truth_set = set(detected), set(truth)
    precision = (len(detected_set & truth_set) / len(detected_set)) if detected_set else 1.0
    return {
        "fpr": fpr,
        "fnr": fnr,
        "ftr": ftr,
        "precision_nonpaper": precision,
        "detected": float(len(detected_set)),
        "truth": float(len(truth_set)),
    }


@dataclass(frozen=True)
class TraceSpec:
    """Recipe for a synthetic trace with planted heavy hosts."""

    n_super: int = 50
    super_cardinality_range: tuple[int, int] = (2048, 2048)
    n_background: int = 100_000
    background_cardinality_range: tuple[int, int] = (1, 8)
    n_pairs: int = 1_000_000
    slices: int = 1
    seed: int = 1

    def __post_init__(self):
        for name in ("n_super", "n_background"):
            if not 0 <= getattr(self, name) < 1 << 63:  # numpy counts are int64
                raise ConfigError(f"{name} must be in [0, 2^63), got {getattr(self, name)}")
        if not 0 <= self.n_pairs < MAX_PAIRS:
            raise ConfigError(f"n_pairs must be in [0, 2^60), got {self.n_pairs}")
        planted = []  # the most pairs each host group plants, in Python ints
        for name, count in (("super_cardinality_range", self.n_super),
                            ("background_cardinality_range", self.n_background)):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi < 1 << 63:
                raise ConfigError(f"{name} must have 1 <= lo <= hi < 2^63, got ({lo}, {hi})")
            planted.append((count * hi, name))
        total = sum(pairs for pairs, _ in planted)
        if total >= MAX_PAIRS:
            raise ConfigError(f"{max(planted)[1]}: the hosts plant up to {total} pairs, "
                              "which must be below 2^60")
        if not 1 <= self.slices <= 1 << 32:  # slice ids are stored as <u4
            raise ConfigError(f"slices must be in [1, 2^32], got {self.slices}")


def _distinct_u32(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct uniform 32-bit values."""
    out = _sorted_distinct(rng.integers(0, 1 << 32, size=n, dtype=np.uint32))
    while len(out) < n:
        more = rng.integers(0, 1 << 32, size=n - len(out) + 16, dtype=np.uint32)
        out = _sorted_distinct(np.concatenate([out, more]))
    out = out[:n]
    rng.shuffle(out)
    return out


def _distinct_per_host(rng: np.random.Generator, cards: np.ndarray) -> np.ndarray:
    """Concatenated opposite-IP draws, distinct within each host's block."""
    total = int(cards.sum())
    host_idx = np.repeat(np.arange(len(cards), dtype=np.int64), cards)
    oips = rng.integers(0, 1 << 32, size=total, dtype=np.uint32)
    while True:
        # Duplicates within a host show up as equal adjacent (host, oip) keys.
        key = (host_idx.astype(np.uint64) << np.uint64(32)) | oips.astype(np.uint64)
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        dup_positions = order[1:][sorted_key[1:] == sorted_key[:-1]]
        if len(dup_positions) == 0:
            return oips
        oips[dup_positions] = rng.integers(0, 1 << 32, size=len(dup_positions),
                                           dtype=np.uint32)


@dataclass
class Trace:
    slices: np.ndarray
    hips: np.ndarray
    oips: np.ndarray
    truth: dict[int, int]

    def __len__(self) -> int:
        return len(self.hips)


def generate_trace(spec: TraceSpec) -> Trace:
    """Deterministic synthetic trace: planted supers and background hosts,
    every distinct pair emitted at least once, remainder filled with
    repeats, the whole stream shuffled across slices."""
    rng = np.random.default_rng(mix64(spec.seed))
    n_hosts = spec.n_super + spec.n_background
    hosts = _distinct_u32(rng, n_hosts) if n_hosts else np.array([], dtype=np.uint32)
    cards = np.concatenate([
        rng.integers(spec.super_cardinality_range[0],
                     spec.super_cardinality_range[1] + 1, size=spec.n_super),
        rng.integers(spec.background_cardinality_range[0],
                     spec.background_cardinality_range[1] + 1, size=spec.n_background),
    ]).astype(np.int64) if n_hosts else np.array([], dtype=np.int64)

    distinct_oips = _distinct_per_host(rng, cards)
    distinct_hips = np.repeat(hosts, cards)
    n_distinct = len(distinct_hips)
    if spec.n_pairs < n_distinct:
        raise ConfigError(
            f"n_pairs={spec.n_pairs} cannot cover the {n_distinct} planted distinct pairs")
    if n_distinct == 0 and spec.n_pairs > 0:
        raise ConfigError("cannot emit pairs from an empty host population")

    extra = spec.n_pairs - n_distinct
    if extra:
        pick = rng.integers(0, n_distinct, size=extra)
        hips = np.concatenate([distinct_hips, distinct_hips[pick]])
        oips = np.concatenate([distinct_oips, distinct_oips[pick]])
    else:
        hips, oips = distinct_hips, distinct_oips

    order = rng.permutation(spec.n_pairs)
    slices = rng.integers(0, spec.slices, size=spec.n_pairs, dtype=np.uint32)
    truth = {int(ip): int(c) for ip, c in zip(hosts.tolist(), cards.tolist())}
    return Trace(slices=slices, hips=hips[order], oips=oips[order], truth=truth)


def write_trace(trace: Trace, path: Path | str):
    """One `slice,src,dst` line per pair for a `.txt` path, as `read_trace`
    expects; binary 12-byte records otherwise.  A `<path>.truth` sidecar
    lists every host's exact count."""
    path = Path(path)
    if path.suffix == ".txt":
        with path.open("w") as fh:
            for s, h, o in zip(trace.slices.tolist(), trace.hips.tolist(),
                               trace.oips.tolist()):
                fh.write(f"{s},{ip_to_str(h)},{ip_to_str(o)}\n")
    else:
        rec = np.empty(len(trace), dtype=TRACE_DTYPE)
        rec["slice"] = trace.slices
        rec["hip"] = trace.hips
        rec["oip"] = trace.oips
        path.write_bytes(rec.tobytes())
    write_truth(trace.truth, truth_path(path))


def truth_path(trace_path: Path | str) -> Path:
    return Path(str(trace_path) + ".truth")


def write_truth(truth: dict[int, int], path: Path | str):
    with Path(path).open("w") as fh:
        for ip in sorted(truth):
            fh.write(f"{ip_to_str(ip)} {truth[ip]}\n")


def parse_lines(path: Path, parse):
    """``parse`` of every non-blank line of a text file, in order; a line
    it refuses with ValueError raises DataError naming the file and line."""
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.strip():
            try:
                yield parse(line)
            except ValueError as exc:
                raise DataError(f"{path}:{number}: {exc}") from None


def _truth_entry(line: str) -> tuple[int, int]:
    ip, card = line.split()
    if not 0 <= int(card) < 1 << 63:
        raise ValueError(f"count {card} is not a non-negative 64-bit integer")
    return ip_from_str(ip), int(card)


def read_truth(path: Path | str) -> dict[int, int]:
    return dict(parse_lines(Path(path), _truth_entry))


def _trace_record(line: str) -> tuple[int, int, int]:
    s, h, o = line.split(",")
    if not 0 <= int(s) <= MASK32:
        raise ValueError(f"slice {s} is not a 32-bit unsigned integer")
    return int(s), ip_from_str(h), ip_from_str(o)


def read_trace(path: Path | str) -> Trace:
    path = Path(path)
    if path.suffix == ".txt":
        rec = np.array(list(parse_lines(path, _trace_record)), dtype=np.uint32).reshape(-1, 3)
        return Trace(slices=rec[:, 0].copy(), hips=rec[:, 1].copy(),
                     oips=rec[:, 2].copy(), truth={})
    raw = path.read_bytes()
    if len(raw) % TRACE_DTYPE.itemsize:
        raise DataError(f"{path} is not a whole number of {TRACE_DTYPE.itemsize}-byte records")
    rec = np.frombuffer(raw, dtype=TRACE_DTYPE)
    return Trace(slices=rec["slice"].copy(), hips=rec["hip"].copy(),
                 oips=rec["oip"].copy(), truth={})
