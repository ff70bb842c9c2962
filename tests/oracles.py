"""Scalar reference code the tests check the vectorised library against.

Each function restates, one key, one pair or one slot at a time, what
``sspd`` computes in batches.  Nothing here runs in the CLI, the library
API or the benchmark; it lives next to the tests that use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sspd.errors import ConfigError
from sspd.evaluation import ExactOracle
from sspd.hashing import MASK32, MASK64, Tag, _mix64_in_place, derive_seed, mix64
from sspd.long_sketch import DEFAULT_K, LdcaSketch
from sspd.short_sketch import SeavConfig
from sspd.sliding import SlidingDetector, TimestampPool

# --- hashes -------------------------------------------------------------------


def mix64_array(x: np.ndarray) -> np.ndarray:
    """mix64 of every element; ``x`` is not written: the mixing runs in
    place on a uint64 copy of it."""
    return _mix64_in_place(x.astype(np.uint64))


def hash64(key: int, seed: int) -> int:
    """Full-width 64-bit hash of an integer key."""
    return mix64((key & MASK64) ^ seed)


def hash_full(key: int, seed: int) -> int:
    """Map a 32-bit key to a uniform 32-bit value (H1 contract)."""
    return hash64(key, seed) & MASK32


def hash_range(key: int, seed: int, m: int) -> int:
    """Map a key to a near-uniform value in [0, m)."""
    if m < 1:
        raise ConfigError(f"hash_range modulus must be >= 1, got {m}")
    return hash64(key, seed) % m


def lsb(x: int) -> int:
    """Index of the lowest set bit of a 32-bit value; 32 for input 0."""
    if x == 0:
        return 32
    return ((x & -x).bit_length()) - 1


# --- candidate sketch ---------------------------------------------------------


@dataclass(frozen=True)
class ShortEstimator:
    """One g-bit register.  Bits only ever transition 0 -> 1 in a window."""

    bits: int = 0
    g: int = 8

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.g):
            raise ConfigError(f"register value {self.bits} out of range for g={self.g}")

    def update(self, oip: int, tau: int, seed: int) -> "ShortEstimator":
        """Record one opposite IP; a bit is set only if the sampling test passes."""
        if lsb(hash_full(oip, derive_seed(seed, Tag.H1))) >= tau:
            bit = hash_range(oip, derive_seed(seed, Tag.H2), self.g)
            return ShortEstimator(self.bits | (1 << bit), self.g)
        return self

    def weight(self) -> int:
        return bin(self.bits).count("1")

    def is_hot(self) -> bool:
        return self.weight() >= 3

    def _check_width(self, other: "ShortEstimator"):
        if other.g != self.g:
            raise ConfigError(f"register width mismatch: {self.g} vs {other.g}")

    def __and__(self, other: "ShortEstimator") -> "ShortEstimator":
        self._check_width(other)
        return ShortEstimator(self.bits & other.bits, self.g)

    def __or__(self, other: "ShortEstimator") -> "ShortEstimator":
        self._check_width(other)
        return ShortEstimator(self.bits | other.bits, self.g)


def index_of(config: SeavConfig, row: int, lp: int) -> int:
    """Column of the register holding ``lp`` in ``row``.

    Bit j of the index is bit (ISB[row]+j) mod lp_bits of lp.
    """
    if not 0 <= row < config.sr:
        raise ConfigError(f"row {row} out of range [0, {config.sr})")
    w = config.lp_bits
    idx = 0
    for j in range(config.ibn):
        idx |= ((lp >> ((config.isb[row] + j) % w)) & 1) << j
    return idx


def lp_from_indexes(config: SeavConfig, indexes: list[int] | tuple[int, ...]) -> int:
    """Reassemble a left part from one column index per row (inverse of index_of)."""
    if len(indexes) != config.sr:
        raise ConfigError(f"need {config.sr} indexes, got {len(indexes)}")
    w = config.lp_bits
    lp = 0
    for i, idx in enumerate(indexes):
        for j in range(config.ibn):
            if (idx >> j) & 1:
                lp |= 1 << ((config.isb[i] + j) % w)
    return lp


# --- counter array ------------------------------------------------------------


class Ldc:
    """A single k-bit register."""

    def __init__(self, k: int = DEFAULT_K):
        if k < 8 or k % 8:
            raise ConfigError(f"k must be a positive multiple of 8, got {k}")
        self.k = k
        self.bits = 0

    def update(self, oip: int, seed: int):
        self.bits |= 1 << hash_range(oip, derive_seed(seed, Tag.H3), self.k)

    def zero_count(self) -> int:
        return self.k - bin(self.bits).count("1")


def ldc_estimate(z0: int, k: int) -> tuple[float, bool]:
    """Distinct-count estimate from the zero-bit count of one register,
    as (estimate, saturated); a full register gives the sentinel k*ln(k)."""
    if not 0 <= z0 <= k:
        raise ConfigError(f"zero count {z0} out of range [0, {k}]")
    if z0 == 0:
        return k * math.log(k), True
    return -k * math.log(z0 / k), False


def row_column(sketch: LdcaSketch, row: int, hip: int) -> int:
    """Column of the host's counter in ``row``."""
    cfg = sketch.config
    return hash_range(hip, derive_seed(cfg.seed, Tag.LH_BASE + row), cfg.lc)


def union_register(sketch: LdcaSketch, hip: int) -> np.ndarray:
    """AND of the host's LR row registers, as packed bytes."""
    out = sketch.data[0, row_column(sketch, 0, hip)].copy()
    for i in range(1, sketch.config.lr):
        np.bitwise_and(out, sketch.data[i, row_column(sketch, i, hip)], out=out)
    return out


# --- sliding windows ----------------------------------------------------------


def touch(pool: TimestampPool, slot_index: int, now: int | None = None):
    """Stamp one slot; out-of-order stamps keep the newest value."""
    if not 0 <= slot_index < pool.n_slots:
        raise ConfigError(f"slot {slot_index} out of range [0, {pool.n_slots})")
    now = pool.now if now is None else now
    candidate_age = pool.now - now
    if candidate_age < 0:
        raise ConfigError(f"cannot stamp future slice {now} (pool is at {pool.now})")
    existing_age = (pool._wrapped_now() - int(pool.ts[slot_index])) & pool._mask
    if candidate_age < existing_age:
        pool.ts[slot_index] = now & pool._mask


def is_active(pool: TimestampPool, slot_index: int) -> bool:
    existing_age = (pool._wrapped_now() - int(pool.ts[slot_index])) & pool._mask
    return existing_age < pool.window_slices


def materialize_ldca(detector: SlidingDetector) -> np.ndarray:
    """Full active-bit view of the counter array as packed bytes."""
    lcfg = detector.ldca_config
    bits = detector.pool.active(detector.ldca_base).reshape(lcfg.lr, lcfg.lc, lcfg.k)
    return np.packbits(bits, axis=-1, bitorder="little")


# --- evaluation ---------------------------------------------------------------


def cardinality(oracle: ExactOracle, hip: int) -> int:
    """The oracle's exact count of one host; 0 for a host it never saw."""
    i = np.searchsorted(oracle.hosts, hip)
    if i < len(oracle.hosts) and oracle.hosts[i] == hip:
        return int(oracle.counts[i])
    return 0


def exact_cardinalities_dict(hips: np.ndarray, oips: np.ndarray) -> dict[int, int]:
    """Exact per-host counts from hash sets, one per host."""
    seen: dict[int, set[int]] = {}
    for hip, oip in zip(hips.tolist(), oips.tolist()):
        seen.setdefault(hip, set()).add(oip)
    return {hip: len(s) for hip, s in seen.items()}
