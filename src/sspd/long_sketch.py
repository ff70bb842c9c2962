"""Linear distinct counters and the row planner for the filter stage.

One counter is a k-bit register; recording an opposite IP sets bit
H3(oip) mod k.  With z0 zero bits left, the distinct count estimate is
-k * ln(z0 / k).  A host is mapped to one counter per row by per-row
hashes of its own IP; estimation reads the bitwise AND of those rows,
which suppresses bits contributed by the other hosts sharing each cell.

The planner picks the row count minimizing the probability that a noise
bit survives the AND, for a fixed total register budget and an expected
pair volume per window.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .hashing import SeedFamily, hash_range_array

DEFAULT_K = 8192
DEFAULT_V = 8192
DEFAULT_DESIGN_N = 1_000_000
DEFAULT_MAX_ROWS = 8

# Hosts per gather in union_zero_counts.  A discrete gather holds k/8
# bytes per host (512 KiB with the union at the default k); a sliding
# gather holds k stamps plus k flag bytes per host (6 MiB of uint16
# stamps and flags, beside a 2 MiB union, at the default k and window).
# Beside the gathers, a call holds every candidate's register numbers,
# hashed once for the whole batch: 8 * LR bytes per candidate.  A
# discrete read that takes the weight table also holds v counters in the
# narrowest dtype that holds k (16 KiB of uint16 at the default k and v),
# built through one popcount byte per register word (1 MiB at the defaults).
ZERO_COUNT_CHUNK = 256

# Rows ANDed before union_zero_counts drops the hosts already past its
# bound; checking after one row, or again after four, read slower.
EARLY_EXIT_ROWS = 2


def ldc_estimates(z0s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct-count estimates from the zero-bit counts of registers, as
    an array of estimates and an array of saturated flags.

    A fully set register (z0 = 0) cannot be inverted; it yields the
    sentinel k*ln(k) with the saturated flag, so that callers can treat
    it as "at least huge".  ``math.log`` runs once per distinct count.
    """
    distinct, inverse = np.unique(z0s, return_inverse=True)
    est = np.array([_estimate(z0, k) if z0 else k * math.log(k)
                    for z0 in distinct.tolist()], dtype=np.float64)
    return est[inverse], z0s == 0


def _estimate(z0: int, k: int) -> float:
    """Estimate of a register with ``z0 > 0`` zero bits: the one expression
    behind both ``ldc_estimates`` and ``zero_count_bound``."""
    return -k * math.log(z0 / k)


@functools.lru_cache(maxsize=64)
def zero_count_bound(cutoff: float, k: int) -> int:
    """Largest zero count ``z0`` in [1, k] whose estimate is >= ``cutoff``,
    or 0 when there is none (then only saturated registers clear it).

    Every count above the bound has an estimate below the cutoff, bit for
    bit as ``ldc_estimates`` computes it: the counts are tried from k down.
    Since k - k*exp(-cutoff/k) <= cutoff, that takes at most
    min(k, cutoff + 1) logs, once per (cutoff, k).
    """
    for z0 in range(k, 0, -1):
        if _estimate(z0, k) >= cutoff:
            return z0
    return 0


@dataclass(frozen=True)
class LdcaConfig:
    lr: int
    lc: int
    k: int

    def __post_init__(self):
        if self.lr < 1:
            raise ConfigError(f"LR must be >= 1, got {self.lr}")
        if self.lc < 1:
            raise ConfigError(f"LC must be >= 1, got {self.lc}")
        if self.k < 8 or self.k % 8:
            raise ConfigError(f"k must be a positive multiple of 8, got {self.k}")
        if self.k >= 1 << 63:  # as in plan_rows: beyond this k overflows a float
            raise ConfigError(f"k must be below 2^63, got {self.k}")

    @property
    def v(self) -> int:
        return self.lr * self.lc

    def memory_bytes(self) -> int:
        return self.lr * self.lc * self.k // 8

    def registers(self, seeds: SeedFamily, hips: np.ndarray):
        """Flat register number ``row * lc + column`` of each host, one row
        at a time; the column is the row's hash of the host IP.  Each row
        is a new array, which callers may change in place."""
        for i in range(self.lr):
            reg = hash_range_array(hips, seeds.lh(i), self.lc).view(np.int64)
            reg += i * self.lc
            yield reg

    def addresses(self, seeds: SeedFamily, hips: np.ndarray, oips: np.ndarray):
        """The bits a batch of IP pairs sets, as ``(bit, registers)``: each
        pair sets bit H3(oip) of its host's register in every row.  ``bit``
        holds one bit position per pair and ``registers`` yields the flat
        register numbers row by row (see ``registers``)."""
        bit = hash_range_array(oips, seeds.h3, self.k).view(np.int64)
        return bit, self.registers(seeds, hips)


def union_zero_counts(config: LdcaConfig, seeds: SeedFamily, hips: np.ndarray,
                      cells: Callable[[np.ndarray], np.ndarray],
                      bound: int | None = None,
                      weights: np.ndarray | None = None) -> np.ndarray:
    """Zero-bit count of each host's AND-union register: the one filter
    read of both detection modes.

    ``cells(reg)`` gathers the registers numbered ``reg`` as unsigned
    words whose set bits are the register's set bits.  Each row is hashed
    once for the whole batch; its gathers are ANDed in place, then
    popcounted per host, ``ZERO_COUNT_CHUNK`` hosts at a time, summed in
    the narrowest dtype that holds k.

    With a ``bound``, a host whose zero count after ``EARLY_EXIT_ROWS``
    rows is above it skips the remaining rows and gets that partial
    count.  An AND only clears bits, so its final count would be above the
    bound too; every host at or under the bound gets its exact count.
    ``weights``, the set-bit count of every register, lets the bound act
    before any gather: a host's AND weight is at most the least weight of
    its registers, so a host for which k minus that least weight is above
    the bound gets that count and is never gathered.
    """
    hips = np.asarray(hips, dtype=np.uint64)
    rows = list(config.registers(seeds, hips))
    out = np.empty(len(hips), dtype=np.int64)
    if bound is not None and weights is not None:
        least = weights[rows[0]]
        for reg in rows[1:]:
            np.minimum(least, weights[reg], out=least)
        out[:] = config.k - least
        hosts = np.flatnonzero(out <= bound)
        rows = [reg[hosts] for reg in rows]
    else:
        hosts = slice(None)
    early = EARLY_EXIT_ROWS if bound is not None and config.lr > EARLY_EXIT_ROWS else config.lr
    acc = np.min_scalar_type(config.k)  # holds any register's set-bit count
    read = np.empty(len(rows[0]), dtype=np.int64)
    for start in range(0, len(read), ZERO_COUNT_CHUNK):
        stop = start + ZERO_COUNT_CHUNK
        union = cells(rows[0][start:stop])
        for reg in rows[1:early]:
            np.bitwise_and(union, cells(reg[start:stop]), out=union)
        z0 = config.k - np.bitwise_count(union).sum(axis=1, dtype=acc)
        read[start:start + len(z0)] = z0
        if early == config.lr:
            continue
        live = np.flatnonzero(z0 <= bound)
        if not len(live):
            continue
        union = union[live]
        live += start
        for reg in rows[early:]:
            np.bitwise_and(union, cells(reg[live]), out=union)
        read[live] = config.k - np.bitwise_count(union).sum(axis=1, dtype=acc)
    out[hosts] = read
    return out


class LdcaSketch:
    """LR x LC array of k-bit registers, stored as packed bytes.

    Bit b of a register lives at byte b >> 3, position b & 7 (little
    bit order), which is what numpy's packbits(bitorder="little") emits.
    """

    def __init__(self, config: LdcaConfig, seeds: SeedFamily):
        self.config = config
        self.seeds = seeds
        self.bytes_per_ldc = config.k // 8
        self.data = np.zeros((config.lr, config.lc, self.bytes_per_ldc), dtype=np.uint8)
        self.flat = self.data.reshape(-1)  # every register byte, as one view

    def clear(self):
        self.data.fill(0)

    def update_batch(self, hips: np.ndarray, oips: np.ndarray):
        """Record a batch of IP pairs (vectorized, integer arithmetic only).

        The pairs are grouped once by bit-in-byte ``bit & 7``; each row then
        ORs one mask into each group's bytes with a plain gather and
        scatter.  That is exact even where a byte repeats in a group, since
        every copy of it writes the same value.
        """
        bit, registers = self.config.addresses(self.seeds, hips, oips)
        byte = bit >> 3
        bit &= 7
        groups = [(np.flatnonzero(bit == j), np.uint8(1 << j)) for j in range(8)]
        for reg in registers:
            reg *= self.bytes_per_ldc
            reg += byte
            for pos, mask in groups:
                self.flat[reg[pos]] |= mask

    def zero_counts(self, hips: np.ndarray, bound: int | None = None) -> np.ndarray:
        """Zero-bit count of each host's AND-union register, read as the
        widest unsigned words that tile a register (see
        ``union_zero_counts`` for ``bound``).

        With a bound, the set-bit count of every register is taken in one
        pass when the two-row read would gather more registers than that
        pass reads: when ``len(hips) * EARLY_EXIT_ROWS >= v`` and there
        are rows left after them."""
        cfg = self.config
        word = next(dt for dt in (np.uint64, np.uint32, np.uint16, np.uint8)
                    if self.bytes_per_ldc % np.dtype(dt).itemsize == 0)
        words = self.data.reshape(cfg.v, -1).view(word)
        weights = None
        if bound is not None and cfg.lr > EARLY_EXIT_ROWS and len(hips) * EARLY_EXIT_ROWS >= cfg.v:
            weights = np.bitwise_count(words).sum(axis=1, dtype=np.min_scalar_type(cfg.k))
        return union_zero_counts(cfg, self.seeds, hips, words.__getitem__, bound, weights)

    def estimate(self, hips: np.ndarray,
                 cutoff: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Estimates and saturated flags of each host's AND-union register,
        from one ``zero_counts`` call.  With a ``cutoff``, a host whose
        estimate is below it may get a partial estimate instead, which is
        below it too; every other host's is exact."""
        k = self.config.k
        bound = None if cutoff is None else zero_count_bound(cutoff, k)
        return ldc_estimates(self.zero_counts(hips, bound), k)


def psu(k: int, n_pairs: float, lc: float, lr: int) -> float:
    """Probability that a bit of the AND-union register is set, given
    n_pairs distinct IP pairs spread over lc columns of lr rows."""
    if k < 1 or lc <= 0 or lr < 1 or n_pairs < 0:
        raise ConfigError("psu arguments must be positive")
    return (1.0 - (1.0 - 1.0 / k) ** (n_pairs / lc)) ** lr


def plan_rows(v: int, n_pairs: float, k: int,
              max_rows: int | None = DEFAULT_MAX_ROWS) -> tuple[int, int]:
    """Row count minimizing the union noise probability for a budget of
    ``v`` registers and an expected ``n_pairs`` distinct pairs per window.

    The analytic optimum is -v*ln(2) / (n_pairs * ln(1 - 1/k)); the
    nearest integer is returned, clamped to [1, max_rows] (merging cost
    grows with the row count, so a ceiling is kept by default).
    Returns (lr, lc) with lc = v // lr.
    """
    if v < 1 or not n_pairs > 0 or k < 2:  # also refuses a NaN n_pairs
        raise ConfigError("plan_rows arguments must be positive (k >= 2)")
    if max(v, k) >= 1 << 63:  # beyond this they overflow a float
        raise ConfigError(f"plan_rows takes v and k below 2^63, got v={v}, k={k}")
    if max_rows is not None and max_rows < 1:
        raise ConfigError(f"max_rows must be >= 1, got {max_rows}")
    # log1p stays nonzero for any k, and dividing twice keeps a tiny
    # n_pairs from flushing the divisor to zero; raw may be inf, hence min.
    raw = -v * math.log(2.0) / n_pairs / math.log1p(-1.0 / k)
    lr = max(1, round(min(raw, v)))
    if max_rows is not None:
        lr = min(lr, max_rows)
    return lr, v // lr


def noise_factor(k: int, n_pairs: float, lc: float, lr: int) -> float:
    """Expected noise bits in a union register: psu * k (want < 1)."""
    return psu(k, n_pairs, lc, lr) * k


def check_noise(k: int, n_pairs: float, lc: float, lr: int) -> float:
    """Warn when the planned geometry leaves >= 1 expected noise bit."""
    factor = noise_factor(k, n_pairs, lc, lr)
    if factor >= 1.0:
        warnings.warn(
            f"expected union noise psu*k = {factor:.3g} >= 1 for "
            f"(k={k}, N={n_pairs:g}, LC={lc}, LR={lr}); estimates will be inflated",
            RuntimeWarning,
            stacklevel=2,
        )
    return factor
