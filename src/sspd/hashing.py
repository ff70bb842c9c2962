"""Seeded hash family and bit utilities shared by every sketch.

Primitives:
    mix64             -- SplitMix64-style avalanche finalizer (scalar ints)
    hash64_array      -- keys -> seeded 64-bit values: the same finalizer on
                         key ^ seed, over numpy uint64 arrays
    hash_full_array   -- 32-bit IPs -> uniform 32-bit values
    hash_range_array  -- 32-bit IPs -> uniform values in [0, m)
    lsb_at_least      -- whether the lowest set bit is at index >= tau
                         (an all-zero value counts as index 32)

Every mapping is keyed by a (master seed, domain tag) pair.  Distinct tags
give statistically independent mappings of the same key, which is what the
sketches need from their H1/H2/H3/row-hash roles.  All seeds derive from a
single master seed so a whole run is reproducible from one integer.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache

import numpy as np

from .errors import ConfigError

MASK64 = 0xFFFF_FFFF_FFFF_FFFF
MASK32 = 0xFFFF_FFFF

DEFAULT_MASTER_SEED = 0x5EED

# SplitMix64 increment and finalizer multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


class Tag(IntEnum):
    """Role discriminator for the hash family."""

    H1 = 1        # opposite-IP sampler (geometric lsb test)
    H2 = 2        # bit position inside a short register
    H3 = 3        # bit position inside a long register
    ROUTE = 4     # watch-point routing of IP pairs
    TRACE = 5     # synthetic trace generation
    LH_BASE = 16  # row hash i uses tag LH_BASE + i


def mix64(x: int) -> int:
    """Avalanche a 64-bit integer (SplitMix64 finalizer)."""
    z = (x + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def _mix64_in_place(z: np.ndarray) -> np.ndarray:
    """mix64 of every element of the uint64 array ``z``, written into ``z``.

    Each step reuses one scratch array for its shift, so a call allocates
    one array, not one per step.
    """
    z += np.uint64(_GOLDEN)
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(_MIX_A)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX_B)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


@lru_cache(maxsize=None)
def derive_seed(master_seed: int, domain_tag: int) -> int:
    """Expand the master seed into one 64-bit domain key per tag."""
    return mix64((master_seed & MASK64) ^ ((domain_tag & 0xFF) * _GOLDEN))


class SeedFamily:
    """All domain-tagged seeds a detector needs, from one master seed,
    each the ``derive_seed`` integer of its role's tag."""

    def __init__(self, master_seed: int = DEFAULT_MASTER_SEED):
        self.master_seed = master_seed & MASK64
        self.h1 = derive_seed(self.master_seed, Tag.H1)
        self.h2 = derive_seed(self.master_seed, Tag.H2)
        self.h3 = derive_seed(self.master_seed, Tag.H3)
        self.route = derive_seed(self.master_seed, Tag.ROUTE)

    def lh(self, row: int) -> int:
        return derive_seed(self.master_seed, Tag.LH_BASE + row)

    def __repr__(self) -> str:
        return f"SeedFamily(0x{self.master_seed:X})"


def hash64_array(keys: np.ndarray, seed: int) -> np.ndarray:
    """Seeded 64-bit hash of each key, as a new array (``keys`` is not written)."""
    z = keys.astype(np.uint64)
    z ^= np.uint64(seed)
    return _mix64_in_place(z)


def hash_full_array(keys: np.ndarray, seed: int) -> np.ndarray:
    h = hash64_array(keys, seed)
    h &= np.uint64(MASK32)
    return h


def hash_range_array(keys: np.ndarray, seed: int, m: int) -> np.ndarray:
    """Hash of each key reduced mod ``m``; a power-of-two ``m`` takes the
    mask ``m - 1``, which gives the same values as the remainder."""
    if m < 1:
        raise ConfigError(f"hash_range modulus must be >= 1, got {m}")
    h = hash64_array(keys, seed)
    if m & (m - 1):
        h %= np.uint64(m)
    else:
        h &= np.uint64(m - 1)
    return h


def lsb_at_least(x: np.ndarray, tau: int) -> np.ndarray:
    """Vectorized predicate lsb(x) >= tau.

    Equivalent to the low `tau` bits being all zero, which also holds for
    x == 0 under the lsb(0) == 32 convention (tau is capped at 32).
    """
    if tau <= 0:
        return np.ones(x.shape, dtype=bool)
    mask = np.uint64((1 << min(tau, 32)) - 1)
    return (x & mask) == 0
