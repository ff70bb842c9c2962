"""Short-register candidate sketch: tiny g-bit registers arranged so that
the IP addresses of high fan-out hosts can be reconstructed from register
coordinates alone.

A host IP splits into a right part RP (low ``r`` bits, selecting one of
2^r register arrays) and a left part LP (the remaining bits).  Each array
has ``SR`` rows; row ``i`` indexes its ``SC`` registers by an ``IBN``-bit
slice of LP starting at bit ``ISB(i)``, with consecutive rows overlapping
in ``a`` bit positions.  Every distinct opposite IP that survives a
geometric sampling test sets one bit in the host's register of every row.
At the end of a window, rows are scanned for "hot" registers (weight >= 3)
and LPs are reassembled from consistent hot-column tuples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SeaOverflowWarning
from .hashing import MASK64, Tag, derive_seed, hash_full_array, hash_range_array, lsb_at_least

# Partial tuples built at once per row in the restore join: about 40
# bytes each while built, so a third of a MiB per row.
RESTORE_BLOCK = 1 << 13


def tau_from_theta(theta: int, g: int) -> int:
    """Sampling threshold: smallest t >= 0 with g * 2^t >= theta.

    Integer-exact equivalent of ceil(log2(theta / g)) floored at 0.
    """
    if not 1 <= theta < 1 << 63:  # so that theta / k is a float
        raise ConfigError(f"theta must be in [1, 2^63), got {theta}")
    if g < 1:
        raise ConfigError(f"register width g must be >= 1, got {g}")
    t = 0
    while (g << t) < theta:
        t += 1
    return t


def _register_dtype(g: int):
    if g > 64:
        raise ConfigError(f"register width g must be <= 64, got {g}")
    return np.min_scalar_type((1 << g) - 1)


def _rotate_right(x, s: int, w: int):
    """``x`` (uint64, below 2^w) rotated right by ``s`` within w bits."""
    s %= w
    out = x >> np.uint64(s)
    out |= x << np.uint64(w - s)
    out &= np.uint64((1 << w) - 1)
    return out


@dataclass(frozen=True)
class SeavConfig:
    """Geometry and seed of the candidate sketch; ``DetectorParams`` chooses them.

    Every row has the same index width ``ibn`` and so ``sc`` registers.
    ``addr_bits`` is normally 32 (IPv4); smaller widths exist so tests can
    brute-force the whole address space.
    """

    r: int
    sr: int
    a: int
    theta: int
    g: int
    addr_bits: int = field(default=32, kw_only=True)
    seed: int = field(kw_only=True)
    isb: tuple[int, ...] = field(init=False)
    ibn: int = field(init=False)
    sc: int = field(init=False)
    tau: int = field(init=False)

    def __post_init__(self):
        if not 0 <= self.r <= 16:
            raise ConfigError(f"r must be in [0, 16], got {self.r}")
        if self.sr < 3:  # with 2 rows, each row overlaps the other on both sides
            raise ConfigError(f"SR must be >= 3, got {self.sr}")
        if self.a < 1:
            raise ConfigError(f"overlap a must be >= 1, got {self.a}")
        if not 2 <= self.addr_bits <= 32:
            raise ConfigError(f"addr_bits must be in [2, 32], got {self.addr_bits}")
        if not 0 <= self.seed <= MASK64:  # so a config block names the seed hashed
            raise ConfigError(f"seed must be in [0, 2^64), got {self.seed}")
        w = self.lp_bits
        if w < 1:
            raise ConfigError(f"r={self.r} leaves no left-part bits for addr_bits={self.addr_bits}")
        c = -(-w // self.sr)  # ceil(w / SR)
        if c + self.a > w:
            raise ConfigError(
                f"index width {c + self.a} exceeds left-part width {w} (SR too large or a too large)"
            )
        object.__setattr__(self, "isb", tuple(i * c for i in range(self.sr)))
        object.__setattr__(self, "ibn", c + self.a)
        object.__setattr__(self, "sc", 1 << self.ibn)
        object.__setattr__(self, "tau", tau_from_theta(self.theta, self.g))
        _register_dtype(self.g)
        self._verify_constraints()

    @property
    def lp_bits(self) -> int:
        return self.addr_bits - self.r

    def _row_positions(self, i: int) -> set[int]:
        w = self.lp_bits
        return {(self.isb[i] + j) % w for j in range(self.ibn)}

    def _verify_constraints(self):
        """Each row shares exactly ``a`` bit positions with the next (row
        SR - 1 with row 0).  Coverage needs no check: left-part bit p is
        bit p mod c of row p // c, which is below SR since SR * c >= w."""
        for i in range(self.sr):
            overlap = self._row_positions(i) & self._row_positions((i + 1) % self.sr)
            if len(overlap) != self.a:
                raise ConfigError(
                    f"constraint 2 violated: rows {i} and {(i + 1) % self.sr} share "
                    f"{len(overlap)} bit positions, expected {self.a}"
                )

    def index_of_array(self, row: int, lp: np.ndarray) -> np.ndarray:
        """Column of the register holding each left part (uint64, below
        2^lp_bits) in ``row``: bit j of the index is bit (ISB[row]+j) mod
        lp_bits of the left part."""
        if not 0 <= row < self.sr:
            raise ConfigError(f"row {row} out of range [0, {self.sr})")
        return _rotate_right(lp, self.isb[row], self.lp_bits) & np.uint64(self.sc - 1)

    @property
    def n_registers(self) -> int:
        return (self.sr << self.r) * self.sc

    def registers(self, hips: np.ndarray):
        """Flat register number of each host, one row at a time.

        Rows lie back to back, each array by array, so a host's register
        in row i is ``(i << r | rp) * sc + index_of_array(i, lp)``.  Each
        row is a new array, which callers may change in place.
        """
        hips = hips.astype(np.uint64, copy=False)
        rp = hips & np.uint64((1 << self.r) - 1)
        lp = (hips >> np.uint64(self.r)) & np.uint64((1 << self.lp_bits) - 1)
        for i in range(self.sr):
            reg = self.index_of_array(i, lp)
            reg += (rp | np.uint64(i << self.r)) * np.uint64(self.sc)
            yield reg.view(np.int64)

    def addresses(self, hips: np.ndarray, oips: np.ndarray):
        """The bits a batch of IP pairs sets, as ``(bit, registers)``.

        A pair is kept when H1 of its opposite IP passes the sampling test;
        it then sets bit H2(oip) of its host's register in every row.
        ``bit`` holds the bit positions of the kept pairs, and ``registers``
        yields their flat register numbers row by row (see ``registers``),
        so one row's numbers are held at a time.
        """
        keep = lsb_at_least(hash_full_array(oips, derive_seed(self.seed, Tag.H1)), self.tau)
        bit = hash_range_array(oips[keep], derive_seed(self.seed, Tag.H2), self.g)
        return bit.view(np.int64), self.registers(hips[keep])

    def memory_bytes(self) -> int:
        return self.n_registers * np.dtype(_register_dtype(self.g)).itemsize

    # Scatter tables for the restore join: column -> (lp fragment, position
    # mask), the inverse rotation of index_of_array.
    def _row_scatter(self, i: int) -> tuple[np.ndarray, int]:
        w, isb = self.lp_bits, self.isb[i]
        cols = np.arange(self.sc, dtype=np.uint64)
        return (_rotate_right(cols, -isb, w),
                int(_rotate_right(np.uint64(self.sc - 1), -isb, w)))


class SeavSketch:
    """2^r register arrays of SR rows each, plus the restore join.

    Updates are monotone bit-sets, so any stream permutation or sharding
    followed by an OR-merge yields bit-identical state.
    """

    def __init__(self, config: SeavConfig, restore_cap: int):
        self.config = config
        self.restore_cap = restore_cap
        # rows[i, rp] is row i of array rp; flat is the same registers in
        # one dimension, in the order ``config.registers`` numbers them.
        self.rows = np.zeros((config.sr, 1 << config.r, config.sc),
                             dtype=_register_dtype(config.g))
        self.flat = self.rows.reshape(-1)
        self._scatter = [config._row_scatter(i) for i in range(config.sr)]

    def clear(self):
        self.flat.fill(0)

    def update_batch(self, hips: np.ndarray, oips: np.ndarray):
        """Record a batch of IP pairs (vectorized, integer arithmetic only)."""
        bit, registers = self.config.addresses(hips, oips)
        mask = np.left_shift(1, bit).astype(self.flat.dtype)
        for reg in registers:
            np.bitwise_or.at(self.flat, reg, mask)

    def payload_bytes(self) -> bytes:
        return self.flat.tobytes()

    def restore(self) -> np.ndarray:
        """IPs of the candidates across all register arrays, as a sorted
        uint64 array: those whose row registers AND to weight >= 3.

        One join row by row over every array at once.  A partial tuple,
        one hot column per row so far, is carried as its IP so far (the
        array number in the low r bits) and its register AND.  Every
        partial tuple at row i has fixed the same left-part bits, so row
        i's hot registers join them by equality on the array number and
        the bits the row shares with those, found by binary search in the
        row's keys, sorted once per row.  Each row builds its extensions
        about ``RESTORE_BLOCK`` at a time and hands them on depth first,
        which bounds memory when most registers are hot; the last row
        keeps only tuples whose AND weight is >= 3.

        An array with more than ``restore_cap`` consistent full tuples,
        whatever their AND weight, is skipped with a SeaOverflowWarning
        that names it, one per array in array order.  The last row counts
        each array's full tuples before it builds any, and an array once
        over the cap is extended no further at any row; the IPs it found
        before are dropped at the end.  So no more than ``restore_cap``
        full tuples of an array are ever built.
        """
        cfg = self.config
        r, arrays = np.uint64(cfg.r), np.uint64((1 << cfg.r) - 1)
        # Per row: the IP bits each hot register fixes and its value, the
        # join key mask (array number and the left-part bits the row shares
        # with the rows before it), and its join keys sorted.
        hot = []
        fixed = 0  # left-part bits fixed by the rows before row i
        for i in range(cfg.sr):
            rps, cols = np.nonzero(np.bitwise_count(self.rows[i]) >= 3)
            if len(cols) == 0:
                return np.empty(0, dtype=np.uint64)
            frags, mask = self._scatter[i]
            bits = (frags[cols] << r) | rps.astype(np.uint64)
            key_mask = (np.uint64(fixed & mask) << r) | arrays
            keys = bits & key_mask
            order = np.argsort(keys, kind="stable")
            hot.append((bits, self.rows[i][rps, cols], key_mask, keys[order], order))
            fixed |= mask
        n_found = np.zeros(1 << cfg.r)  # full tuples counted, exact below 2^53
        overflowed = np.zeros(1 << cfg.r, dtype=bool)
        found = [np.empty(0, dtype=np.uint64)]

        def join(i: int, acc_ip: np.ndarray, acc_and: np.ndarray):
            row_bits, row_regs, key_mask, row_keys, order = hot[i]
            left_keys = acc_ip & key_mask
            lo = np.searchsorted(row_keys, left_keys, side="left")
            counts = np.searchsorted(row_keys, left_keys, side="right") - lo
            rp = acc_ip & arrays
            last = i == cfg.sr - 1
            if last:  # count every full tuple before building any
                np.add(n_found, np.bincount(rp.view(np.int64), counts, minlength=len(n_found)),
                       out=n_found)
                np.greater(n_found, self.restore_cap, out=overflowed)
            ends = np.cumsum(counts)
            stop = 0
            while stop < len(acc_ip):
                start = stop
                base = int(ends[start - 1]) if start else 0
                stop = max(start + 1,
                           int(np.searchsorted(ends, base + RESTORE_BLOCK, side="right")))
                # extend nothing more of an array over the cap
                c = np.where(overflowed[rp[start:stop]], 0, counts[start:stop])
                if not c.any():
                    continue
                left = np.repeat(np.arange(start, stop), c)
                right = np.repeat(lo[start:stop] - np.cumsum(c) + c, c)
                right += np.arange(len(right))
                right = order[right]
                next_and = acc_and[left] & row_regs[right]
                if last:
                    heavy = np.bitwise_count(next_and) >= 3
                    found.append(acc_ip[left[heavy]] | row_bits[right[heavy]])
                else:
                    join(i + 1, acc_ip[left] | row_bits[right], next_and)

        join(1, hot[0][0], hot[0][1])
        for rp in np.flatnonzero(overflowed).tolist():
            warnings.warn(SeaOverflowWarning(rp, self.restore_cap), stacklevel=2)
        found = np.concatenate(found)
        # IPs are unique: an IP fixes its array and its column in every row.
        return np.sort(found[~overflowed[found & arrays]])
