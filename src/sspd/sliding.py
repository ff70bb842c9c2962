"""Sliding-window detection: every sketch bit is replaced by a
last-active-slice timestamp, so the live window is a read-time predicate
(age < window slices) instead of a per-window reinitialization.

Timestamps are stored wrapped in the smallest unsigned dtype whose
modulus leaves a safety margin of at least 2x the window between wraps.
An amortized sweep clamps long-idle slots to "just expired" before their
wrapped age could alias as fresh; advancing a slice is O(1) otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .hashing import SeedFamily
from .long_sketch import ldc_estimates, union_zero_counts, zero_count_bound
from .short_sketch import SeavSketch
from .window_detector import DetectionReport, DetectorParams, report_candidates

# Slots per block in TimestampPool._sweep: 2 MiB of uint16 ages and a
# 1 MiB mask at a time.
SWEEP_BLOCK = 1 << 20


def timestamp_dtype(window_slices: int):
    """Smallest unsigned dtype whose modulus is >= 2*window + 2."""
    need = 2 * window_slices + 2
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if need <= (1 << (8 * np.dtype(dt).itemsize)):
            return dt
    raise ConfigError(f"window of {window_slices} slices is too large to timestamp")


class TimestampPool:
    """A fixed pool of per-bit timestamps with lazy expiry.

    A slot is active iff now - timestamp < window_slices.  Slot count is
    fixed at construction and never changes while running.
    """

    def __init__(self, n_slots: int, window_slices: int):
        if n_slots < 1:
            raise ConfigError(f"slot count must be >= 1, got {n_slots}")
        if window_slices < 1:
            raise ConfigError(f"window must span >= 1 slice, got {window_slices}")
        self.n_slots = n_slots
        self.window_slices = window_slices
        self.now = 0
        dt = timestamp_dtype(window_slices)
        self._modulus = 1 << (8 * np.dtype(dt).itemsize)
        self._mask = self._modulus - 1
        # Idle period between mandatory sweeps; ages stay < modulus.
        self._sweep_period = self._modulus - 2 * window_slices
        self.sweep_count = 0
        # Initialize to age == window (exactly expired).
        try:
            self.ts = np.full(n_slots, (-window_slices) & self._mask, dtype=dt)
        except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest array
            raise ConfigError(f"timestamp pool of {n_slots} slots too large: {exc}") from exc

    def memory_bytes(self) -> int:
        return self.ts.nbytes

    def _wrapped_now(self) -> int:
        return self.now & self._mask

    def touch_batch(self, slot_indexes: np.ndarray):
        """Stamp many slots with the current slice (newest always wins)."""
        self.ts[slot_indexes] = self._wrapped_now()

    def advance_slice(self):
        """Move to the next slice.  O(1) except the rare anti-alias sweep."""
        self.now += 1
        if self.now % self._sweep_period == 0:
            self._sweep()

    def _sweep(self):
        """Clamp every expired slot to age == window so wrapped ages never alias."""
        expired = (self.now - self.window_slices) & self._mask
        for start in range(0, self.n_slots, SWEEP_BLOCK):
            stale = self.ages(start, start + SWEEP_BLOCK) >= self.window_slices
            self.ts[start:start + SWEEP_BLOCK][stale] = expired
        self.sweep_count += 1

    def ages(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Age in slices of each slot in [start, stop), in the stamp dtype.

        Stamps wrap at exactly the modulus of their dtype, so one
        subtraction in that dtype gives the wrapped age.
        """
        ts = self.ts[start:stop]
        return ts.dtype.type(self._wrapped_now()) - ts

    def active(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Boolean view of slots [start, stop): touched within the last
        window_slices slices."""
        return self.ages(start, stop) < self.window_slices

    def active_cells(self, base: int, width: int, cells: np.ndarray) -> np.ndarray:
        """Active bits of fixed-width cells laid out from slot ``base``:
        row j of the result covers the ``width`` slots from
        base + cells[j] * width."""
        n_cells = (self.n_slots - base) // width
        stamps = self.ts[base:base + n_cells * width].reshape(n_cells, width)[cells]
        np.subtract(stamps.dtype.type(self._wrapped_now()), stamps, out=stamps)
        return stamps < self.window_slices


class SlidingDetector:
    """Sliding-window pipeline over a single shared timestamp pool."""

    def __init__(self, params: DetectorParams, window_slices: int):
        self.params = params
        self.seeds = SeedFamily(self.params.master_seed)
        self.seav_config = self.params.seav_config()
        self.ldca_config = self.params.ldca_config()
        # Flat slot numbering: candidate-sketch bits first, then counter bits.
        cfg, lcfg = self.seav_config, self.ldca_config
        self.ldca_base = cfg.n_registers * cfg.g
        self.pool = TimestampPool(self.ldca_base + lcfg.v * lcfg.k, window_slices)

    def advance_slice(self):
        self.pool.advance_slice()

    def observe_batch(self, hips: np.ndarray, oips: np.ndarray):
        """Stamp the bits both sketches would set for these pairs: bit b of
        register n of a sketch laid out from slot base is slot
        base + n * width + b."""
        for base, width, cfg in ((0, self.seav_config.g, self.seav_config),
                                 (self.ldca_base, self.ldca_config.k, self.ldca_config)):
            bit, registers = cfg.addresses(self.seeds, hips, oips)
            bit += base
            for reg in registers:
                reg *= width
                reg += bit
                self.pool.touch_batch(reg)

    def materialize_seav(self) -> SeavSketch:
        """Active-bit view of the candidate sketch as a regular sketch.

        Reads only the candidate-sketch prefix of the pool.  Each
        register's g flags are padded with zero flags to its dtype's width
        (when g is narrower), so one flat little-endian packbits yields
        every register's bytes in order."""
        cfg = self.seav_config
        sketch = SeavSketch(cfg, self.seeds, restore_cap=self.params.restore_cap)
        bits = self.pool.active(0, self.ldca_base).reshape(cfg.n_registers, cfg.g)
        width = sketch.flat.dtype.itemsize
        if cfg.g < 8 * width:
            bits = np.pad(bits, ((0, 0), (0, 8 * width - cfg.g)))
        sketch.flat[:] = np.packbits(bits, bitorder="little").view(f"<u{width}")
        return sketch

    def materialize_ldca_cell(self, reg: np.ndarray) -> np.ndarray:
        """Active bits of the counter registers numbered ``reg``, one row
        per register: its k flag bytes viewed as k/8 ``uint64`` words (k
        is a multiple of 8), each flag one set bit or none."""
        return self.pool.active_cells(self.ldca_base, self.ldca_config.k, reg).view(np.uint64)

    def zero_counts(self, hips: np.ndarray, bound: int | None = None) -> np.ndarray:
        """Zero-bit count of each host's active AND-union counter register
        (see ``union_zero_counts`` for ``bound``)."""
        return union_zero_counts(self.ldca_config, self.seeds, hips,
                                 self.materialize_ldca_cell, bound)

    def estimate(self, hips: np.ndarray,
                 cutoff: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Estimates and saturated flags of each host's active AND-union
        register, exact for every host whose estimate clears ``cutoff``
        (see ``LdcaSketch.estimate``)."""
        k = self.ldca_config.k
        bound = None if cutoff is None else zero_count_bound(cutoff, k)
        return ldc_estimates(self.zero_counts(hips, bound), k)

    def detect(self) -> list[DetectionReport]:
        """Run restore + filter over the active view at the current slice."""
        return report_candidates(self.materialize_seav(), self.estimate,
                                 self.params, self.pool.now)
