"""Discrete-window detection pipeline: one candidate sketch plus one
counter sketch per window, reset at window boundaries.

Per-pair updates touch both sketches and stay in integer arithmetic;
floating point appears only when a window is finalized.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .hashing import DEFAULT_MASTER_SEED
from .long_sketch import (
    DEFAULT_DESIGN_N,
    DEFAULT_K,
    DEFAULT_V,
    LdcaConfig,
    LdcaSketch,
    check_noise,
    filter_cutoff,
    plan_rows,
)
from .short_sketch import SeavConfig, SeavSketch


@dataclass(frozen=True)
class DetectionReport:
    """One detected host: IP, its estimated fan-out, and its window."""

    ip: int
    estimated_cardinality: float
    saturated: bool
    window_id: int


def report_candidates(seav: SeavSketch,
                      estimate: Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]],
                      cutoff: float, window_id: int) -> list[DetectionReport]:
    """Restore candidates and keep those whose counter estimate reaches
    ``cutoff``, ``filter_cutoff`` of theta and k, or saturates, sorted by IP.

    ``estimate(ips, cutoff)`` maps host IPs to the estimates and saturated
    flags of their AND-union registers in one batch; the two detection
    modes differ only in where it reads them.  It may stop reading a host
    early: that host's estimate is then a partial one below the cutoff,
    never saturated, so this one test still decides every host.  The
    register arrays restore skipped are left in ``seav.overflowed_arrays``.
    """
    ips = seav.restore()
    est, saturated = estimate(ips, cutoff)
    keep = saturated | (est >= cutoff)
    return [DetectionReport(ip=ip, estimated_cardinality=e, saturated=s, window_id=window_id)
            for ip, e, s in zip(ips[keep].tolist(), est[keep].tolist(), saturated[keep].tolist())]


def split_windows(slices: np.ndarray, window_slices: int):
    """Pair indexes of each discrete window, as (window id, indexes) in
    window order.  One stable sort on the window id keeps each window's
    pairs in stream order."""
    if window_slices < 1:
        raise ConfigError(f"window must span >= 1 slice, got {window_slices}")
    window_ids = slices.astype(np.int64) // window_slices
    order = np.argsort(window_ids, kind="stable")
    wids, counts = np.unique(window_ids, return_counts=True)
    del window_ids  # while suspended, hold only the order the indexes view
    stops = np.cumsum(counts)
    for wid, start, stop in zip(wids.tolist(), (stops - counts).tolist(), stops.tolist()):
        yield wid, order[start:stop]


@dataclass(frozen=True)
class DetectorParams:
    """Every detector knob.  Both sketches share theta; with k it fixes the filter cutoff.

    Construction validates the knobs and builds both sketch geometries
    once, so a bad value fails here rather than mid-run.
    """

    theta: int = 1024
    r: int = 4
    sr: int = 4
    a: int = 2
    g: int = 8
    k: int = DEFAULT_K
    lr: int | None = None       # None: planned from (v, design_n, k); else lc = v // lr
    v: int = DEFAULT_V
    design_n: float = DEFAULT_DESIGN_N
    master_seed: int = DEFAULT_MASTER_SEED
    restore_cap: int = 1 << 20
    _seav: SeavConfig = field(init=False, repr=False, compare=False)
    _ldca: LdcaConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.v < 1:
            raise ConfigError(f"v must be >= 1, got {self.v}")
        if not 0 < self.design_n < math.inf:  # also refuses NaN
            raise ConfigError(f"design_n must be finite and > 0, got {self.design_n:g}")
        if self.restore_cap < 1:
            raise ConfigError(f"restore_cap must be >= 1, got {self.restore_cap}")
        if self.lr is not None and self.lr < 1:
            raise ConfigError(f"lr must be >= 1, got {self.lr}")
        if self.lr is not None and self.v < self.lr:
            raise ConfigError(f"v must be >= lr, got v={self.v}, lr={self.lr}")
        object.__setattr__(self, "_seav", SeavConfig(
            r=self.r, sr=self.sr, a=self.a, theta=self.theta, g=self.g, seed=self.master_seed))
        if self.lr is None:
            lr, lc = plan_rows(self.v, self.design_n, self.k)
        else:
            lr, lc = self.lr, self.v // self.lr
        object.__setattr__(self, "_ldca", LdcaConfig(lr, lc, self.k, seed=self.master_seed))
        check_noise(self.k, self.design_n, lc, lr)

    def seav_config(self) -> SeavConfig:
        return self._seav

    def ldca_config(self) -> LdcaConfig:
        return self._ldca


@dataclass
class DetectorState:
    seav: SeavSketch
    ldca: LdcaSketch
    window_id: int = 0

    @classmethod
    def create(cls, params: DetectorParams) -> "DetectorState":
        try:
            seav = SeavSketch(params.seav_config(), restore_cap=params.restore_cap)
            ldca = LdcaSketch(params.ldca_config())
        except MemoryError as exc:
            raise ConfigError(f"detector registers too large: {exc}") from exc
        return cls(seav=seav, ldca=ldca)

    @property
    def theta(self) -> int:
        return self.seav.config.theta

    def memory_bytes(self) -> tuple[int, int]:
        return self.seav.config.memory_bytes(), self.ldca.config.memory_bytes()

    def process_batch(self, hips: np.ndarray, oips: np.ndarray):
        self.seav.update_batch(hips, oips)
        self.ldca.update_batch(hips, oips)

    def finalize_window(self) -> list[DetectionReport]:
        """This window's reports (see ``report_candidates``)."""
        cutoff = filter_cutoff(self.theta, self.ldca.config.k)
        return report_candidates(self.seav, self.ldca.estimate, cutoff, self.window_id)

    def reset(self):
        """Zero all registers for the next window; the configs stay."""
        self.seav.clear()
        self.ldca.clear()
        self.window_id += 1
