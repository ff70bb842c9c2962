"""Discrete-window detection pipeline: one candidate sketch plus one
counter sketch per window, reset at window boundaries.

Per-pair updates touch both sketches and stay in integer arithmetic;
floating point appears only when a window is finalized.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .hashing import DEFAULT_MASTER_SEED, MASK64, SeedFamily
from .long_sketch import (
    DEFAULT_DESIGN_N,
    DEFAULT_K,
    DEFAULT_V,
    LdcaConfig,
    LdcaSketch,
    check_noise,
    plan_rows,
)
from .short_sketch import DEFAULT_RESTORE_CAP, SeavConfig, SeavSketch

DEFAULT_BETA = 0.8


@dataclass(frozen=True)
class DetectionReport:
    """One detected host: IP, its estimated fan-out, and its window."""

    ip: int
    estimated_cardinality: float
    saturated: bool
    window_id: int


def report_candidates(seav: SeavSketch,
                      estimate: Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]],
                      params: DetectorParams, window_id: int) -> list[DetectionReport]:
    """Restore candidates and keep those whose counter estimate clears
    beta * theta (or saturates), sorted by IP.

    ``estimate(ips, cutoff)`` maps an array of host IPs to the estimates
    and saturated flags of their AND-union registers in one batch; both
    detection modes share this loop and differ only in where those
    registers are read from.  It is handed the cutoff so that it may stop
    reading a host early: such a host's estimate is a partial one below
    the cutoff, never saturated, so this one test still decides every
    host.  Per-array restore overflows surface as warnings, not failures.
    """
    cutoff = params.beta * params.theta
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
    """Every detector knob; both sketches share theta.

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
    beta: float = DEFAULT_BETA
    master_seed: int = DEFAULT_MASTER_SEED
    restore_cap: int = DEFAULT_RESTORE_CAP
    _seav: SeavConfig = field(init=False, repr=False, compare=False)
    _ldca: LdcaConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.master_seed <= MASK64:  # so a report header names the seed hashed
            raise ConfigError(f"master_seed must be in [0, 2^64), got {self.master_seed}")
        if not self.beta > 0:  # also refuses NaN
            raise ConfigError(f"beta must be > 0, got {self.beta:g}")
        if self.v < 1:
            raise ConfigError(f"v must be >= 1, got {self.v}")
        if not self.design_n > 0:
            raise ConfigError(f"design_n must be > 0, got {self.design_n:g}")
        if self.restore_cap < 1:
            raise ConfigError(f"restore_cap must be >= 1, got {self.restore_cap}")
        if self.lr is not None and self.lr < 1:
            raise ConfigError(f"lr must be >= 1, got {self.lr}")
        if self.lr is not None and self.v < self.lr:
            raise ConfigError(f"v must be >= lr, got v={self.v}, lr={self.lr}")
        object.__setattr__(self, "_seav", SeavConfig(
            r=self.r, sr=self.sr, a=self.a, theta=self.theta, g=self.g))
        if self.lr is None:
            lr, lc = plan_rows(self.v, self.design_n, self.k)
        else:
            lr, lc = self.lr, self.v // self.lr
        object.__setattr__(self, "_ldca", LdcaConfig(lr=lr, lc=lc, k=self.k))
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
    params: DetectorParams = field(default_factory=DetectorParams)

    @classmethod
    def create(cls, params: DetectorParams | None = None) -> "DetectorState":
        params = params or DetectorParams()
        seeds = SeedFamily(params.master_seed)
        try:
            seav = SeavSketch(params.seav_config(), seeds, restore_cap=params.restore_cap)
            ldca = LdcaSketch(params.ldca_config(), seeds)
        except MemoryError as exc:
            raise ConfigError(f"detector registers too large: {exc}") from exc
        return cls(seav=seav, ldca=ldca, params=params)

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
        return report_candidates(self.seav, self.ldca.estimate, self.params, self.window_id)

    def reset(self):
        """Zero all registers for the next window; config and seeds stay."""
        self.seav.clear()
        self.ldca.clear()
        self.window_id += 1
