"""Mergeable streaming sketches for super-point detection on IP pair traffic.

Two tiers: a tiny candidate sketch whose register coordinates encode the
host IP (so heavy hosts can be reconstructed, not just counted), and a
linear-counting array that filters the candidate list and estimates each
survivor's distinct opposite-IP count.  Both tiers are monotone bit-set
structures, so sharded scanning plus OR-merge is exact, and a
timestamp-per-bit variant runs the same detection over sliding windows.
"""

from .errors import (
    ConfigError,
    DataError,
    FrameChecksumError,
    FrameMagicError,
    FrameTruncatedError,
    FrameVersionError,
    MergeError,
    SeaOverflowError,
    SspdError,
    UndefinedMetricError,
)
from .hashing import DEFAULT_MASTER_SEED, HashSeed, SeedFamily, Tag
from .long_sketch import LdcaConfig, LdcaSketch, ldc_estimate, noise_factor, plan_rows, psu
from .short_sketch import CandidateHost, SeavConfig, SeavSketch, tau_from_theta
from .sliding import SlidingDetector, TimestampPool
from .distributed import (
    SketchFrame,
    merge_frames,
    parse_frame,
    serialize,
    simulate_topology,
    simulate_window,
)
from .evaluation import ExactOracle, Trace, TraceSpec, generate_trace, metrics, metrics_report
from .window_detector import DetectionReport, DetectorParams, DetectorState

__all__ = [
    "CandidateHost",
    "ConfigError",
    "DataError",
    "DEFAULT_MASTER_SEED",
    "DetectionReport",
    "DetectorParams",
    "DetectorState",
    "ExactOracle",
    "FrameChecksumError",
    "FrameMagicError",
    "FrameTruncatedError",
    "FrameVersionError",
    "HashSeed",
    "LdcaConfig",
    "LdcaSketch",
    "MergeError",
    "SeaOverflowError",
    "SeavConfig",
    "SeavSketch",
    "SeedFamily",
    "SketchFrame",
    "SlidingDetector",
    "SspdError",
    "Tag",
    "TimestampPool",
    "Trace",
    "TraceSpec",
    "UndefinedMetricError",
    "generate_trace",
    "ldc_estimate",
    "merge_frames",
    "metrics",
    "metrics_report",
    "noise_factor",
    "parse_frame",
    "plan_rows",
    "psu",
    "serialize",
    "simulate_topology",
    "simulate_window",
    "tau_from_theta",
]

__version__ = "0.1.0"
