"""Mergeable streaming sketches for super-point detection on IP pair traffic.

Two tiers: a tiny candidate sketch whose register coordinates encode the
host IP (so heavy hosts can be reconstructed, not just counted), and a
linear-counting array that filters the candidate list and estimates each
survivor's distinct opposite-IP count.  Both tiers are monotone bit-set
structures, so sharded scanning plus OR-merge is exact, and a
timestamp-per-bit variant runs the same detection over sliding windows.
"""

from .errors import ConfigError
from .long_sketch import LdcaSketch, noise_factor, plan_rows, psu
from .short_sketch import SeavSketch
from .sliding import SlidingDetector, TimestampPool
from .distributed import merge_frames, parse_frame, serialize, simulate_window
from .evaluation import ExactOracle, TraceSpec, generate_trace, metrics
from .window_detector import DetectorParams, DetectorState

__all__ = [
    "ConfigError",
    "DetectorParams",
    "DetectorState",
    "ExactOracle",
    "LdcaSketch",
    "SeavSketch",
    "SlidingDetector",
    "TimestampPool",
    "TraceSpec",
    "generate_trace",
    "merge_frames",
    "metrics",
    "noise_factor",
    "parse_frame",
    "plan_rows",
    "psu",
    "serialize",
    "simulate_window",
]

__version__ = "0.1.0"
