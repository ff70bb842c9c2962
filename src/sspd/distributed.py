"""Simulated watch-point / global-server topology.

Each watch point scans only its shard of the traffic, so per-point
sketches are partial; because updates are monotone bit-sets, OR-merging
all frames at the global server reproduces the single-scanner sketch
bit-for-bit, and restore/estimation then run on global state.

Frame wire format (little-endian, fixed width):

    offset  size  field
    0       4     magic "SSPD"
    4       1     version (1)
    5       1     kind (0 = candidate sketch, 1 = counter sketch)
    6       26    config block: r u8, SR u8, a u8, g u8, theta u32,
                  k u32, LR u16, LC u32, master seed u64
    32      4     window id u32
    36      4     payload length u32
    40      n     payload (raw register bytes)
    40+n    4     CRC-32 of everything before it

Frames of one kind merge only when their config blocks are byte-identical,
and the two kinds only when they carry the same master seed.
"""

from __future__ import annotations

import copy
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    FrameChecksumError,
    FrameMagicError,
    FrameTruncatedError,
    FrameVersionError,
    MergeError,
)
from .hashing import SeedFamily, hash_range_array
from .long_sketch import LdcaConfig, LdcaSketch
from .short_sketch import SeavConfig, SeavSketch
from .window_detector import DetectionReport, DetectorParams, DetectorState, split_windows

MAGIC = b"SSPD"
VERSION = 1
KIND_SEAV = 0
KIND_LDCA = 1
KIND_NAMES = {KIND_SEAV: "seav", KIND_LDCA: "ldca"}

_HEADER = struct.Struct("<4sBB")          # magic, version, kind
_CONFIG = struct.Struct("<BBBBIIHIQ")     # r, SR, a, g, theta, k, LR, LC, seed
_TRAILER = struct.Struct("<II")           # window id, payload length

DEFAULT_BUFFER_PAIRS = 64 * 1024


@dataclass(frozen=True)
class SketchFrame:
    """One watch point's serialized sketch for one window."""

    kind: int
    config_block: bytes
    window_id: int
    payload: bytes


def serialize(sketch: SeavSketch | LdcaSketch, window_id: int) -> bytes:
    """Encode one sketch as a frame; round-trips bit-exactly."""
    if isinstance(sketch, SeavSketch):
        kind = KIND_SEAV
        cfg = sketch.config
        if cfg.addr_bits != 32:
            raise ConfigError("frames carry 32-bit-address sketches only")
        config = _CONFIG.pack(cfg.r, cfg.sr, cfg.a, cfg.g, cfg.theta,
                              0, 0, 0, sketch.seeds.master_seed)
    elif isinstance(sketch, LdcaSketch):
        kind = KIND_LDCA
        cfg = sketch.config
        config = _CONFIG.pack(0, 0, 0, 0, 0, cfg.k, cfg.lr, cfg.lc,
                              sketch.seeds.master_seed)
    else:
        raise ConfigError(f"cannot serialize {type(sketch).__name__}")
    payload = sketch.payload_bytes()
    body = (_HEADER.pack(MAGIC, VERSION, kind) + config
            + _TRAILER.pack(window_id, len(payload)) + payload)
    return body + struct.pack("<I", zlib.crc32(body))


def parse_frame(data: bytes) -> SketchFrame:
    """Validate and split a frame without materializing the sketch."""
    if len(data) < _HEADER.size + _CONFIG.size + _TRAILER.size + 4:
        raise FrameTruncatedError(f"frame is {len(data)} bytes, shorter than any valid frame")
    magic, version, kind = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FrameMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameVersionError(f"unsupported frame version {version}")
    if kind not in KIND_NAMES:
        raise FrameVersionError(f"unknown sketch kind {kind}")
    config_block = data[_HEADER.size:_HEADER.size + _CONFIG.size]
    window_id, payload_len = _TRAILER.unpack_from(data, _HEADER.size + _CONFIG.size)
    total = _HEADER.size + _CONFIG.size + _TRAILER.size + payload_len + 4
    if len(data) < total:
        raise FrameTruncatedError(f"frame is {len(data)} bytes, header promises {total}")
    if len(data) > total:
        raise FrameTruncatedError(f"{len(data) - total} trailing bytes after frame")
    (crc,) = struct.unpack_from("<I", data, total - 4)
    if crc != zlib.crc32(data[:total - 4]):
        raise FrameChecksumError("checksum mismatch")
    payload = data[_HEADER.size + _CONFIG.size + _TRAILER.size:total - 4]
    return SketchFrame(kind=kind, config_block=bytes(config_block),
                       window_id=window_id, payload=bytes(payload))


def _sketch_from_frame(frame: SketchFrame) -> SeavSketch | LdcaSketch:
    r, sr, a, g, theta, k, lr, lc, seed = _CONFIG.unpack(frame.config_block)
    seeds = SeedFamily(seed)
    if frame.kind == KIND_SEAV:
        sketch: SeavSketch | LdcaSketch = SeavSketch(
            SeavConfig(r=r, sr=sr, a=a, theta=theta, g=g), seeds)
    else:
        sketch = LdcaSketch(LdcaConfig(lr=lr, lc=lc, k=k), seeds)
    sketch.load_payload(frame.payload)
    return sketch


def merge_frames(frames: list[SketchFrame]) -> tuple[SeavSketch, LdcaSketch]:
    """OR-merge one window's frames from all watch points into global sketches."""
    if not frames:
        raise MergeError("no frames to merge")
    by_kind: dict[int, list[SketchFrame]] = {KIND_SEAV: [], KIND_LDCA: []}
    for f in frames:
        by_kind[f.kind].append(f)
    for kind, name in KIND_NAMES.items():
        if not by_kind[kind]:
            raise MergeError(f"no {name} frame present")
    window_ids = {f.window_id for f in frames}
    if len(window_ids) != 1:
        raise MergeError(f"frames span windows {sorted(window_ids)}")
    # Both kinds' config blocks end in the master seed (u64).
    if len({f.config_block[-8:] for f in frames}) != 1:
        raise MergeError("frames carry different master seeds")
    merged: list[SeavSketch | LdcaSketch] = []
    for kind in (KIND_SEAV, KIND_LDCA):
        group = by_kind[kind]
        blocks = {f.config_block for f in group}
        if len(blocks) != 1:
            raise MergeError(f"{KIND_NAMES[kind]} frames have mismatched config blocks")
        lengths = {len(f.payload) for f in group}
        if len(lengths) != 1:
            raise MergeError(f"{KIND_NAMES[kind]} frames have mismatched payload sizes")
        acc = np.frombuffer(group[0].payload, dtype=np.uint8).copy()
        for f in group[1:]:
            acc |= np.frombuffer(f.payload, dtype=np.uint8)
        merged.append(_sketch_from_frame(SketchFrame(
            kind=kind, config_block=group[0].config_block,
            window_id=group[0].window_id, payload=acc.tobytes())))
    return merged[0], merged[1]  # type: ignore[return-value]


def merge_timestamp_pools(pools: list) -> "object":
    """Sliding-mode merge: per-slot newest stamp wins.

    Pools must share slot count, window and current slice; merging in
    wrapped space is safe because every pool obeys the same age bound.
    """
    first = pools[0]
    for p in pools[1:]:
        if (p.n_slots, p.window_slices, p.now) != (first.n_slots, first.window_slices, first.now):
            raise MergeError("timestamp pools differ in layout, window, or current slice")
    ages = first.ages()
    for p in pools[1:]:
        np.minimum(ages, p.ages(), out=ages)
    merged = copy.copy(first)  # shares first.ts until it is replaced below
    merged.ts = np.subtract(first.ts.dtype.type(first._wrapped_now()), ages, out=ages)
    return merged


def route_pairs(hips: np.ndarray, oips: np.ndarray, n_wp: int, route: str,
                seeds: SeedFamily) -> np.ndarray:
    """Assign each pair to a watch point.

    "hash" keys on the pair so one host's traffic still scatters across
    points; "round-robin" ignores content entirely.  Any partition works:
    merge correctness never depends on the routing.
    """
    if n_wp < 1:
        raise ConfigError(f"need at least one watch point, got {n_wp}")
    if route == "hash":
        key = (hips.astype(np.uint64) << np.uint64(32)) | oips.astype(np.uint64)
        return hash_range_array(key, seeds.route, n_wp).astype(np.int64)
    if route == "round-robin":
        return (np.arange(len(hips), dtype=np.int64) % n_wp)
    raise ConfigError(f"unknown route {route!r} (expected 'hash' or 'round-robin')")


@dataclass
class WindowResult:
    window_id: int
    reports: list[DetectionReport]
    global_seav: SeavSketch
    global_ldca: LdcaSketch
    frames: list[SketchFrame]


def _scan_shard(state: DetectorState, hips: np.ndarray, oips: np.ndarray,
                buffer_pairs: int):
    # Bounded buffer per watch point: batch, scan, clear, repeat.
    for start in range(0, len(hips), buffer_pairs):
        state.process_batch(hips[start:start + buffer_pairs],
                            oips[start:start + buffer_pairs])
    return state


def simulate_window(params: DetectorParams, window_id: int,
                    hips: np.ndarray, oips: np.ndarray, n_wp: int,
                    route: str = "hash",
                    buffer_pairs: int = DEFAULT_BUFFER_PAIRS,
                    threads: int = 1,
                    frames_dir: Path | str | None = None) -> WindowResult:
    """Scan one window's pairs on n_wp simulated watch points and merge.

    Watch points hold no shared state, so they may scan concurrently;
    the merge runs after all of them finished their shard.
    """
    seeds = SeedFamily(params.master_seed)
    assignment = route_pairs(hips, oips, n_wp, route, seeds)
    states = [DetectorState.create(params) for _ in range(n_wp)]
    shards = [(states[w], hips[assignment == w], oips[assignment == w])
              for w in range(n_wp)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda s: _scan_shard(s[0], s[1], s[2], buffer_pairs), shards))
    else:
        for shard in shards:
            _scan_shard(shard[0], shard[1], shard[2], buffer_pairs)

    if frames_dir is not None:
        Path(frames_dir).mkdir(parents=True, exist_ok=True)
    frames = []
    for w, state in enumerate(states):
        for name, sketch in (("seav", state.seav), ("ldca", state.ldca)):
            data = serialize(sketch, window_id)
            frames.append(parse_frame(data))
            if frames_dir is not None:
                (Path(frames_dir) / f"wp{w}_win{window_id}_{name}.sspd").write_bytes(data)
            del data  # a whole sketch: free it before the next serialize and the merge

    global_seav, global_ldca = merge_frames(frames)
    global_state = DetectorState(seav=global_seav, ldca=global_ldca,
                                 window_id=window_id, params=params)
    reports = global_state.finalize_window()
    return WindowResult(window_id=window_id, reports=reports,
                        global_seav=global_seav, global_ldca=global_ldca,
                        frames=frames)


def simulate_topology(params: DetectorParams, slices: np.ndarray,
                      hips: np.ndarray, oips: np.ndarray,
                      n_wp: int, route: str = "hash",
                      window_slices: int = 300,
                      buffer_pairs: int = DEFAULT_BUFFER_PAIRS,
                      threads: int = 1,
                      frames_dir: Path | str | None = None) -> list[WindowResult]:
    """Partition a whole trace into discrete windows and run each through
    the simulated topology."""
    return [simulate_window(params, wid, hips[sel], oips[sel], n_wp, route=route,
                            buffer_pairs=buffer_pairs, threads=threads,
                            frames_dir=frames_dir)
            for wid, sel in split_windows(slices, window_slices)]
