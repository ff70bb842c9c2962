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

The global server merges a frame only when its config block equals, byte
for byte, the block the server's own sketch of that kind encodes: the
receiver, not the frames, says which detector a window belongs to.
"""

from __future__ import annotations

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
from .hashing import MASK64, SeedFamily, hash_range_array
from .long_sketch import LdcaConfig, LdcaSketch
from .short_sketch import SeavConfig, SeavSketch
from .window_detector import DetectionReport, DetectorParams, DetectorState

MAGIC = b"SSPD"
VERSION = 1
KIND_SEAV = 0
KIND_LDCA = 1
KIND_NAMES = {KIND_SEAV: "seav", KIND_LDCA: "ldca"}

_HEADER = struct.Struct("<4sBB")          # magic, version, kind
_CONFIG = struct.Struct("<BBBBIIHIQ")     # r, SR, a, g, theta, k, LR, LC, seed
_CONFIG_FIELDS = (("r", 8), ("SR", 8), ("a", 8), ("g", 8), ("theta", 32),
                  ("k", 32), ("LR", 16), ("LC", 32))  # not the seed: always u64
_TRAILER = struct.Struct("<II")           # window id, payload length
_BLOCK = slice(_HEADER.size, _HEADER.size + _CONFIG.size)
_PAYLOAD = _BLOCK.stop + _TRAILER.size
_CRC = struct.Struct("<I")

DEFAULT_BUFFER_PAIRS = 64 * 1024


@dataclass(frozen=True)
class SketchFrame:
    """One watch point's serialized sketch for one window."""

    kind: int
    config_block: bytes
    window_id: int
    payload: bytes | memoryview


def _config_block(cfg: SeavConfig | LdcaConfig, master_seed: int) -> tuple[int, bytes]:
    """The frame kind and v1 config block of a sketch config: the only
    encoder of the block."""
    if isinstance(cfg, SeavConfig):
        if cfg.addr_bits != 32:
            raise ConfigError("frames carry 32-bit-address sketches only")
        kind, values = KIND_SEAV, (cfg.r, cfg.sr, cfg.a, cfg.g, cfg.theta, 0, 0, 0)
    elif isinstance(cfg, LdcaConfig):
        kind, values = KIND_LDCA, (0, 0, 0, 0, 0, cfg.k, cfg.lr, cfg.lc)
    else:
        raise ConfigError(f"cannot serialize {type(cfg).__name__}")
    for (name, bits), value in zip(_CONFIG_FIELDS, values):
        if not 0 <= value < 1 << bits:
            raise ConfigError(f"a v1 frame holds {name} in {bits} bits, got {value}")
    return kind, _CONFIG.pack(*values, master_seed & MASK64)  # as SeedFamily keeps it


def check_frame_capacity(params: DetectorParams):
    """Refuse a detector whose sketches no v1 frame can carry; reads the
    two configs and allocates no registers."""
    for cfg in (params.seav_config(), params.ldca_config()):
        _config_block(cfg, params.master_seed)


def serialize(sketch: SeavSketch | LdcaSketch, window_id: int) -> bytearray:
    """Encode one sketch as a frame, built in one buffer."""
    kind, block = _config_block(sketch.config, sketch.seeds.master_seed)
    if not 0 <= window_id < 1 << 32:
        raise ConfigError(f"a v1 frame holds the window id in 32 bits, got {window_id}")
    regs = sketch.flat
    end = _PAYLOAD + regs.nbytes
    frame = bytearray(end + _CRC.size)
    _HEADER.pack_into(frame, 0, MAGIC, VERSION, kind)
    frame[_BLOCK] = block
    _TRAILER.pack_into(frame, _BLOCK.stop, window_id, regs.nbytes)
    with memoryview(frame) as view:
        view[_PAYLOAD:end] = regs.data.cast("B")
        _CRC.pack_into(frame, end, zlib.crc32(view[:end]))
    return frame


def parse_frame(data: bytes | bytearray) -> SketchFrame:
    """Validate and split a frame; the payload is a read-only view into ``data``."""
    if len(data) < _PAYLOAD + _CRC.size:
        raise FrameTruncatedError(f"frame is {len(data)} bytes, shorter than any valid frame")
    magic, version, kind = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FrameMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameVersionError(f"unsupported frame version {version}")
    if kind not in KIND_NAMES:
        raise FrameVersionError(f"unknown sketch kind {kind}")
    window_id, payload_len = _TRAILER.unpack_from(data, _BLOCK.stop)
    end = _PAYLOAD + payload_len
    total = end + _CRC.size
    if len(data) < total:
        raise FrameTruncatedError(f"frame is {len(data)} bytes, header promises {total}")
    if len(data) > total:
        raise FrameTruncatedError(f"{len(data) - total} trailing bytes after frame")
    view = memoryview(data).toreadonly()
    (crc,) = _CRC.unpack_from(view, end)
    if crc != zlib.crc32(view[:end]):
        raise FrameChecksumError("checksum mismatch")
    return SketchFrame(kind=kind, config_block=bytes(view[_BLOCK]), window_id=window_id,
                       payload=view[_PAYLOAD:end])


def merge_frames(receiver: DetectorState, frames: list[SketchFrame]) -> DetectorState:
    """OR one window's frames into the receiver's registers and return the
    receiver, its window id set from the frames.  Each frame is checked
    first: its config block must be the one the receiver's own sketch of
    that kind encodes, byte for byte, and its payload must fill that
    sketch's registers."""
    if not frames:
        raise MergeError("no frames to merge")
    window_ids = sorted({f.window_id for f in frames})
    if len(window_ids) != 1:
        raise MergeError(f"frames span windows {window_ids}")
    own = {}
    for sketch in (receiver.seav, receiver.ldca):
        kind, block = _config_block(sketch.config, sketch.seeds.master_seed)
        own[kind] = block, sketch.flat
    for kind, name in KIND_NAMES.items():
        if all(f.kind != kind for f in frames):
            raise MergeError(f"no {name} frame present")
    for f in frames:
        block, regs = own[f.kind]
        if f.config_block != block:
            raise MergeError(f"{KIND_NAMES[f.kind]} frame config block is not the receiver's")
        if len(f.payload) != regs.nbytes:
            raise MergeError(f"{KIND_NAMES[f.kind]} frame payload is {len(f.payload)} bytes, "
                             f"not {regs.nbytes}")
    for f in frames:
        regs = own[f.kind][1]
        np.bitwise_or(regs, np.frombuffer(f.payload, regs.dtype), out=regs)
    receiver.window_id = window_ids[0]
    return receiver


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


def simulate_window(params: DetectorParams, window_id: int,
                    hips: np.ndarray, oips: np.ndarray, n_wp: int,
                    route: str = "hash",
                    buffer_pairs: int = DEFAULT_BUFFER_PAIRS,
                    threads: int = 1,
                    frames_dir: Path | str | None = None) -> WindowResult:
    """Scan one window's pairs on n_wp simulated watch points and merge.

    One call takes a watch point from its shard to its two frames: it
    builds the point's state, scans the shard in ``buffer_pairs`` batches
    and serializes the candidate sketch, then the counter sketch.  The
    state lives only until its frames are built, so at most ``threads``
    watch-point states exist at once.  Watch points share no state, so
    they may scan concurrently; the merge runs after all of them shipped.
    """
    check_frame_capacity(params)
    receiver = DetectorState.create(params)
    assignment = route_pairs(hips, oips, n_wp, route, receiver.seav.seeds)
    if frames_dir is not None:
        Path(frames_dir).mkdir(parents=True, exist_ok=True)

    def watch_point(w: int) -> list[SketchFrame]:
        state = DetectorState.create(params)
        shard = assignment == w
        shard_hips, shard_oips = hips[shard], oips[shard]
        # Bounded buffer per watch point: batch, scan, clear, repeat.
        for start in range(0, len(shard_hips), buffer_pairs):
            state.process_batch(shard_hips[start:start + buffer_pairs],
                                shard_oips[start:start + buffer_pairs])
        frames = []
        for name, sketch in (("seav", state.seav), ("ldca", state.ldca)):
            data = serialize(sketch, window_id)
            frames.append(parse_frame(data))
            if frames_dir is not None:
                (Path(frames_dir) / f"wp{w}_win{window_id}_{name}.sspd").write_bytes(data)
        return frames

    with ThreadPoolExecutor(max_workers=threads) as pool:
        frames = [f for point in pool.map(watch_point, range(n_wp)) for f in point]
    merged = merge_frames(receiver, frames)
    return WindowResult(window_id=window_id, reports=merged.finalize_window(),
                        global_seav=merged.seav, global_ldca=merged.ldca,
                        frames=frames)
