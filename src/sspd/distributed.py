"""Simulated watch-point / global-server topology.

Each watch point scans only its shard of the traffic, so per-point
sketches are partial; because updates are monotone bit-sets, OR-merging
all frames at the global server reproduces the single-scanner sketch
bit-for-bit, and restore/estimation then run on global state.

Frame wire format, version 4 (little-endian):

    offset  size  field
    0       4     magic "SSPD"
    4       1     version (4)
    5       1     kind (0 = candidate sketch, 1 = counter sketch)
    6       1     payload encoding (0 = raw, 1 = sparse)
    7       8     window id u64
    15      8     payload length n, u64
    23      4     config block length b, u32
    27      b     config block
    27+b    n     payload
    27+b+n  4     CRC-32 of everything before it

The config block is ASCII text: the sketch config's init fields, the
master seed last, as ``name=value`` with the values in hex, separated by
spaces (a candidate sketch: ``r=4 sr=4 a=2 theta=400 g=8 addr_bits=20
seed=5eed``).  A raw payload is the sketch's register bytes.  A sparse
payload lists the u nonzero 64-bit words of those bytes in ascending
order, m of them with more than one set bit, in B = ceil(W / 256) blocks
of the W words (n = 2 B + 2 u + 8 m):

    2 B   per block, its count of nonzero words, u16
    u     per nonzero word, its index mod 256, u8
    u     per nonzero word, the number of its only set bit or else 64, u8
    8 m   the words tagged 64, u64

A counter frame takes whichever of raw and sparse is smaller; a
candidate frame is always raw, so its size is fixed.  Frames of versions
1 to 3 are refused.

The global server merges a frame only when its config block equals, byte
for byte, the block of the server's own sketch of that kind: the
receiver, not the frames, says which detector a window belongs to.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, fields
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
from .hashing import Tag, derive_seed, hash_range_array
from .long_sketch import LdcaSketch
from .short_sketch import SeavSketch
from .window_detector import DetectionReport, DetectorParams, DetectorState

MAGIC = b"SSPD"
VERSION = 4
KIND_SEAV = 0
KIND_LDCA = 1
KIND_NAMES = {KIND_SEAV: "seav", KIND_LDCA: "ldca"}
ENCODING_RAW = 0
ENCODING_SPARSE = 1
BLOCK_BITS = 8               # a sparse block holds 2**8 words: u8 indexes

# magic, version, kind, encoding, window id, payload length, block length
_HEADER = struct.Struct("<4sBBBQQI")
_CRC = struct.Struct("<I")

DEFAULT_BUFFER_PAIRS = 64 * 1024


@dataclass(frozen=True)
class SketchFrame:
    """One watch point's serialized sketch for one window."""

    kind: int
    encoding: int
    config_block: bytes
    window_id: int
    payload: bytes | memoryview


def _config_block(sketch: SeavSketch | LdcaSketch) -> bytes:
    """The config block of a sketch: the only encoder of the block."""
    cfg = sketch.config
    return " ".join(f"{f.name}={getattr(cfg, f.name):x}" for f in fields(cfg) if f.init).encode()


def _payload(kind: int, regs: np.ndarray) -> tuple[int, tuple[np.ndarray, ...]]:
    """The encoding and payload parts of one sketch's registers: sparse
    for a counter sketch when that is smaller than raw, raw otherwise."""
    if kind == KIND_LDCA and regs.nbytes % 8 == 0:
        words = regs.view(np.uint64)
        set_words = words != 0  # numpy finds a bool array's nonzeros faster
        blocks = -(-len(words) >> BLOCK_BITS)
        if 2 * blocks + 2 * np.count_nonzero(set_words) < regs.nbytes:
            index = np.flatnonzero(set_words)
            values = words[index]
            below = values - 1  # a one-bit word's bit number is below's popcount
            multi = np.flatnonzero((values & below) != 0)
            if 2 * blocks + 2 * len(index) + 8 * len(multi) < regs.nbytes:
                tags = np.bitwise_count(below)
                tags[multi] = 64
                ends = np.searchsorted(index, np.arange(blocks + 1) << BLOCK_BITS)
                return ENCODING_SPARSE, (np.diff(ends).astype("<u2"), index.astype(np.uint8),
                                         tags, values[multi])
    return ENCODING_RAW, (regs,)


def serialize(sketch: SeavSketch | LdcaSketch, window_id: int) -> bytearray:
    """Encode one sketch as a frame, built in one buffer."""
    if not 0 <= window_id < 1 << 64:
        raise ConfigError(f"a frame holds the window id in 64 bits, got {window_id}")
    kind = KIND_SEAV if isinstance(sketch, SeavSketch) else KIND_LDCA
    block = _config_block(sketch)
    encoding, parts = _payload(kind, sketch.flat)
    size = sum(part.nbytes for part in parts)
    at = _HEADER.size + len(block)
    frame = bytearray(at + size + _CRC.size)
    _HEADER.pack_into(frame, 0, MAGIC, VERSION, kind, encoding, window_id, size, len(block))
    frame[_HEADER.size:at] = block
    with memoryview(frame) as view:
        for part in parts:
            view[at:at + part.nbytes] = part.data.cast("B")
            at += part.nbytes
        _CRC.pack_into(frame, at, zlib.crc32(view[:at]))
    return frame


def parse_frame(data: bytes | bytearray) -> SketchFrame:
    """Validate and split a frame; the payload is a read-only view into ``data``."""
    if len(data) < _HEADER.size + _CRC.size:
        raise FrameTruncatedError(f"frame is {len(data)} bytes, shorter than any valid frame")
    magic, version, kind, encoding, window_id, payload_len, block_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameVersionError(f"unsupported frame version {version}")
    if kind not in KIND_NAMES:
        raise FrameVersionError(f"unknown sketch kind {kind}")
    if encoding not in (ENCODING_RAW, ENCODING_SPARSE):
        raise FrameVersionError(f"unknown payload encoding {encoding}")
    start = _HEADER.size + block_len
    end = start + payload_len
    total = end + _CRC.size
    if len(data) < total:
        raise FrameTruncatedError(f"frame is {len(data)} bytes, header promises {total}")
    if len(data) > total:
        raise FrameTruncatedError(f"{len(data) - total} trailing bytes after frame")
    view = memoryview(data).toreadonly()
    (crc,) = _CRC.unpack_from(view, end)
    if crc != zlib.crc32(view[:end]):
        raise FrameChecksumError("checksum mismatch")
    return SketchFrame(kind=kind, encoding=encoding, config_block=bytes(view[_HEADER.size:start]),
                       window_id=window_id, payload=view[start:end])


def _unpack(frame: SketchFrame, regs: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice,
                                                            np.ndarray]:
    """Check a frame's payload against the registers it merges into and
    return ``(target, index, values)`` for ``target[index] |= values``."""
    name, payload = KIND_NAMES[frame.kind], frame.payload
    if frame.encoding == ENCODING_RAW:
        if len(payload) != regs.nbytes:
            raise MergeError(f"{name} frame payload is {len(payload)} bytes, not {regs.nbytes}")
        return regs, slice(None), np.frombuffer(payload, regs.dtype)
    if regs.nbytes % 8:
        raise MergeError(f"{name} frame is sparse, but its {regs.nbytes} register bytes "
                         "are not whole words")
    words, size = regs.view(np.uint64), len(payload)
    blocks = -(-len(words) >> BLOCK_BITS)
    if size < 2 * blocks:
        raise MergeError(f"{name} frame has a sparse payload of {size} bytes, shorter "
                         f"than its {2 * blocks}-byte count table")
    counts = np.frombuffer(payload, "<u2", blocks)
    n = int(counts.sum())
    at = 2 * blocks + n  # the tags; the low index bytes come before them
    if size < at + n:
        raise MergeError(f"{name} frame counts {n} words, more than its {size}-byte payload holds")
    tags = np.frombuffer(payload, np.uint8, n, at)
    if n and tags.max() > 64:
        raise MergeError(f"{name} frame tags a word with bit {tags.max()}")
    multi = tags == 64
    m = int(np.count_nonzero(multi))
    if size != at + n + 8 * m:
        raise MergeError(f"{name} frame has a sparse payload of {size} bytes, not "
                         f"{at + n + 8 * m} for {n} words, {m} of them multi-bit")
    index = np.repeat(np.arange(blocks) << BLOCK_BITS, counts)
    index += np.frombuffer(payload, np.uint8, n, 2 * blocks)
    if (index[1:] <= index[:-1]).any():
        raise MergeError(f"{name} frame word indexes do not strictly increase")
    if n and index[-1] >= len(words):
        raise MergeError(f"{name} frame names word {index[-1]} of {len(words)}")
    values = np.uint64(1) << tags  # a tag of 64 shifts the bit out
    np.place(values, multi, np.frombuffer(payload, "<u8", m, at + n))
    return words, index, values


def merge_frames(receiver: DetectorState, frames: list[SketchFrame]) -> DetectorState:
    """OR frames of one window into the receiver's registers and return the
    receiver, its window id set from the frames.  Each frame is checked
    first: its config block must be the one the receiver's own sketch of
    that kind encodes, byte for byte, and its payload must fit that
    sketch's registers."""
    if not frames:
        raise MergeError("no frames to merge")
    window_ids = sorted({f.window_id for f in frames})
    if len(window_ids) != 1:
        raise MergeError(f"frames span windows {window_ids}")
    own = {kind: (_config_block(sketch), sketch.flat)
           for kind, sketch in ((KIND_SEAV, receiver.seav), (KIND_LDCA, receiver.ldca))}
    for kind, name in KIND_NAMES.items():
        if all(f.kind != kind for f in frames):
            raise MergeError(f"no {name} frame present")
    updates = []
    for f in frames:
        block, regs = own[f.kind]
        if f.config_block != block:
            raise MergeError(f"{KIND_NAMES[f.kind]} frame config {f.config_block!r} "
                             f"is not the receiver's {block!r}")
        updates.append(_unpack(f, regs))
    for target, index, values in updates:
        target[index] |= values  # sparse indexes are unique, so no OR is lost
    receiver.window_id = window_ids[0]
    return receiver


def route_pairs(hips: np.ndarray, oips: np.ndarray, n_wp: int, route: str,
                seed: int) -> np.ndarray:
    """Assign each pair to a watch point; ``seed`` is the master seed.

    "hash" keys on the pair so one host's traffic still scatters across
    points; "round-robin" ignores content entirely.  Any partition works:
    merge correctness never depends on the routing.
    """
    if n_wp < 1:
        raise ConfigError(f"need at least one watch point, got {n_wp}")
    if route == "hash":
        key = (hips.astype(np.uint64) << np.uint64(32)) | oips.astype(np.uint64)
        return hash_range_array(key, derive_seed(seed, Tag.ROUTE), n_wp).astype(np.int64)
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

    The watch points are scanned in point order with one state: each
    point's shard is scanned in ``buffer_pairs`` batches, its candidate
    sketch and then its counter sketch are serialized, the state is zeroed
    for the next point, and the point's frames are ORed into the receiver.
    ``threads`` is accepted only as 1.
    """
    if threads != 1:
        raise ConfigError(f"watch points are scanned in one thread, got threads={threads}")
    receiver = DetectorState.create(params)
    assignment = route_pairs(hips, oips, n_wp, route, params.master_seed)
    # One stable sort shards the window: point w's pairs, in stream order,
    # are bounds[w]:bounds[w + 1] of the sorted pairs.  The narrowest lane
    # type lets numpy radix-sort it.
    order = np.argsort(assignment.astype(np.min_scalar_type(n_wp - 1)), kind="stable")
    bounds = [0, *np.cumsum(np.bincount(assignment, minlength=n_wp)).tolist()]
    shard_hips, shard_oips = hips[order], oips[order]
    del assignment, order
    if frames_dir is not None:
        Path(frames_dir).mkdir(parents=True, exist_ok=True)
    state = DetectorState.create(params)
    frames = []
    for w in range(n_wp):
        stop = bounds[w + 1]
        # Bounded buffer per watch point: batch, scan, clear, repeat.
        for start in range(bounds[w], stop, buffer_pairs):
            end = min(start + buffer_pairs, stop)
            state.process_batch(shard_hips[start:end], shard_oips[start:end])
        point = []
        for name, sketch in (("seav", state.seav), ("ldca", state.ldca)):
            data = serialize(sketch, window_id)
            point.append(parse_frame(data))
            if frames_dir is not None:
                (Path(frames_dir) / f"wp{w}_win{window_id}_{name}.sspd").write_bytes(data)
        state.reset()
        merge_frames(receiver, point)
        frames += point
    return WindowResult(window_id=window_id, reports=receiver.finalize_window(),
                        global_seav=receiver.seav, global_ldca=receiver.ldca,
                        frames=frames)
