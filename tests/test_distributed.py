import struct
import sys
import tracemalloc
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest

from sspd import distributed
from sspd.distributed import (
    merge_frames,
    parse_frame,
    route_pairs,
    serialize,
    simulate_window,
)
from sspd.errors import (
    ConfigError,
    FrameChecksumError,
    FrameMagicError,
    FrameTruncatedError,
    FrameVersionError,
    MergeError,
)
from sspd.hashing import SeedFamily
from sspd.long_sketch import LdcaConfig
from sspd.short_sketch import SeavConfig, SeavSketch
from sspd.window_detector import DetectorParams, DetectorState, split_windows

SEEDS = SeedFamily()
PARAMS = DetectorParams(theta=1024, k=4096, lr=2, v=128, design_n=4e3)


def random_states(n_pairs=8000, seed=1):
    rng = np.random.default_rng(seed)
    hips = rng.integers(0, 2**32, size=n_pairs, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=n_pairs, dtype=np.uint64)
    hips[: n_pairs // 4] = 0x11223344
    st = DetectorState.create(PARAMS)
    st.process_batch(hips, oips)
    return st, hips, oips


# --- frames -------------------------------------------------------------------

def test_round_trip_both_kinds():
    st, _, _ = random_states()
    back = merge(frames_for(st, window_id=7))
    assert back.window_id == 7
    assert np.array_equal(back.seav.flat, st.seav.flat)
    assert np.array_equal(back.ldca.flat, st.ldca.flat)


def test_frame_bytes_are_pinned():
    # The CRC each frame ends with.  zlib.crc32 over a whole frame, its
    # CRC included, is the CRC-32 residue 0x2144DF1C for every valid frame.
    # The empty counter frame is sparse with no entries, the busy one raw.
    empty = DetectorState.create(PARAMS)
    busy, _, _ = random_states()
    frames = [serialize(s, 3) for s in (empty.seav, empty.ldca, busy.seav, busy.ldca)]
    assert [(len(f), zlib.crc32(f[:-4])) for f in frames] == [
        (32848, 0x81B748D9), (58, 0xC6B5AEC0), (32848, 0x100E3CA1), (65594, 0x64D0B239)]
    # Magic, version, kind, encoding, window id, payload and block lengths,
    # then the block; no payload.
    block = b"lr=2 lc=40 k=1000 seed=5eed"
    assert frames[1][:-4] == (b"SSPD\x03\x01\x01" + (3).to_bytes(8, "little") + bytes(8)
                              + len(block).to_bytes(4, "little") + block)


ENVELOPE = 31  # 27 header bytes before the config block, 4 CRC bytes after the payload


@pytest.mark.parametrize("n_pairs", [0, 100, 600, 8000])
def test_frame_size_follows_the_set_words(n_pairs):
    # A candidate frame is always raw; a counter frame is raw or sparse,
    # whichever is smaller, and a sparse one lists its set words' indexes
    # ascending, then the words.  The config block is the sketch config's
    # init fields and the master seed, in hex.
    st, _, _ = random_states(n_pairs=n_pairs)
    blob = serialize(st.seav, 0)
    seav = parse_frame(blob)
    assert seav.config_block == b"r=4 sr=4 a=2 theta=400 g=8 addr_bits=20 seed=5eed"
    assert seav.encoding == distributed.ENCODING_RAW
    assert len(blob) == ENVELOPE + len(seav.config_block) + st.seav.flat.nbytes
    words = st.ldca.flat.view(np.uint64)
    index = np.flatnonzero(words)
    blob = serialize(st.ldca, 0)
    ldca = parse_frame(blob)
    assert ldca.config_block == b"lr=2 lc=40 k=1000 seed=5eed"
    assert len(blob) == (ENVELOPE + len(ldca.config_block)
                         + min(words.nbytes, 12 * len(index)))
    if ldca.encoding == distributed.ENCODING_SPARSE:
        m = len(index)
        assert np.array_equal(np.frombuffer(ldca.payload, "<u4", m), index)
        assert np.array_equal(np.frombuffer(ldca.payload, "<u8", m, 4 * m), words[index])
    else:
        assert bytes(ldca.payload) == st.ldca.flat.tobytes()
    assert ldca.encoding == (distributed.ENCODING_SPARSE if n_pairs < 8000
                             else distributed.ENCODING_RAW)


def test_bad_magic():
    st, _, _ = random_states()
    blob = bytearray(serialize(st.seav, 0))
    blob[0:4] = b"NOPE"
    with pytest.raises(FrameMagicError):
        parse_frame(bytes(blob))


def test_bad_version():
    st, _, _ = random_states()
    blob = bytearray(serialize(st.seav, 0))
    blob[4] = 9
    with pytest.raises(FrameVersionError):
        parse_frame(bytes(blob))


def reseal(blob):
    """The frame with its CRC recomputed over everything before it."""
    blob = bytearray(blob)
    blob[-4:] = zlib.crc32(blob[:-4]).to_bytes(4, "little")
    return blob


def test_v2_frame_is_refused():
    # A candidate frame in the v2 layout: after the encoding byte a fixed
    # 26-byte config block (r, SR, a, g, theta, k, LR, LC, seed), then the
    # window id and the payload length in 32 bits each.
    st, _, _ = random_states()
    payload = st.seav.flat.tobytes()
    v2 = (b"SSPD" + bytes([2, distributed.KIND_SEAV, distributed.ENCODING_RAW])
          + struct.pack("<BBBBIIHIQ", 4, 4, 2, 8, 1024, 0, 0, 0, PARAMS.master_seed)
          + struct.pack("<II", 0, len(payload)) + payload + bytes(4))
    with pytest.raises(FrameVersionError, match="version 2"):
        parse_frame(bytes(reseal(v2)))


def test_unknown_encoding_is_refused():
    st, _, _ = random_states()
    blob = bytearray(serialize(st.seav, 0))
    blob[6] = 2
    with pytest.raises(FrameVersionError, match="encoding"):
        parse_frame(bytes(reseal(blob)))


def test_sparse_payload_of_a_bad_length_is_refused():
    st, _, _ = random_states(n_pairs=100)
    blob = serialize(st.ldca, 0)
    assert blob[6] == distributed.ENCODING_SPARSE
    length = int.from_bytes(blob[15:23], "little")
    short = blob[:-5] + blob[-4:]  # the payload, last before the CRC, loses a byte
    short[15:23] = (length - 1).to_bytes(8, "little")
    with pytest.raises(FrameTruncatedError, match="sparse payload"):
        parse_frame(bytes(reseal(short)))


def sparse_frame(frame, index, words):
    """``frame`` with a sparse payload of the given word indexes and words."""
    payload = (np.asarray(index, "<u4").tobytes() + np.asarray(words, "<u8").tobytes())
    return replace(frame, encoding=distributed.ENCODING_SPARSE, payload=payload)


@pytest.mark.parametrize("index, problem", [
    ([0, 8192], "word 8192 of 8192"),
    ([0, 5, 5], "strictly increase"),
    ([7, 3], "strictly increase"),
], ids=["past-the-last-word", "repeated", "descending"])
def test_merge_refuses_a_bad_sparse_index(index, problem):
    st, _, _ = random_states(n_pairs=100)
    frames = frames_for(st)
    bad = sparse_frame(frames[1], index, np.ones(len(index)))
    receiver = DetectorState.create(PARAMS)
    with pytest.raises(MergeError, match=problem):
        merge_frames(receiver, frames + [bad])
    # Every frame is checked before any is merged.
    assert not receiver.seav.flat.any() and not receiver.ldca.flat.any()


def test_merge_refuses_a_sparse_payload_of_a_bad_length():
    st, _, _ = random_states(n_pairs=100)
    frames = frames_for(st)
    bad = replace(frames[1], payload=bytes(frames[1].payload)[:-1])
    with pytest.raises(MergeError, match="sparse payload"):
        merge(frames[:1] + [bad])


def test_raw_and_sparse_counter_frames_merge_to_the_single_scanner():
    _, hips, oips = random_states(n_pairs=9000, seed=14)
    dense, light = DetectorState.create(PARAMS), DetectorState.create(PARAMS)
    dense.process_batch(hips[:8000], oips[:8000])
    light.process_batch(hips[8000:], oips[8000:])
    frames = frames_for(dense) + frames_for(light)
    assert [f.encoding for f in frames[1::2]] == [distributed.ENCODING_RAW,
                                                  distributed.ENCODING_SPARSE]
    single = DetectorState.create(PARAMS)
    single.process_batch(hips, oips)
    merged = merge(frames)
    assert np.array_equal(merged.seav.flat, single.seav.flat)
    assert np.array_equal(merged.ldca.flat, single.ldca.flat)
    assert merged.finalize_window() == single.finalize_window()


def test_truncation():
    st, _, _ = random_states()
    blob = serialize(st.seav, 0)
    with pytest.raises(FrameTruncatedError):
        parse_frame(blob[: len(blob) // 2])
    with pytest.raises(FrameTruncatedError):
        parse_frame(blob + b"\x00")
    with pytest.raises(FrameTruncatedError):
        parse_frame(blob[:10])


def test_flipped_payload_byte_fails_checksum():
    st, _, _ = random_states()
    blob = bytearray(serialize(st.ldca, 0))
    blob[100] ^= 0x40
    with pytest.raises(FrameChecksumError):
        parse_frame(bytes(blob))


def test_frames_carry_any_geometry_and_a_64_bit_window_id():
    # No frame field bounds a sketch config; the window id is a u64.
    small = SeavSketch(SeavConfig(r=4, sr=4, a=2, theta=64, addr_bits=12), SEEDS)
    rng = np.random.default_rng(15)
    small.update_batch(rng.integers(0, 1 << 12, 500, dtype=np.uint64),
                       rng.integers(0, 1 << 12, 500, dtype=np.uint64))
    ldca = DetectorState.create(PARAMS).ldca
    frames = frames_for(DetectorState(seav=small, ldca=ldca), window_id=1 << 32)
    receiver = DetectorState(seav=SeavSketch(small.config, SEEDS), ldca=ldca)
    merged = merge_frames(receiver, frames)
    assert merged.window_id == 1 << 32
    assert small.flat.any() and np.array_equal(merged.seav.flat, small.flat)


def test_serialize_refuses_what_a_v1_frame_cannot_carry():
    # Neither a v1 frame nor a v3 frame holds a negative window id or one
    # past 64 bits; serialize refuses both rather than wrap them.
    st = DetectorState.create(PARAMS)
    for sketch in (st.seav, st.ldca):
        for window_id in (-1, 1 << 64):
            with pytest.raises(ConfigError, match="window id in 64 bits"):
                serialize(sketch, window_id)


# --- merging ------------------------------------------------------------------

def frames_for(state, window_id=0):
    return [parse_frame(serialize(state.seav, window_id)),
            parse_frame(serialize(state.ldca, window_id))]


def merge(frames, params=PARAMS):
    """Frames merged at a fresh global server running ``params``."""
    return merge_frames(DetectorState.create(params), frames)


def test_single_point_merge_is_identity():
    st, _, _ = random_states()
    receiver = DetectorState.create(PARAMS)
    assert merge_frames(receiver, frames_for(st)) is receiver
    assert np.array_equal(receiver.seav.flat, st.seav.flat)
    assert np.array_equal(receiver.ldca.data, st.ldca.data)


def test_merge_order_invariant():
    a, _, _ = random_states(seed=2)
    b, _, _ = random_states(seed=3)
    ab = merge(frames_for(a) + frames_for(b))
    ba = merge(frames_for(b) + frames_for(a))
    assert np.array_equal(ab.seav.flat, ba.seav.flat)
    assert np.array_equal(ab.ldca.flat, ba.ldca.flat)


def test_merge_requires_both_kinds():
    st, _, _ = random_states()
    with pytest.raises(MergeError, match="ldca"):
        merge([parse_frame(serialize(st.seav, 0))])
    with pytest.raises(MergeError):
        merge([])


def test_merge_rejects_window_mismatch():
    st, _, _ = random_states()
    frames = frames_for(st, window_id=0) + frames_for(st, window_id=1)
    with pytest.raises(MergeError, match="window"):
        merge(frames)


def test_merge_rejects_config_mismatch():
    st, _, _ = random_states()
    other = DetectorState.create(DetectorParams(theta=2048, k=4096, lr=2, v=128,
                                                design_n=4e3))
    receiver = DetectorState.create(PARAMS)
    with pytest.raises(MergeError, match="config"):
        merge_frames(receiver, frames_for(st) + frames_for(other))
    # Every frame is checked before any is merged.
    assert not receiver.seav.flat.any() and not receiver.ldca.flat.any()


def test_merge_rejects_seed_mismatch_across_kinds():
    st, hips, oips = random_states()
    other = DetectorState.create(replace(PARAMS, master_seed=PARAMS.master_seed + 1))
    other.process_batch(hips, oips)
    frames = [parse_frame(serialize(st.seav, 0)), parse_frame(serialize(other.ldca, 0))]
    with pytest.raises(MergeError, match="config"):
        merge(frames)


def test_merge_rejects_cross_kind_geometry():
    # Both detectors share the seed and the candidate geometry; only the
    # counter frame, from the second one, differs from the receiver.
    st = DetectorState.create(PARAMS)
    other = DetectorState.create(replace(PARAMS, k=8192, lr=4, v=128))
    frames = [parse_frame(serialize(st.seav, 0)), parse_frame(serialize(other.ldca, 0))]
    with pytest.raises(MergeError, match="ldca frame config"):
        merge(frames)


# A value other than PARAMS's for each init field of the two sketch configs.
OTHER_CONFIG = {"r": 0, "sr": 7, "a": 3, "theta": 2048, "g": 16, "addr_bits": 28,
                "lr": 3, "lc": 32, "k": 8192}
IDENTITY = [(kind, f.name) for kind, cls in (("seav", SeavConfig), ("ldca", LdcaConfig))
            for f in fields(cls) if f.init] + [("seav", "seed"), ("ldca", "seed")]


@pytest.mark.parametrize("kind, name", IDENTITY, ids=[f"{k}-{n}" for k, n in IDENTITY])
def test_merge_refuses_a_sketch_that_differs_in_one_config_field(kind, name):
    # The last frame's sketch differs from the receiver's only in ``name``.
    st, _, _ = random_states()
    sketch = getattr(st, kind)
    if name == "seed":
        other = type(sketch)(sketch.config, SeedFamily(PARAMS.master_seed + 1))
    else:
        other = type(sketch)(replace(sketch.config, **{name: OTHER_CONFIG[name]}), SEEDS)
    frames = frames_for(st)
    odd = parse_frame(serialize(other, 0))
    receiver = DetectorState.create(PARAMS)
    with pytest.raises(MergeError, match=f"{kind} frame config") as refused:
        merge_frames(receiver, frames + [odd])
    # The message quotes both blocks.
    own = frames[kind == "ldca"].config_block
    assert repr(odd.config_block) in str(refused.value) and repr(own) in str(refused.value)
    # Every frame is checked before any is merged.
    assert not receiver.seav.flat.any() and not receiver.ldca.flat.any()


def test_merge_config_block_compares_bytes():
    st, _, _ = random_states()
    frames = frames_for(st)
    tweaked = replace(frames[0], config_block=b"\x00" * len(frames[0].config_block))
    with pytest.raises(MergeError):
        merge([tweaked] + frames)


def test_merge_rejects_payload_of_another_size():
    st, _, _ = random_states()
    frames = frames_for(st)
    short = replace(frames[1], payload=frames[1].payload[:-1])
    with pytest.raises(MergeError, match="payload"):
        merge(frames[:1] + [short])


# --- routing and topology -------------------------------------------------------

def test_route_assignments_cover_all_points():
    rng = np.random.default_rng(4)
    hips = rng.integers(0, 2**32, size=10_000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=10_000, dtype=np.uint64)
    for route in ("hash", "round-robin"):
        lanes = route_pairs(hips, oips, 8, route, SEEDS)
        assert set(np.unique(lanes)) == set(range(8))
    with pytest.raises(ConfigError):
        route_pairs(hips, oips, 0, "hash", SEEDS)
    with pytest.raises(ConfigError):
        route_pairs(hips, oips, 2, "zigzag", SEEDS)


def test_hash_route_is_content_deterministic():
    rng = np.random.default_rng(5)
    hips = rng.integers(0, 2**32, size=1000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=1000, dtype=np.uint64)
    a = route_pairs(hips, oips, 4, "hash", SEEDS)
    b = route_pairs(hips, oips, 4, "hash", SEEDS)
    assert (a == b).all()


def test_single_point_equals_plain_detector():
    _, hips, oips = random_states(n_pairs=9000, seed=7)
    direct = DetectorState.create(PARAMS)
    direct.process_batch(hips, oips)
    sim = simulate_window(PARAMS, 0, hips, oips, 1)
    assert all((x == y).all() for x, y in zip(direct.seav.rows, sim.global_seav.rows))
    assert (direct.ldca.data == sim.global_ldca.data).all()
    assert direct.finalize_window() == sim.reports


def test_merge_is_idempotent_and_associative():
    a, _, _ = random_states(seed=21)
    b, _, _ = random_states(seed=22)
    c, _, _ = random_states(seed=23)
    # self-merge leaves state unchanged
    twice = merge(frames_for(a) + frames_for(a))
    assert np.array_equal(twice.seav.flat, a.seav.flat)
    assert np.array_equal(twice.ldca.flat, a.ldca.flat)
    # (a|b)|c == a|(b|c), built via frames both ways
    left = merge(frames_for(a) + frames_for(b))
    right = merge(frames_for(b) + frames_for(c))
    lhs = merge(frames_for(left) + frames_for(c))
    rhs = merge(frames_for(a) + frames_for(right))
    assert np.array_equal(lhs.seav.flat, rhs.seav.flat)
    assert np.array_equal(lhs.ldca.flat, rhs.ldca.flat)


@pytest.mark.parametrize("route", ["hash", "round-robin"])
@pytest.mark.parametrize("n_wp", [1, 4, 16])
def test_partition_invariance(route, n_wp):
    _, hips, oips = random_states(n_pairs=12_000, seed=6)
    ref = simulate_window(PARAMS, 0, hips, oips, 1)
    res = simulate_window(PARAMS, 0, hips, oips, n_wp, route=route)
    assert all((x == y).all() for x, y in
               zip(ref.global_seav.rows, res.global_seav.rows))
    assert (ref.global_ldca.data == res.global_ldca.data).all()
    assert ref.reports == res.reports
    assert len(res.reports) >= 1  # the planted host comes out


def test_threads_do_not_change_results():
    # More threads than cores and more points than threads, so threads
    # reuse their states while others scan; small batches and frequent
    # switches interleave the scans, so a state shared by threads shows.
    _, hips, oips = random_states(n_pairs=12_000, seed=8)
    seq = simulate_window(PARAMS, 0, hips, oips, 8, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        par = simulate_window(PARAMS, 0, hips, oips, 8, threads=3, buffer_pairs=256)
    finally:
        sys.setswitchinterval(interval)
    assert seq.reports == par.reports
    assert all((x == y).all() for x, y in
               zip(seq.global_seav.rows, par.global_seav.rows))
    assert np.array_equal(seq.global_ldca.flat, par.global_ldca.flat)
    assert seq.frames == par.frames


def test_watch_point_state_lives_until_its_frames_exist():
    # Default geometry, 8 MiB of registers per watch point.  The receiver
    # and one reused state per thread hold registers; each point's frames
    # carry only their set words and are merged as they arrive.  Dense
    # frames kept for the result, or a state kept past its frames, add
    # one point's registers each.
    params = DetectorParams()
    one_point = sum(DetectorState.create(params).memory_bytes())
    rng = np.random.default_rng(13)
    hips = rng.integers(0, 2**32, size=20_000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=20_000, dtype=np.uint64)
    for threads in (1, 2):
        tracemalloc.start()
        try:
            simulate_window(params, 0, hips, oips, n_wp=8, threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (threads + 2) * one_point, (threads, peak / one_point)


def test_small_buffers_do_not_change_results():
    _, hips, oips = random_states(n_pairs=5_000, seed=9)
    big = simulate_window(PARAMS, 0, hips, oips, 3, buffer_pairs=1 << 16)
    small = simulate_window(PARAMS, 0, hips, oips, 3, buffer_pairs=37)
    assert big.reports == small.reports
    assert (big.global_ldca.data == small.global_ldca.data).all()


def test_topology_writes_frame_files(tmp_path):
    _, hips, oips = random_states(n_pairs=2_000, seed=10)
    simulate_window(PARAMS, 0, hips, oips, n_wp=2, frames_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["wp0_win0_ldca.sspd", "wp0_win0_seav.sspd",
                     "wp1_win0_ldca.sspd", "wp1_win0_seav.sspd"]
    for p in tmp_path.iterdir():
        parse_frame(p.read_bytes())  # every file is a valid frame


def test_frame_files_hold_the_merged_frames_serialized_once(tmp_path, monkeypatch):
    written = []

    def recording_serialize(sketch, window_id):
        written.append(serialize(sketch, window_id))
        return written[-1]

    monkeypatch.setattr(distributed, "serialize", recording_serialize)
    _, hips, oips = random_states(n_pairs=2_000, seed=12)
    n_wp = 3
    result = simulate_window(PARAMS, 5, hips, oips, n_wp, frames_dir=tmp_path)
    assert len(written) == 2 * n_wp
    files = [tmp_path / f"wp{w}_win5_{kind}.sspd"
             for w in range(n_wp) for kind in ("seav", "ldca")]
    assert [f.read_bytes() for f in files] == written
    assert [parse_frame(data) for data in written] == result.frames


def test_topology_splits_windows_by_slice():
    rng = np.random.default_rng(11)
    n = 6000
    hips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
    slices = rng.integers(0, 20, size=n).astype(np.uint32)
    windows = list(split_windows(slices, 10))
    assert [wid for wid, _ in windows] == [0, 1]
    assert sorted(np.concatenate([sel for _, sel in windows]).tolist()) == list(range(n))
    for wid, sel in windows:
        assert (slices[sel] // 10 == wid).all()
        assert (np.diff(sel) > 0).all()  # stream order within the window
        result = simulate_window(PARAMS, wid, hips[sel], oips[sel], n_wp=2)
        single = DetectorState.create(PARAMS)
        single.process_batch(hips[sel], oips[sel])
        assert result.window_id == wid
        assert np.array_equal(result.global_ldca.flat, single.ldca.flat)

