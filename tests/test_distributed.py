import struct
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
from sspd.long_sketch import LdcaConfig, LdcaSketch
from sspd.short_sketch import SeavConfig, SeavSketch
from sspd.window_detector import DetectorParams, DetectorState, split_windows

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
    # The empty counter frame is sparse with only its count table, the
    # busy one sparse with entries, the dense one raw.
    empty = DetectorState.create(PARAMS)
    busy, _, _ = random_states()
    dense, _, _ = random_states(n_pairs=20_000)
    frames = [serialize(s, 3) for s in (empty.seav, empty.ldca, busy.seav, busy.ldca, dense.ldca)]
    assert [(len(f), f[6], zlib.crc32(f[:-4])) for f in frames] == [
        (32848, 0, 0xF21B9D7B), (122, 1, 0x1D52E442), (32848, 0, 0x63A2E903),
        (41214, 1, 0xB6BC18E2), (65594, 0, 0xF6C5034D)]
    # Magic, version, kind, encoding, window id, payload and block lengths,
    # then the block, then a count table of 32 zero u16 counts.
    block = b"lr=2 lc=40 k=1000 seed=5eed"
    assert frames[1][:-4] == (b"SSPD\x04\x01\x01" + (3).to_bytes(8, "little")
                              + (64).to_bytes(8, "little") + len(block).to_bytes(4, "little")
                              + block + bytes(64))


ENVELOPE = 31  # 27 header bytes before the config block, 4 CRC bytes after the payload


def sparse_payload(index, words, n_words, tags=None):
    """The sparse payload naming ``words`` at ``index`` in a sketch of
    ``n_words`` 64-bit words: per 256-word block a u16 count, then each
    index mod 256, then each word's tag (its only set bit's number, else
    64), then the words tagged 64.  ``tags`` replaces the computed tags."""
    index, words = [int(i) for i in index], [int(w) for w in words]
    counts = [0] * -(-n_words // 256)
    for i in index:
        counts[i // 256] += 1
    if tags is None:
        tags = [w.bit_length() - 1 if w & (w - 1) == 0 else 64 for w in words]
    many = [w for w, tag in zip(words, tags) if tag == 64]
    return (struct.pack(f"<{len(counts)}H", *counts) + bytes(i % 256 for i in index)
            + bytes(tags) + struct.pack(f"<{len(many)}Q", *many))


@pytest.mark.parametrize("n_pairs", [0, 100, 600, 8000, 20_000])
def test_frame_size_follows_the_set_words(n_pairs):
    # A candidate frame is always raw; a counter frame is raw or sparse,
    # whichever is smaller, and a sparse one is 2 bytes per 256-word block,
    # 2 per set word and 8 more per word with more than one set bit.  The
    # config block is the sketch config's init fields and the master seed,
    # in hex.
    st, _, _ = random_states(n_pairs=n_pairs)
    blob = serialize(st.seav, 0)
    seav = parse_frame(blob)
    assert seav.config_block == b"r=4 sr=4 a=2 theta=400 g=8 addr_bits=20 seed=5eed"
    assert seav.encoding == distributed.ENCODING_RAW
    assert len(blob) == ENVELOPE + len(seav.config_block) + st.seav.flat.nbytes
    words = st.ldca.flat.view(np.uint64)
    index = np.flatnonzero(words)
    multi = np.count_nonzero(np.bitwise_count(words) > 1)
    blob = serialize(st.ldca, 0)
    ldca = parse_frame(blob)
    assert ldca.config_block == b"lr=2 lc=40 k=1000 seed=5eed"
    assert len(blob) == (ENVELOPE + len(ldca.config_block)
                         + min(words.nbytes, 2 * 32 + 2 * len(index) + 8 * multi))
    if ldca.encoding == distributed.ENCODING_SPARSE:
        assert bytes(ldca.payload) == sparse_payload(index, words[index], len(words))
    else:
        assert bytes(ldca.payload) == st.ldca.flat.tobytes()
    assert ldca.encoding == (distributed.ENCODING_SPARSE if n_pairs < 20_000
                             else distributed.ENCODING_RAW)


FILLS = {
    "empty": [],
    "bit-0": [(5, 1)],
    "bit-63": [(5, 1 << 63)],
    "last-word": [(8191, 1 << 9)],
    "full-block": [(i, 1 << (i % 64)) for i in range(256, 512)],
    "mixed": [(i, (1 << (i % 64)) | (i % 3 == 0) << 7) for i in range(3, 8192, 37)],
    "raw-wins": [(i, 3) for i in range(8192)],
}


@pytest.mark.parametrize("fill", FILLS)
def test_counter_frame_round_trips_at_its_size(fill):
    st = DetectorState.create(PARAMS)
    words = st.ldca.flat.view(np.uint64)
    for i, word in FILLS[fill]:
        words[i] = word
    frame = parse_frame(serialize(st.ldca, 0))
    back = merge([parse_frame(serialize(st.seav, 0)), frame])
    assert np.array_equal(back.ldca.flat, st.ldca.flat)
    n, m = len(FILLS[fill]), np.count_nonzero(np.bitwise_count(words) > 1)
    if fill == "raw-wins":
        assert frame.encoding == distributed.ENCODING_RAW and len(frame.payload) == words.nbytes
    else:
        assert frame.encoding == distributed.ENCODING_SPARSE
        assert len(frame.payload) == 2 * 32 + 2 * n + 8 * m < words.nbytes
        index = np.flatnonzero(words)
        assert bytes(frame.payload) == sparse_payload(index, words[index], len(words))


def test_a_watch_point_at_distsim_load_ships_under_two_fifths_of_twelve_bytes_a_word():
    # One of 16 watch points at perfbench's distsim load, default geometry:
    # 18,750 pairs, half of them from 40 heavy hosts, half from 20,000
    # light ones.  Most set words hold one bit, so the frame costs well
    # under 12 bytes (an index and the word) per set word.
    rng = np.random.default_rng(17)
    heavy = rng.integers(0, 2**32, 40, dtype=np.uint64)
    light = rng.integers(0, 2**32, 20_000, dtype=np.uint64)
    hips = np.concatenate([heavy[rng.integers(0, 40, 9375)],
                           light[rng.integers(0, 20_000, 9375)]])
    oips = rng.integers(0, 2**32, len(hips), dtype=np.uint64)
    st = DetectorState.create(DetectorParams())
    st.process_batch(hips, oips)
    frame = parse_frame(serialize(st.ldca, 0))
    assert frame.encoding == distributed.ENCODING_SPARSE
    assert len(frame.payload) <= 0.4 * 12 * np.count_nonzero(st.ldca.flat.view(np.uint64))


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


@pytest.mark.parametrize("version", [2, 3])
def test_v2_frame_is_refused(version):
    st, _, _ = random_states()
    if version == 2:
        # A candidate frame in the v2 layout: after the encoding byte a fixed
        # 26-byte config block (r, SR, a, g, theta, k, LR, LC, seed), then the
        # window id and the payload length in 32 bits each.
        payload = st.seav.flat.tobytes()
        old = (b"SSPD" + bytes([2, distributed.KIND_SEAV, distributed.ENCODING_RAW])
               + struct.pack("<BBBBIIHIQ", 4, 4, 2, 8, 1024, 0, 0, 0, PARAMS.master_seed)
               + struct.pack("<II", 0, len(payload)) + payload + bytes(4))
    else:
        # A sparse counter frame in the v3 layout: today's header, then a
        # u32 index and the u64 word for each set word.
        words = st.ldca.flat.view(np.uint64)
        index = np.flatnonzero(words)
        payload = index.astype("<u4").tobytes() + words[index].astype("<u8").tobytes()
        block = frames_for(st)[1].config_block
        old = (b"SSPD" + bytes([3, distributed.KIND_LDCA, distributed.ENCODING_SPARSE])
               + struct.pack("<QQI", 0, len(payload), len(block)) + block + payload + bytes(4))
    with pytest.raises(FrameVersionError, match=f"version {version}"):
        parse_frame(bytes(reseal(old)))


def test_unknown_encoding_is_refused():
    st, _, _ = random_states()
    blob = bytearray(serialize(st.seav, 0))
    blob[6] = 2
    with pytest.raises(FrameVersionError, match="encoding"):
        parse_frame(bytes(reseal(blob)))


def with_payload(blob, payload):
    """The frame ``blob`` with its payload replaced and its CRC resealed."""
    start = len(blob) - 4 - int.from_bytes(blob[15:23], "little")
    frame = bytearray(blob[:start]) + payload + bytes(4)
    frame[15:23] = len(payload).to_bytes(8, "little")
    return bytes(reseal(frame))


def test_sparse_payload_of_a_bad_length_is_refused():
    # The frame alone does not say how long a sparse payload must be; the
    # receiver, which knows its register count, refuses it before any OR.
    st, _, _ = random_states(n_pairs=100)
    blob = serialize(st.ldca, 0)
    assert blob[6] == distributed.ENCODING_SPARSE
    seav, ldca = frames_for(st)
    short = parse_frame(with_payload(blob, bytes(ldca.payload)[:-1]))
    receiver = DetectorState.create(PARAMS)
    with pytest.raises(MergeError, match="sparse payload"):
        merge_frames(receiver, [seav, short])
    assert not receiver.seav.flat.any() and not receiver.ldca.flat.any()


# A receiver whose counter sketch has 384 words: two blocks, the second
# one half past the last word.
SMALL = DetectorParams(theta=1024, k=4096, lr=2, v=6, design_n=10)


def refused_by_the_merge(payload, problem):
    """Merge a small sketch's frames plus a sparse counter frame carrying
    ``payload``; the merge must refuse it and leave the receiver as it was."""
    frames = frames_for(DetectorState.create(SMALL))
    bad = replace(frames[1], encoding=distributed.ENCODING_SPARSE, payload=payload)
    receiver = DetectorState.create(SMALL)
    with pytest.raises(MergeError, match=problem):
        merge_frames(receiver, frames + [bad])
    # Every frame is checked before any is merged.
    assert not receiver.seav.flat.any() and not receiver.ldca.flat.any()


@pytest.mark.parametrize("index, problem", [
    ([0, 384], "word 384 of 384"),
    ([0, 5, 5], "strictly increase"),
    ([7, 3], "strictly increase"),
], ids=["past-the-last-word", "repeated", "descending"])
def test_merge_refuses_a_bad_sparse_index(index, problem):
    refused_by_the_merge(sparse_payload(index, [1] * len(index), 384), problem)


@pytest.mark.parametrize("payload, problem", [
    (bytes(3), "shorter than its 4-byte count table"),
    (struct.pack("<2H", 3, 0) + bytes([1, 2, 0, 0]), "counts 3 words, more than"),
    (sparse_payload([1, 2], [1, 2], 384, tags=[0, 65]), "tags a word with bit 65"),
    (sparse_payload([1, 2], [1, 3], 384)[:-8], "not 16 for 2 words, 1 of them multi-bit"),
    (sparse_payload([1, 2], [1, 3], 384) + bytes(8), "not 16 for 2 words, 1 of them multi-bit"),
], ids=["short-of-the-count-table", "counts-past-the-payload", "tag-65",
        "multi-bit-word-missing", "multi-bit-bytes-extra"])
def test_merge_refuses_a_forged_sparse_payload(payload, problem):
    refused_by_the_merge(payload, problem)


def test_merge_refuses_a_sparse_payload_of_a_bad_length():
    st, _, _ = random_states(n_pairs=100)
    frames = frames_for(st)
    bad = replace(frames[1], payload=bytes(frames[1].payload)[:-1])
    with pytest.raises(MergeError, match="sparse payload"):
        merge(frames[:1] + [bad])


def test_corrupt_counter_frames_merge_or_are_refused():
    # Resealed frames with flipped, cut or added payload bytes pass the
    # frame checks; the merge then either refuses them or ORs them in, and
    # raises nothing else.
    rng = np.random.default_rng(16)
    st, _, _ = random_states(n_pairs=600)
    seav, ldca = frames_for(st)
    blob, payload = serialize(st.ldca, 0), bytes(ldca.payload)
    refused = 0
    for trial in range(300):
        body = bytearray(payload)
        if trial % 3 == 0:  # flips, half of them in the 64-byte count table
            for _ in range(rng.integers(1, 4)):
                at = rng.integers(0, 64 if rng.random() < 0.5 else len(body))
                body[at] ^= 1 << rng.integers(8)
        elif trial % 3 == 1:
            del body[rng.integers(0, len(body)):]
        else:
            body += rng.bytes(rng.integers(1, 24))
        try:
            merge([seav, parse_frame(with_payload(blob, body))])
        except MergeError:
            refused += 1
    assert 200 <= refused < 300


def test_raw_and_sparse_counter_frames_merge_to_the_single_scanner():
    _, hips, oips = random_states(n_pairs=25_000, seed=14)
    dense, light = DetectorState.create(PARAMS), DetectorState.create(PARAMS)
    dense.process_batch(hips[:24_000], oips[:24_000])
    light.process_batch(hips[24_000:], oips[24_000:])
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
    small = SeavSketch(replace(DetectorParams().seav_config(), theta=64, addr_bits=12),
                       PARAMS.restore_cap)
    rng = np.random.default_rng(15)
    small.update_batch(rng.integers(0, 1 << 12, 500, dtype=np.uint64),
                       rng.integers(0, 1 << 12, 500, dtype=np.uint64))
    ldca = DetectorState.create(PARAMS).ldca
    frames = frames_for(DetectorState(seav=small, ldca=ldca), window_id=1 << 32)
    receiver = DetectorState(seav=SeavSketch(small.config, PARAMS.restore_cap), ldca=ldca)
    merged = merge_frames(receiver, frames)
    assert merged.window_id == 1 << 32
    assert small.flat.any() and np.array_equal(merged.seav.flat, small.flat)


def test_serialize_refuses_what_a_v1_frame_cannot_carry():
    # Neither a v1 frame nor a v4 frame holds a negative window id or one
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
                "lr": 3, "lc": 32, "k": 8192, "seed": PARAMS.master_seed + 1}
IDENTITY = [(kind, f.name) for kind, cls in (("seav", SeavConfig), ("ldca", LdcaConfig))
            for f in fields(cls) if f.init]


@pytest.mark.parametrize("kind, name", IDENTITY, ids=[f"{k}-{n}" for k, n in IDENTITY])
def test_merge_refuses_a_sketch_that_differs_in_one_config_field(kind, name):
    # The last frame's sketch differs from the receiver's only in ``name``.
    st, _, _ = random_states()
    sketch = getattr(st, kind)
    config = replace(sketch.config, **{name: OTHER_CONFIG[name]})
    other = SeavSketch(config, PARAMS.restore_cap) if kind == "seav" else LdcaSketch(config)
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


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "beyond-64-bits"])
def test_configs_refuse_a_seed_outside_64_bits(seed):
    # Role keys hash the seed mod 2^64, so a block naming any other seed
    # would not name the one hashed.
    for config in (PARAMS.seav_config(), PARAMS.ldca_config()):
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\^64\)"):
            replace(config, seed=seed)
    top = LdcaSketch(replace(PARAMS.ldca_config(), seed=2**64 - 1))
    assert parse_frame(serialize(top, 0)).config_block.endswith(b" seed=ffffffffffffffff")


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
        lanes = route_pairs(hips, oips, 8, route, PARAMS.master_seed)
        assert set(np.unique(lanes)) == set(range(8))
    with pytest.raises(ConfigError):
        route_pairs(hips, oips, 0, "hash", PARAMS.master_seed)
    with pytest.raises(ConfigError):
        route_pairs(hips, oips, 2, "zigzag", PARAMS.master_seed)


def test_hash_route_is_content_deterministic():
    rng = np.random.default_rng(5)
    hips = rng.integers(0, 2**32, size=1000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=1000, dtype=np.uint64)
    a = route_pairs(hips, oips, 4, "hash", PARAMS.master_seed)
    b = route_pairs(hips, oips, 4, "hash", PARAMS.master_seed)
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


def test_watch_points_scan_in_one_thread():
    _, hips, oips = random_states(n_pairs=2_000, seed=8)
    with pytest.raises(ConfigError, match="threads=2"):
        simulate_window(PARAMS, 0, hips, oips, 4, threads=2)
    assert simulate_window(PARAMS, 0, hips, oips, 4, threads=1).window_id == 0


def test_watch_point_state_lives_until_its_frames_exist():
    # Default geometry, 8 MiB of registers per watch point.  The receiver
    # and the one reused scanner state hold registers; each point's frames
    # carry only their set words and are merged as they arrive.  Dense
    # frames kept for the result, or a state kept past its frames, add
    # one point's registers each.
    params = DetectorParams()
    one_point = sum(DetectorState.create(params).memory_bytes())
    rng = np.random.default_rng(13)
    hips = rng.integers(0, 2**32, size=20_000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=20_000, dtype=np.uint64)
    tracemalloc.start()
    try:
        simulate_window(params, 0, hips, oips, n_wp=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * one_point, peak / one_point


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

