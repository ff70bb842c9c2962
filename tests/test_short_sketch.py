from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspd import short_sketch
from sspd.errors import ConfigError
from sspd.hashing import DEFAULT_MASTER_SEED, Tag, derive_seed
from sspd.short_sketch import SeavConfig, SeavSketch, tau_from_theta
from sspd.window_detector import DetectorParams

from oracles import ShortEstimator, hash_full, hash_range, index_of, lp_from_indexes, lsb

SEED = DEFAULT_MASTER_SEED
H1, H2 = derive_seed(SEED, Tag.H1), derive_seed(SEED, Tag.H2)
CAP = DetectorParams().restore_cap
DEFAULT_SEAV = DetectorParams().seav_config()


def pairs_arrays(pairs):
    """(hips, oips) uint64 arrays of a list of (hip, oip) pairs."""
    hips, oips = np.array(pairs, dtype=np.uint64).reshape(-1, 2).T
    return hips, oips


# --- sampling threshold -----------------------------------------------------

def test_tau_examples():
    assert tau_from_theta(1024, 8) == 7
    assert tau_from_theta(8, 8) == 0
    assert tau_from_theta(1000, 8) == 7  # ceil(log2(125)) = 7
    assert tau_from_theta(1, 8) == 0
    assert tau_from_theta(1025, 8) == 8


def test_tau_rejects_bad_args():
    with pytest.raises(ConfigError):
        tau_from_theta(0, 8)
    with pytest.raises(ConfigError):
        tau_from_theta(8, 0)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=64))
def test_tau_is_exact_ceil_log2(theta, g):
    t = tau_from_theta(theta, g)
    assert g << t >= theta
    assert t == 0 or g << (t - 1) < theta


# --- single register --------------------------------------------------------

def test_register_update_sampling():
    tau = 7
    se = ShortEstimator()
    accepted = rejected = None
    for oip in range(10_000):
        if lsb(hash_full(oip, H1)) >= tau and accepted is None:
            accepted = oip
        if lsb(hash_full(oip, H1)) < tau and rejected is None:
            rejected = oip
        if accepted is not None and rejected is not None:
            break
    assert se.update(rejected, tau, SEED) == se
    updated = se.update(accepted, tau, SEED)
    assert updated.weight() == 1
    assert updated.bits == 1 << hash_range(accepted, H2, 8)
    # idempotent per opposite IP
    assert updated.update(accepted, tau, SEED) == updated


def test_tau_zero_always_sets_a_bit():
    se = ShortEstimator()
    for oip in (0, 1, 99, 2**32 - 1):
        assert se.update(oip, 0, SEED).weight() == 1


def test_weight_and_hot():
    assert ShortEstimator(0).weight() == 0
    assert not ShortEstimator(0).is_hot()
    se = ShortEstimator(0b10010010)  # bits 1, 4, 7
    assert se.weight() == 3 and se.is_hot()
    assert ShortEstimator(0xFF).weight() == 8


bits8 = st.integers(min_value=0, max_value=255)


@given(bits8, bits8)
def test_register_algebra(x, y):
    a, b = ShortEstimator(x), ShortEstimator(y)
    empty = ShortEstimator(0)
    assert a & a == a
    assert a | empty == a
    assert a & empty == empty
    assert a & b == b & a
    assert a | b == b | a
    assert (a & b).weight() <= min(a.weight(), b.weight())
    assert (a | b).weight() >= max(a.weight(), b.weight())


def test_register_width_mismatch():
    with pytest.raises(ConfigError):
        ShortEstimator(0, g=8) & ShortEstimator(0, g=16)


def register_weight_after(oips: np.ndarray, tau: int) -> int:
    # Same sampling test and bit choice the register makes, vectorized.
    from sspd.hashing import hash_full_array, hash_range_array, lsb_at_least

    sampled = lsb_at_least(hash_full_array(oips, H1), tau)
    positions = hash_range_array(oips[sampled], H2, 8)
    bits = 0
    for p in np.unique(positions).tolist():
        bits |= 1 << p
    return bin(bits).count("1")


def test_two_theta_distinct_oips_usually_hot():
    # 2048 distinct opposite IPs vs theta=1024: ~16 sampled into 8 bits.
    tau = tau_from_theta(1024, 8)
    rng = np.random.default_rng(42)
    hot = 0
    trials = 1000
    for t in range(trials):
        oips = np.unique(rng.integers(0, 2**32, size=2080, dtype=np.uint64))[:2048]
        weight = register_weight_after(oips, tau)
        if t == 0:  # tie the vectorized oracle to the scalar register once
            se = ShortEstimator()
            for oip in oips.tolist():
                se = se.update(oip, tau, SEED)
            assert se.weight() == weight
        hot += weight >= 3
    assert hot >= 0.95 * trials


# --- configuration ----------------------------------------------------------

def test_default_config_geometry():
    cfg = DEFAULT_SEAV
    assert (cfg.r, cfg.sr, cfg.a, cfg.theta, cfg.g, cfg.addr_bits) == (4, 4, 2, 1024, 8, 32)
    assert cfg.isb == (0, 7, 14, 21)
    assert cfg.ibn == 9
    assert cfg.sc == 512
    assert cfg.n_registers == 16 * 4 * 512
    assert cfg.memory_bytes() == 16 * 4 * 512 * 1 == 32768
    assert cfg.tau == 7


def test_r0_config_geometry():
    cfg = replace(DEFAULT_SEAV, r=0, sr=4, a=2)
    assert cfg.isb == (0, 8, 16, 24)
    assert cfg.ibn == 10
    assert cfg.sc == 1024


def test_config_has_no_defaults_of_its_own():
    # DetectorParams alone sets the default geometry.
    with pytest.raises(TypeError):
        SeavConfig(r=4, sr=4, a=2)


@pytest.mark.parametrize("geometry", [
    {}, {"r": 0}, {"r": 2, "sr": 5, "a": 1}, {"addr_bits": 12},
], ids=["default", "r0", "r2-sr5-a1", "addr12"])
def test_rows_are_one_array_numbered_as_registers(geometry):
    # rows is one (SR, 2^r, SC) array, flat its 1-D view, and a host's
    # register in row i is (i << r | rp) * SC + index_of_array(i, lp).
    cfg = replace(DEFAULT_SEAV, **geometry)
    sk = SeavSketch(cfg, CAP)
    assert sk.rows.shape == (cfg.sr, 1 << cfg.r, cfg.sc)
    assert np.shares_memory(sk.rows, sk.flat)
    assert sk.flat.shape == (cfg.n_registers,)
    hips = np.random.default_rng(3).integers(0, 1 << cfg.addr_bits, 500, dtype=np.uint64)
    rp = hips & np.uint64((1 << cfg.r) - 1)
    lp = hips >> np.uint64(cfg.r)
    for i, reg in enumerate(cfg.registers(hips)):
        expect = (np.uint64(i << cfg.r) | rp) * np.uint64(cfg.sc) + cfg.index_of_array(i, lp)
        assert reg.tolist() == expect.tolist()
        # The number is the register's place in flat, read through rows too.
        sk.flat[reg] = i + 1
        assert (sk.rows[i][rp.astype(np.int64), cfg.index_of_array(i, lp).astype(np.int64)]
                == i + 1).all()


def test_register_dtype_is_the_narrowest_holding_g_bits():
    for g, dtype in ((1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
                     (17, np.uint32), (33, np.uint64), (64, np.uint64)):
        assert SeavSketch(replace(DEFAULT_SEAV, g=g), CAP).rows.dtype == dtype, g
    with pytest.raises(ConfigError, match="must be <= 64"):
        replace(DEFAULT_SEAV, g=65)


def test_sr1_invalid():
    # With 2 rows each row neighbours the other on both sides, so no
    # geometry has exactly a shared positions: SR < 3 is refused by name.
    for sr in (1, 2):
        with pytest.raises(ConfigError, match="SR must be >= 3"):
            replace(DEFAULT_SEAV, sr=sr)


def test_constraint2_violation_is_named():
    # 28 left-part bits cannot be split into 3 rows with exact 2-bit overlap.
    with pytest.raises(ConfigError, match="constraint 2"):
        replace(DEFAULT_SEAV, r=4, sr=3, a=2)


def test_index_width_bound():
    with pytest.raises(ConfigError, match="index width"):
        replace(DEFAULT_SEAV, r=16, sr=3, a=16)  # 6+16 > 16 left-part bits


def test_valid_alternate_geometries():
    replace(DEFAULT_SEAV, r=2, sr=3, a=2)   # 30 bits / 3 rows
    replace(DEFAULT_SEAV, r=2, sr=5, a=1)   # 30 bits / 5 rows
    replace(DEFAULT_SEAV, r=0, sr=8, a=3)   # 32 bits / 8 rows


# --- index extraction and reconstruction ------------------------------------

def naive_index(cfg: SeavConfig, row: int, lp: int) -> int:
    # Independent bit-extraction oracle: plain per-bit loop on strings of bits.
    w = cfg.lp_bits
    out = 0
    for j in range(cfg.ibn):
        src = (cfg.isb[row] + j) % w
        bit = (lp >> src) & 1
        out += bit * (2 ** j)
    return out


def test_index_of_trivial():
    cfg = DEFAULT_SEAV
    for row in range(4):
        assert index_of(cfg, row, 0) == 0
        assert index_of(cfg, row, (1 << cfg.lp_bits) - 1) == 2 ** cfg.ibn - 1


def test_index_of_row1_matches_oracle():
    cfg = replace(DEFAULT_SEAV, r=4, sr=4, a=2)
    lp = 0b1011_0110_1001_1100_0101_1010_0011
    assert index_of(cfg, 1, lp) == naive_index(cfg, 1, lp)


@given(st.integers(min_value=0, max_value=2**28 - 1))
def test_index_of_matches_oracle(lp):
    cfg = DEFAULT_SEAV
    for row in range(cfg.sr):
        assert index_of(cfg, row, lp) == naive_index(cfg, row, lp)


@pytest.mark.parametrize("geometry", [
    {}, {"r": 0, "sr": 8, "a": 3}, {"r": 2, "sr": 5, "a": 1}, {"r": 2, "sr": 3, "a": 2},
    {"r": 16}, {"addr_bits": 12},
], ids=["default", "r0-sr8-a3", "r2-sr5-a1", "r2-sr3-a2", "r16", "addr12"])
def test_index_of_vectorized_matches_scalar(geometry):
    cfg = replace(DEFAULT_SEAV, **geometry)
    lps = np.random.default_rng(1).integers(0, 1 << cfg.lp_bits, size=2000, dtype=np.uint64)
    for row in range(cfg.sr):
        vec = cfg.index_of_array(row, lps)
        assert vec.tolist() == [index_of(cfg, row, int(lp)) for lp in lps]
        # The restore join's scatter table inverts the row mapping, and
        # each fragment sets only the bits the row reads.
        frags, mask = cfg._row_scatter(row)
        cols = np.arange(cfg.sc, dtype=np.uint64)
        assert cfg.index_of_array(row, frags).tolist() == cols.tolist()
        assert mask == sum(1 << ((cfg.isb[row] + j) % cfg.lp_bits) for j in range(cfg.ibn))
        assert not (frags & ~np.uint64(mask)).any()


def test_index_row_out_of_range():
    cfg = DEFAULT_SEAV
    with pytest.raises(ConfigError):
        index_of(cfg, 4, 0)
    with pytest.raises(ConfigError):
        cfg.index_of_array(-1, np.zeros(1, dtype=np.uint64))


@given(st.integers(min_value=0, max_value=2**28 - 1))
def test_lp_round_trip(lp):
    cfg = DEFAULT_SEAV
    indexes = [index_of(cfg, i, lp) for i in range(cfg.sr)]
    assert lp_from_indexes(cfg, indexes) == lp


def test_lp_round_trip_other_geometry():
    cfg = replace(DEFAULT_SEAV, r=2, sr=3, a=2)
    rng = np.random.default_rng(9)
    for lp in rng.integers(0, 2**30, size=500, dtype=np.uint64).tolist():
        indexes = [index_of(cfg, i, lp) for i in range(cfg.sr)]
        assert lp_from_indexes(cfg, indexes) == lp


# --- sketch update ----------------------------------------------------------

def reference_update(cfg: SeavConfig, pairs):
    """Straightforward dict-of-registers reimplementation."""
    regs: dict[tuple[int, int, int], ShortEstimator] = {}
    for hip, oip in pairs:
        rp = hip & ((1 << cfg.r) - 1)
        lp = hip >> cfg.r
        for i in range(cfg.sr):
            key = (i, rp, index_of(cfg, i, lp))
            regs[key] = regs.get(key, ShortEstimator(0, cfg.g)).update(oip, cfg.tau, cfg.seed)
    return {k: v for k, v in regs.items() if v.bits}


def test_update_idempotent():
    sk = SeavSketch(replace(DEFAULT_SEAV, theta=8), CAP)  # tau=0: every pair lands
    sk.update_batch(*pairs_arrays([(123456, 789)]))
    snapshot = [r.copy() for r in sk.rows]
    sk.update_batch(*pairs_arrays([(123456, 789)]))
    assert all((a == b).all() for a, b in zip(snapshot, sk.rows))


def test_rp_routing_separates_arrays():
    sk = SeavSketch(replace(DEFAULT_SEAV, theta=8), CAP)
    sk.update_batch(*pairs_arrays([(0x10, 5), (0x13, 5)]))  # rp=0 and rp=3
    for row in sk.rows:
        touched = {int(rp) for rp in np.nonzero(row)[0]}
        assert touched == {0, 3}


def test_batch_matches_reference_bit_exactly():
    cfg = replace(DEFAULT_SEAV, theta=64)  # tau=3 keeps some sampling in play
    rng = np.random.default_rng(11)
    hips = rng.integers(0, 2**32, size=5000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=5000, dtype=np.uint64)
    sk = SeavSketch(cfg, CAP)
    sk.update_batch(hips, oips)

    ref = reference_update(cfg, zip(hips.tolist(), oips.tolist()))
    expected_bits = sum(se.weight() for se in ref.values())
    assert np.bitwise_count(sk.flat).sum() == expected_bits
    for (i, rp, col), se in ref.items():
        assert int(sk.rows[i][rp, col]) == se.bits


def test_scalar_matches_batch():
    cfg = replace(DEFAULT_SEAV, theta=64)
    rng = np.random.default_rng(12)
    hips = rng.integers(0, 2**32, size=800, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=800, dtype=np.uint64)
    a = SeavSketch(cfg, CAP)
    b = SeavSketch(cfg, CAP)
    a.update_batch(hips, oips)
    for j in range(len(hips)):
        b.update_batch(hips[j:j + 1], oips[j:j + 1])
    assert all((x == y).all() for x, y in zip(a.rows, b.rows))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
                min_size=0, max_size=60),
       st.randoms(use_true_random=False))
def test_permutation_invariance(pairs, rnd):
    cfg = replace(DEFAULT_SEAV, theta=8, r=2, sr=5, a=1)
    a = SeavSketch(cfg, CAP)
    b = SeavSketch(cfg, CAP)
    a.update_batch(*pairs_arrays(pairs))
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    b.update_batch(*pairs_arrays(shuffled))
    assert all((x == y).all() for x, y in zip(a.rows, b.rows))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
                min_size=1, max_size=80),
       st.lists(st.integers(0, 3), min_size=80, max_size=80))
def test_shard_merge_equivalence(pairs, assignment):
    cfg = replace(DEFAULT_SEAV, theta=8, r=2, sr=5, a=1)
    single = SeavSketch(cfg, CAP)
    shards = [SeavSketch(cfg, CAP) for _ in range(4)]
    single.update_batch(*pairs_arrays(pairs))
    for wp, shard in enumerate(shards):
        shard.update_batch(*pairs_arrays([p for p, a in zip(pairs, assignment) if a == wp]))
    merged = np.bitwise_or.reduce([s.flat for s in shards])
    assert np.array_equal(single.flat, merged)


# --- restore ----------------------------------------------------------------

def test_restore_empty():
    sk = SeavSketch(DEFAULT_SEAV, CAP)
    assert len(sk.restore()) == 0


def test_restore_single_heavy_host():
    sk = SeavSketch(replace(DEFAULT_SEAV, theta=1024), CAP)
    rng = np.random.default_rng(21)
    hip = 0xC0A80101
    oips = rng.integers(0, 2**32, size=4096, dtype=np.uint64)
    sk.update_batch(np.full(4096, hip, dtype=np.uint64), oips)
    assert hip in sk.restore().tolist()


def all_hot_left_parts(sk: SeavSketch, rp: int) -> list[int]:
    """Left parts of a shrunken address space whose register is hot in every
    row: one per consistent tuple of hot columns."""
    cfg = sk.config
    return [lp for lp in range(1 << cfg.lp_bits)
            if all(bin(int(sk.rows[i][rp, index_of(cfg, i, lp)])).count("1") >= 3
                   for i in range(cfg.sr))]


def brute_force_restore(sk: SeavSketch, rp: int) -> set[int]:
    """Enumerate every left part of a shrunken address space."""
    cfg = sk.config
    out = set()
    for lp in all_hot_left_parts(sk, rp):
        union = (1 << cfg.g) - 1
        for i in range(cfg.sr):
            union &= int(sk.rows[i][rp, index_of(cfg, i, lp)])
        if bin(union).count("1") >= 3:
            out.add((lp << cfg.r) | rp)
    return out


def restored_arrays(sk: SeavSketch, skipped=()) -> set[int]:
    """Brute-force restore of every array of a shrunken address space but
    those ``skipped``."""
    out = set()
    for rp in range(1 << sk.config.r):
        if rp not in skipped:
            out |= brute_force_restore(sk, rp)
    return out


def test_restore_matches_brute_force_on_small_address_space():
    cfg = replace(DEFAULT_SEAV, r=4, sr=4, a=2, theta=64, addr_bits=12)
    sk = SeavSketch(cfg, CAP)
    rng = np.random.default_rng(33)
    # 12-bit host space: plant heavy hosts and background chatter.
    heavy = rng.integers(0, 1 << 12, size=6, dtype=np.uint64)
    for hip in heavy:
        oips = rng.integers(0, 2**32, size=256, dtype=np.uint64)
        sk.update_batch(np.full(256, hip, dtype=np.uint64), oips)
    hips = rng.integers(0, 1 << 12, size=3000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=3000, dtype=np.uint64)
    sk.update_batch(hips, oips)

    got = set(sk.restore().tolist())
    expected = restored_arrays(sk)
    assert got == expected
    assert got >= {int(h) for h in heavy}  # heavy hosts all restored here


def test_restore_brute_force_planted_scenario():
    # Planted supers (2*theta peers) among light hosts (<= 8 peers), full
    # enumeration of the shrunken space as the completeness oracle.
    cfg = replace(DEFAULT_SEAV, r=4, sr=4, a=2, theta=64, addr_bits=12)
    sk = SeavSketch(cfg, CAP)
    rng = np.random.default_rng(52)
    hosts = rng.permutation(1 << 12)[: 20 + 1500].astype(np.uint64)
    supers, background = hosts[:20], hosts[20:]
    for hip in supers:
        oips = rng.integers(0, 2**32, size=2 * cfg.theta, dtype=np.uint64)
        sk.update_batch(np.full(len(oips), hip, dtype=np.uint64), oips)
    counts = rng.integers(1, 9, size=len(background))
    bg_hips = np.repeat(background, counts)
    bg_oips = rng.integers(0, 2**32, size=len(bg_hips), dtype=np.uint64)
    sk.update_batch(bg_hips, bg_oips)

    got = set(sk.restore().tolist())
    expected = restored_arrays(sk)
    assert got == expected
    hot_supers = expected & {int(h) for h in supers}
    assert len(hot_supers) >= 18  # nearly all planted supers reconstruct


@pytest.mark.parametrize("block", [1, 5, short_sketch.RESTORE_BLOCK, 1 << 16])
def test_restore_cap_is_exact_count_of_consistent_tuples(block, monkeypatch):
    # The cap counts every consistent full tuple, light AND or not; join
    # blocks from one partial tuple to all of them must neither change the
    # output nor the overflow point.
    monkeypatch.setattr(short_sketch, "RESTORE_BLOCK", block)
    cfg = replace(DEFAULT_SEAV, r=4, sr=4, a=2, theta=64, addr_bits=12)
    sk = SeavSketch(cfg, CAP)
    rng = np.random.default_rng(81)
    hips = rng.integers(0, 1 << 12, size=12_000, dtype=np.uint64)
    sk.update_batch(hips, rng.integers(0, 2**32, size=len(hips), dtype=np.uint64))
    counts = {rp: len(all_hot_left_parts(sk, rp)) for rp in range(1 << cfg.r)}
    rp = max(counts, key=counts.get)
    n = counts[rp]
    assert n > len(brute_force_restore(sk, rp)) > 0  # some tuples have a light AND

    sk.restore_cap = n
    got = set(sk.restore().tolist())
    assert sk.overflowed_arrays == []  # no array overflows
    assert got == restored_arrays(sk) >= brute_force_restore(sk, rp)
    sk.restore_cap = n - 1
    over = [a for a in range(1 << cfg.r) if counts[a] > n - 1]
    got = set(sk.restore().tolist())
    assert sk.overflowed_arrays == over and rp in over
    assert got == restored_arrays(sk, skipped=over)


def test_restore_output_sorted_and_unique():
    sk = SeavSketch(replace(DEFAULT_SEAV, theta=8), CAP)
    rng = np.random.default_rng(4)
    for hip in rng.integers(0, 2**32, size=5, dtype=np.uint64).tolist():
        oips = rng.integers(0, 2**32, size=64, dtype=np.uint64)
        sk.update_batch(np.full(64, hip, dtype=np.uint64), oips)
    found = sk.restore()
    assert found.dtype == np.uint64
    ips = found.tolist()
    assert ips == sorted(set(ips))


def test_restore_overflow_names_the_array():
    sk = SeavSketch(DEFAULT_SEAV, restore_cap=64)
    for row in sk.rows:
        row[3, :] = 0xFF  # every register of array rp=3 is hot
    assert len(sk.restore()) == 0
    assert sk.overflowed_arrays == [3]


@pytest.mark.parametrize("block", [5, 200, short_sketch.RESTORE_BLOCK])
def test_restore_skips_each_overflowed_array_alone(block, monkeypatch):
    # Two flooded arrays among chatter in every array; join blocks of 200
    # or more partial tuples span several arrays.
    monkeypatch.setattr(short_sketch, "RESTORE_BLOCK", block)
    cfg = replace(DEFAULT_SEAV, r=4, sr=4, a=2, theta=64, addr_bits=12)
    sk = SeavSketch(cfg, CAP)
    rng = np.random.default_rng(52)
    hips = rng.integers(0, 1 << 12, size=12_000, dtype=np.uint64)
    sk.update_batch(hips, rng.integers(0, 2**32, size=len(hips), dtype=np.uint64))
    for row in sk.rows:
        row[[9, 3], :] = 0xFF
    counts = {rp: len(all_hot_left_parts(sk, rp)) for rp in range(1 << cfg.r)}
    assert counts[3] == counts[9] == 1 << cfg.lp_bits  # every left part
    sk.restore_cap = max(n for rp, n in counts.items() if rp not in (3, 9))
    assert sk.restore_cap < 1 << cfg.lp_bits
    got = set(sk.restore().tolist())
    assert sk.overflowed_arrays == [3, 9]
    expected = restored_arrays(sk, skipped=(3, 9))
    assert got == expected
    assert {ip & 15 for ip in expected} == set(range(16)) - {3, 9}


def test_restore_overflow_records_and_continues():
    sk = SeavSketch(DEFAULT_SEAV, restore_cap=64)
    for row in sk.rows:
        row[3, :] = 0xFF
    rng = np.random.default_rng(5)
    hip = 0xC0A80000 | 0x1  # rp=1, unaffected by the flooded array
    sk.update_batch(np.full(4096, hip, dtype=np.uint64),
                    rng.integers(0, 2**32, size=4096, dtype=np.uint64))
    found = sk.restore()
    assert sk.overflowed_arrays == [3]
    assert hip in found.tolist()


def test_wide_registers_work_end_to_end():
    # g=16 stores registers in uint16; update, weight, and restore all
    # have to survive the wider dtype.
    cfg = replace(DEFAULT_SEAV, theta=16, g=16)
    assert cfg.memory_bytes() == 16 * 4 * 512 * 2
    sk = SeavSketch(cfg, CAP)
    rng = np.random.default_rng(61)
    hip = 0x0A0A0A0A
    oips = rng.integers(0, 2**32, size=256, dtype=np.uint64)
    sk.update_batch(np.full(256, hip, dtype=np.uint64), oips)
    assert sk.rows[0].dtype == np.uint16
    assert hip in sk.restore().tolist()

