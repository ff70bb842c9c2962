import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspd import long_sketch
from sspd.errors import ConfigError
from sspd.hashing import DEFAULT_MASTER_SEED, Tag, derive_seed
from sspd.long_sketch import (
    LdcaConfig,
    LdcaSketch,
    check_noise,
    ldc_estimates,
    noise_factor,
    plan_rows,
    psu,
)

from oracles import Ldc, hash_range, ldc_estimate, row_column, union_register

SEED = DEFAULT_MASTER_SEED
H3 = derive_seed(SEED, Tag.H3)


# --- single-register estimator ----------------------------------------------

def test_estimate_empty_register():
    est, saturated = ldc_estimate(1024, 1024)
    assert est == 0.0 and not saturated


def test_estimate_half_full():
    est, saturated = ldc_estimate(512, 1024)
    assert not saturated
    assert est == pytest.approx(1024 * math.log(2), rel=1e-12)
    assert est == pytest.approx(709.78, abs=0.01)


def test_estimate_saturated():
    est, saturated = ldc_estimate(0, 8192)
    assert saturated
    assert est == pytest.approx(8192 * math.log(8192))


def test_estimate_rejects_bad_zero_count():
    with pytest.raises(ConfigError):
        ldc_estimate(1025, 1024)
    with pytest.raises(ConfigError):
        ldc_estimate(-1, 1024)


@given(st.integers(min_value=8, max_value=1 << 14))
def test_estimate_monotone_in_zero_count(k):
    k -= k % 8
    k = max(k, 8)
    prev = math.inf
    for z0 in range(0, k + 1, max(1, k // 37)):
        est, _ = ldc_estimate(z0, k)
        assert est <= prev + 1e-9
        prev = est


@pytest.mark.parametrize("k", [8, 1024, 8192])
def test_estimates_keep_the_scalar_floats(k):
    # Bit for bit, at every zero count: np.log differs from math.log by an
    # ulp at some counts, which would change the report files.
    z0s = np.arange(k + 1)[::-1]
    est, saturated = ldc_estimates(z0s, k)
    assert list(zip(est.tolist(), saturated.tolist())) == \
           [ldc_estimate(z, k) for z in z0s.tolist()]


def largest_passing_zero_count(cutoff, k):
    """The bound by brute force: the largest z0 > 0 whose estimate, as
    ldc_estimates computes it, is >= cutoff (0 when there is none)."""
    est, _ = ldc_estimates(np.arange(k + 1), k)
    return max((z for z in range(1, k + 1) if est[z] >= cutoff), default=0)


def test_filter_cutoff_is_three_standard_errors_below_theta():
    # sigma = sqrt(k * (e^t - t - 1)) at t = theta / k: 8.17 at the defaults.
    assert long_sketch.filter_cutoff(1024, 8192) == pytest.approx(999.489, abs=1e-3)
    assert long_sketch.CUTOFF_SIGMAS == 3
    # Where the counter cannot resolve theta, only saturated hosts pass.
    assert long_sketch.filter_cutoff(1024, 64) == math.inf  # 3 sigma exceed theta
    assert long_sketch.filter_cutoff(2**32, 4096) == math.inf  # e^t overflows


@pytest.mark.parametrize("k", [8, 520, 8192])
def test_zero_count_bound_matches_brute_force(k):
    ties = [-k * math.log(z / k) for z in (1, k // 3, k - 1, k)]
    cutoffs = ties + [math.nextafter(t, math.inf) for t in ties] + [
        long_sketch.filter_cutoff(1024, 8192),   # the default cutoff
        -1.0, 0.0,                               # at or below every estimate: bound k
        k * math.log(k), k * math.log(k) + 1.0,  # only saturated registers clear it
        math.inf,
    ]
    for cutoff in cutoffs:
        assert long_sketch.zero_count_bound(cutoff, k) == largest_passing_zero_count(cutoff, k)
    assert long_sketch.zero_count_bound(ties[1], k) == k // 3  # a tie keeps its count
    assert long_sketch.zero_count_bound(0.0, k) == k
    assert long_sketch.zero_count_bound(k * math.log(k) + 1.0, k) == 0
    assert long_sketch.zero_count_bound(0.8 * 1024, 8192) == 7412


def test_zero_count_bound_steps_from_the_crossing():
    # The search starts at floor(k * exp(-cutoff / k)), not at k: at
    # k = 2^24 a cutoff above every estimate answers 0 after one log, not 2^24.
    k = 1 << 24
    calls = [0]

    def counted(z0, k):
        calls[0] += 1
        return -k * math.log(z0 / k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(long_sketch, "_estimate", counted)
        long_sketch.zero_count_bound.cache_clear()
        assert long_sketch.zero_count_bound(math.inf, k) == 0
        assert calls[0] <= 2
        cutoff = long_sketch.filter_cutoff(1 << 20, k)
        bound = long_sketch.zero_count_bound(cutoff, k)
        assert calls[0] <= 5
    (at, past), _ = ldc_estimates(np.array([bound, bound + 1]), k)
    assert at >= cutoff > past  # the largest count whose estimate clears the cutoff
    long_sketch.zero_count_bound.cache_clear()


def test_ldc_idempotent_and_pigeonhole():
    ldc = Ldc(k=8)
    ldc.update(1234, SEED)
    once = ldc.bits
    ldc.update(1234, SEED)
    assert ldc.bits == once
    assert bin(once).count("1") == 1
    for oip in range(8):
        ldc.update(oip, SEED)
    assert 1 <= 8 - ldc.zero_count() <= 8


def test_ldc_rejects_bad_width():
    with pytest.raises(ConfigError):
        Ldc(k=12)
    with pytest.raises(ConfigError):
        Ldc(k=0)


def test_occupancy_matches_theory():
    # 1024 distinct values into 8192 bits: E[zeros] = k(1-1/k)^n.
    k, n = 8192, 1024
    expected = k * (1 - 1 / k) ** n
    var = (k * (k - 1) * (1 - 2 / k) ** n
           + k * (1 - 1 / k) ** n
           - (k * (1 - 1 / k) ** n) ** 2)
    rng = np.random.default_rng(77)
    trials = 50
    zeros = []
    for _ in range(trials):
        oips = np.unique(rng.integers(0, 2**32, size=n + 40, dtype=np.uint64))[:n]
        ldc = Ldc(k=k)
        for oip in oips.tolist():
            ldc.update(oip, SEED)
        zeros.append(ldc.zero_count())
    mean = np.mean(zeros)
    assert expected == pytest.approx(7229, abs=1)
    assert abs(mean - expected) <= 3 * math.sqrt(var / trials)


# --- array sketch -----------------------------------------------------------

def small_sketch(lr=2, lc=16, k=64):
    return LdcaSketch(LdcaConfig(lr=lr, lc=lc, k=k, seed=SEED))


def one_pair(hip, oip):
    """The 1-pair (hips, oips) batch of one IP pair."""
    return np.array([hip], dtype=np.uint64), np.array([oip], dtype=np.uint64)


def test_one_pair_sets_at_most_lr_bits():
    sk = small_sketch(lr=3)
    sk.update_batch(*one_pair(42, 4242))
    set_bits = int(np.unpackbits(sk.data).sum())
    assert 1 <= set_bits <= 3


def test_pair_idempotent():
    sk = small_sketch()
    sk.update_batch(*one_pair(42, 4242))
    snap = sk.data.copy()
    sk.update_batch(*one_pair(42, 4242))
    assert (sk.data == snap).all()


def reference_update(sk: LdcaSketch, hip: int, oip: int):
    """Scalar reimplementation: set bit H3(oip) of the host's cell in every row."""
    cfg = sk.config
    bit = hash_range(oip, derive_seed(cfg.seed, Tag.H3), cfg.k)
    for i in range(cfg.lr):
        sk.data[i, row_column(sk, i, hip), bit >> 3] |= 1 << (bit & 7)


def test_batch_matches_scalar():
    rng = np.random.default_rng(13)
    hips = rng.integers(0, 2**32, size=1500, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=1500, dtype=np.uint64)
    a = small_sketch(lr=3, lc=32, k=256)
    b = small_sketch(lr=3, lc=32, k=256)
    c = small_sketch(lr=3, lc=32, k=256)
    a.update_batch(hips, oips)
    for hip, oip in zip(hips.tolist(), oips.tolist()):
        reference_update(b, hip, oip)
        c.update_batch(*one_pair(hip, oip))
    assert (a.data == b.data).all()
    assert (c.data == b.data).all()


@pytest.mark.parametrize("lc, k", [(32, 256), (30, 264)], ids=["power-of-two", "other"])
def test_batch_with_repeated_bytes_matches_scalar(lc, k):
    # Few hosts, each pair sent ~20 times in shuffled order: every row hits
    # the same bytes again and again, within and across bit-in-byte groups.
    rng = np.random.default_rng(15)
    hosts = rng.integers(0, 2**32, size=4, dtype=np.uint64)
    hips = np.repeat(hosts, 40)
    oips = rng.integers(0, 2**32, size=len(hips), dtype=np.uint64)
    order = rng.permutation(np.repeat(np.arange(len(hips)), 20))
    hips, oips = hips[order], oips[order]
    assert {hash_range(o, H3, k) & 7 for o in oips.tolist()} == set(range(8))
    a = small_sketch(lr=3, lc=lc, k=k)
    b = small_sketch(lr=3, lc=lc, k=k)
    a.update_batch(hips, oips)
    for hip, oip in set(zip(hips.tolist(), oips.tolist())):
        reference_update(b, hip, oip)
    assert (a.data == b.data).all()

    empty = np.zeros(0, dtype=np.uint64)
    a.update_batch(empty, empty)
    assert (a.data == b.data).all()
    a.update_batch(np.array([7], dtype=np.uint32), np.array([9], dtype=np.uint32))
    reference_update(b, 7, 9)
    assert (a.data == b.data).all()


def test_shard_merge_equals_single_stream():
    rng = np.random.default_rng(14)
    hips = rng.integers(0, 2**32, size=4000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=4000, dtype=np.uint64)
    single = small_sketch(lr=2, lc=64, k=512)
    shards = [small_sketch(lr=2, lc=64, k=512) for _ in range(4)]
    single.update_batch(hips, oips)
    lanes = np.arange(4000) % 4
    for w in range(4):
        shards[w].update_batch(hips[lanes == w], oips[lanes == w])
    merged = np.bitwise_or.reduce([s.flat for s in shards])
    assert np.array_equal(single.flat, merged)


def test_untouched_estimate_is_zero():
    sk = small_sketch()
    est, saturated = sk.estimate(np.array([777], dtype=np.uint64))
    assert est.tolist() == [0.0] and saturated.tolist() == [False]


def test_single_host_estimate_accuracy():
    # n=1024 distinct opposite IPs, k=8192, LR=2, LC=64: <= 5% mean error.
    k, n, trials = 8192, 1024, 200
    rng = np.random.default_rng(99)
    rel_errors = []
    signed = []
    for t in range(trials):
        sk = LdcaSketch(LdcaConfig(lr=2, lc=64, k=k, seed=t))
        hip = int(rng.integers(0, 2**32))
        oips = np.unique(rng.integers(0, 2**32, size=n + 40, dtype=np.uint64))[:n]
        sk.update_batch(np.full(n, hip, dtype=np.uint64), oips)
        (est,), (saturated,) = sk.estimate(np.array([hip], dtype=np.uint64))
        assert not saturated
        rel_errors.append(abs(est - n) / n)
        signed.append((est - n) / n)
    assert np.mean(rel_errors) <= 0.05
    assert abs(np.mean(signed)) <= 0.02


def test_union_estimate_never_exceeds_single_rows():
    # The AND view can only clear bits relative to each row's own cell.
    rng = np.random.default_rng(15)
    sk = small_sketch(lr=2, lc=4, k=512)
    hips = rng.integers(0, 2**32, size=3000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=3000, dtype=np.uint64)
    sk.update_batch(hips, oips)
    probe = 0xDDDD1111
    union = union_register(sk, probe)
    union_ones = int(np.unpackbits(union).sum())
    for i in range(2):
        cell = sk.data[i, row_column(sk, i, probe)]
        assert union_ones <= int(np.unpackbits(cell).sum())


def union_zero_counts(sk, hosts):
    """Zero-bit count of each host's AND-union register, by the oracle."""
    return np.array([sk.config.k - int(np.unpackbits(union_register(sk, int(h))).sum())
                     for h in hosts], dtype=np.int64)


def pairs(est, saturated):
    return list(zip(est.tolist(), saturated.tolist()))


def cutoff_at(bound, k):
    """The least cutoff whose zero-count bound is ``bound``."""
    if bound == 0:  # above the estimate of one zero bit, k*ln(k)
        return math.nextafter(k * math.log(k), math.inf)
    return -k * math.log(bound / k)


def recorded_tables(mp):
    """Patch the one read so that each call appends the weight table it
    took, or None when it took none."""
    tables = []
    read = long_sketch.union_estimates

    def recording(config, cells, hips, cutoff, weights=None):
        call = len(tables)
        tables.append(None)

        def table():
            tables[call] = weights()
            return tables[call]

        return read(config, cells, hips, cutoff, weights and table)

    mp.setattr(long_sketch, "union_estimates", recording)
    return tables


@pytest.mark.parametrize("k", [512, 8 * 65])  # uint64 words, and bytes
def test_zero_counts_match_scalar_union(k, monkeypatch):
    # Chunks of 7 hosts, so several chunks and a short last one.
    monkeypatch.setattr(long_sketch, "ZERO_COUNT_CHUNK", 7)
    rng = np.random.default_rng(71)
    sk = small_sketch(lr=3, lc=8, k=k)
    stream_hosts = rng.integers(0, 2**32, size=4, dtype=np.uint64)
    hips = np.repeat(stream_hosts, 60)
    sk.update_batch(hips, rng.integers(0, 2**32, size=len(hips), dtype=np.uint64))
    saturated = 0xFEEDF00D
    for i in range(sk.config.lr):
        sk.data[i, row_column(sk, i, saturated)] = 0xFF
    probes = np.concatenate([stream_hosts, [saturated],
                             rng.integers(0, 2**32, size=40, dtype=np.uint64)])

    expected = union_zero_counts(sk, probes).tolist()
    assert pairs(*sk.estimate(probes)) == [ldc_estimate(z, k) for z in expected]  # one batch
    assert 0 in expected and k in expected  # a saturated and an untouched host
    cells = {(i, row_column(sk, i, int(p))) for p in probes for i in range(sk.config.lr)}
    assert len(cells) < len(probes) * sk.config.lr  # hosts share cells
    assert [a.tolist() for a in sk.estimate(np.array([], dtype=np.uint64))] == [[], []]


def untouched_hosts(sk, n, seed):
    """n host IPs whose cells are empty in every row."""
    rng = np.random.default_rng(seed)
    words = sk.data.reshape(sk.config.v, -1)
    found = []
    while len(found) < n:
        cand = rng.integers(0, 2**32, size=4096, dtype=np.uint64)
        used = np.zeros(len(cand), dtype=bool)
        for reg in sk.config.registers(cand):
            used |= words[reg].any(axis=1)
        found.extend(cand[~used][:n - len(found)].tolist())
    return found


@settings(max_examples=60, deadline=None)
@given(lr=st.sampled_from([1, 2, 3, 8]), chunk=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 63), table=st.booleans())
def test_bounded_zero_counts_exact_at_or_under_the_bound(lr, chunk, seed, pick, table):
    rng = np.random.default_rng(seed)
    sk = small_sketch(lr=lr, lc=16, k=64)
    stream_hosts = rng.integers(0, 2**32, size=6, dtype=np.uint64)
    peers = rng.integers(1, 96, size=len(stream_hosts))
    hips = np.repeat(stream_hosts, peers)
    sk.update_batch(hips, rng.integers(0, 2**32, size=len(hips), dtype=np.uint64))
    saturated = 0xFEEDF00D
    for i in range(lr):
        sk.data[i, row_column(sk, i, saturated)] = 0xFF
    untouched = untouched_hosts(sk, chunk, seed)
    # A whole first chunk of untouched hosts: it loses every host whenever
    # the bound is below k and there are rows left after the check.
    probes = np.array(untouched + stream_hosts.tolist() + [saturated]
                      + rng.integers(0, 2**32, size=12, dtype=np.uint64).tolist(),
                      dtype=np.uint64)
    if table:  # v/2 hosts: a bounded read first drops hosts by cell weight
        probes = np.concatenate([probes, rng.integers(
            0, 2**32, size=max(0, sk.config.v // 2 - len(probes)), dtype=np.uint64)])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(long_sketch, "ZERO_COUNT_CHUNK", chunk)
        tables = recorded_tables(mp)
        plain = union_zero_counts(sk, probes)
        full_est, full_sat = sk.estimate(probes)
        assert pairs(full_est, full_sat) == [ldc_estimate(z, 64) for z in plain.tolist()]
        assert 0 in plain and 64 in plain  # a saturated and an untouched host
        levels = sorted(set(plain.tolist()))
        for bound in {levels[pick % len(levels)], 0, 64, 63, pick}:  # hosts exactly at it
            cutoff = cutoff_at(bound, 64)
            assert long_sketch.zero_count_bound(cutoff, 64) == bound
            est, sat = sk.estimate(probes, cutoff)
            if table:
                assert (tables[-1] is not None) == (lr > 2)
            exact = plain <= bound
            assert (est[exact] == full_est[exact]).all() and (sat == full_sat).all()
            assert (est[~exact] < cutoff).all()
            assert (est[~exact] >= full_est[~exact]).all()  # a partial estimate
            if lr <= 2:
                assert est.tolist() == full_est.tolist()
        assert [a.tolist() for a in sk.estimate(np.array([], dtype=np.uint64), 0.0)] == [[], []]


def test_bounded_read_skips_the_rows_of_a_chunk_it_empties(monkeypatch):
    monkeypatch.setattr(long_sketch, "ZERO_COUNT_CHUNK", 2)
    sk = small_sketch(lr=4, lc=16, k=64)
    saturated = 0xFEEDF00D
    for i in range(4):
        sk.data[i, row_column(sk, i, saturated)] = 0xFF
    probes = np.array(untouched_hosts(sk, 5, seed=3) + [saturated], dtype=np.uint64)
    words = sk.data.reshape(sk.config.v, -1)
    gathered = []

    def cells(reg):
        gathered.append(len(reg))
        return words[reg]

    est = long_sketch.union_estimates(sk.config, cells, probes, cutoff_at(0, 64))
    assert pairs(*est) == [(0.0, False)] * 5 + [ldc_estimate(0, 64)]
    # Chunks of 2, 2 and 2 hosts: all read two rows; only the last, holding
    # the saturated host, reads its other two, for that host alone.
    assert gathered == [2, 2, 2, 2, 2, 2, 1, 1]


def test_weight_table_drops_hosts_before_any_gather():
    sk = small_sketch(lr=4, lc=16, k=64)
    saturated = 0xFEEDF00D
    for i in range(4):
        sk.data[i, row_column(sk, i, saturated)] = 0xFF
    # v/2 hosts, so that two rows would gather as many registers as the
    # table reads.
    probes = np.array(untouched_hosts(sk, 31, seed=3) + [saturated], dtype=np.uint64)
    words = sk.data.reshape(sk.config.v, -1)
    gathered = []

    def cells(reg):
        gathered.append(reg.tolist())
        return words[reg]

    est = long_sketch.union_estimates(sk.config, cells, probes, cutoff_at(0, 64),
                                      lambda: np.unpackbits(words, axis=1).sum(axis=1))
    assert pairs(*est) == [(0.0, False)] * 31 + [ldc_estimate(0, 64)]
    # Only the saturated host is read, through all four rows.
    assert gathered == [[reg[-1]] for reg in sk.config.registers(probes)]


@pytest.mark.parametrize("lr, n_hosts, bound, table", [
    (4, 32, 7, True),      # v/2 hosts: two rows gather v registers
    (4, 31, 7, False),
    (2, 16, 7, False),     # two rows are every row
])
def test_weight_table_only_when_two_rows_gather_as_much(lr, n_hosts, bound, table,
                                                        monkeypatch):
    sk = small_sketch(lr=lr, lc=16, k=64)
    rng = np.random.default_rng(9)
    sk.update_batch(rng.integers(0, 2**32, size=500, dtype=np.uint64),
                    rng.integers(0, 2**32, size=500, dtype=np.uint64))
    tables = recorded_tables(monkeypatch)
    sk.estimate(rng.integers(0, 2**32, size=n_hosts, dtype=np.uint64), cutoff_at(bound, 64))
    assert (tables[0] is not None) == table
    if table:
        words = sk.data.reshape(sk.config.v, -1)
        assert tables[0].tolist() == np.unpackbits(words, axis=1).sum(axis=1).tolist()


@pytest.mark.parametrize("k", [65528, 65536])
@pytest.mark.parametrize("fill", ["full", "random"])
def test_popcount_sums_at_the_accumulator_edge(k, fill, monkeypatch):
    # Set-bit counts are summed in np.min_scalar_type(k): uint16 at
    # k = 65528, uint32 at k = 65536, where a uint16 sum of a full
    # register would wrap to 0 and give a zero count of k.
    sk = small_sketch(lr=3, lc=2, k=k)
    rng = np.random.default_rng(12)
    if fill == "full":
        sk.data.fill(0xFF)
    else:
        sk.data[:] = rng.integers(0, 256, size=sk.data.shape, dtype=np.uint8)
    tables = recorded_tables(monkeypatch)
    hosts = rng.integers(0, 2**32, size=3, dtype=np.uint64)
    expected = [ldc_estimate(z, k) for z in union_zero_counts(sk, hosts).tolist()]
    assert pairs(*sk.estimate(hosts, 0.0)) == expected  # bound k: takes the weight table
    if fill == "full":
        assert expected == [ldc_estimate(0, k)] * 3
    words = sk.data.reshape(sk.config.v, -1)
    assert tables[0].tolist() == np.unpackbits(words, axis=1).sum(axis=1, dtype=np.int64).tolist()


def test_memory_accounting():
    cfg = LdcaConfig(lr=8, lc=1024, k=8192, seed=SEED)
    assert cfg.memory_bytes() == 8 * 1024 * 8192 // 8 == 8 * 1024 * 1024
    assert LdcaSketch(cfg).data.nbytes == cfg.memory_bytes()
    assert cfg.v == 8192


# --- union fill probability and the row planner -------------------------------

def test_psu_direct_value():
    val = psu(64, 64 * 10, 10, 1)
    assert val == pytest.approx(1 - (1 - 1 / 64) ** 64, rel=1e-12)
    assert val == pytest.approx(0.6350, abs=5e-4)


def test_psu_decreasing_in_rows():
    prev = 1.0
    for lr in range(1, 12):
        cur = psu(1024, 10**5, 128, lr)
        assert cur < prev
        prev = cur


def test_psu_empirical_agreement():
    # One triple here; the acceptance suite sweeps LR in {1,2,3}.
    k, n, lc, lr = 1024, 10**5, 128, 2
    rng = np.random.default_rng(7)
    sk = LdcaSketch(LdcaConfig(lr=lr, lc=lc, k=k, seed=SEED))
    hips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
    sk.update_batch(hips, oips)
    probes = rng.integers(0, 2**32, size=512, dtype=np.uint64)
    fills = [int(np.unpackbits(union_register(sk, int(p))).sum()) / k for p in probes]
    assert abs(np.mean(fills) - psu(k, n, lc, lr)) <= 0.01


def test_plan_rows_spec_point():
    # raw optimum ~46.5 for this point; nearest integer wins pre-clamp.
    lr, lc = plan_rows(8192, 1e6, 8192, max_rows=None)
    assert lr == 47
    assert lc == 8192 // 47
    lr, lc = plan_rows(8192, 1e6, 8192)  # default clamp keeps merges cheap
    assert (lr, lc) == (8, 1024)


def test_plan_rows_clamps_to_one():
    lr, lc = plan_rows(64, 1e9, 8192)
    assert lr == 1 and lc == 64


def test_plan_rows_rejects_bad_args():
    with pytest.raises(ConfigError):
        plan_rows(0, 1e6, 8192)
    with pytest.raises(ConfigError):
        plan_rows(8192, 1e6, 8192, max_rows=0)
    with pytest.raises(ConfigError):
        plan_rows(8192, 1e6, 8192, max_rows=-3)
    with pytest.raises(ConfigError):
        plan_rows(8192, 0, 8192)
    with pytest.raises(ConfigError):
        plan_rows(8192, 1e6, 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1024, 2048, 4096, 8192]),
       st.floats(min_value=1e4, max_value=1e7),
       st.sampled_from([1024, 4096, 8192, 16384]))
def test_plan_rows_near_continuous_optimum(v, n, k):
    lr, lc = plan_rows(v, n, k, max_rows=None)
    raw = -v * math.log(2) / (n * math.log(1 - 1 / k))
    assert lr == min(v, max(1, round(raw)))  # never more rows than registers
    assert lc == v // lr


def test_noise_factor_and_warning():
    quiet = noise_factor(8192, 1e6, 1024, 8)
    assert quiet < 1
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_noise(8192, 1e6, 1024, 8)  # silent when psu*k < 1
    with pytest.warns(RuntimeWarning, match="psu"):
        check_noise(64, 1e6, 4, 1)
