import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sspd import long_sketch, sliding
from sspd.errors import ConfigError
from sspd.sliding import SlidingDetector, TimestampPool, timestamp_dtype
from sspd.window_detector import DetectorParams, DetectorState, report_candidates

from oracles import is_active, ldc_estimate, materialize_ldca, touch, union_register

SMALL = DetectorParams(theta=1024, k=4096, lr=2, v=64, design_n=2e3)


# --- timestamp pool ---------------------------------------------------------

def test_dtype_selection():
    assert timestamp_dtype(100) == np.uint8
    assert timestamp_dtype(127) == np.uint8
    assert timestamp_dtype(300) == np.uint16
    assert timestamp_dtype(40_000) == np.uint32
    # Each dtype holds 2*window + 1: the edges on both sides of each.
    edges = [(128, np.uint16), (32767, np.uint16), (32768, np.uint32),
             (2**31 - 1, np.uint32), (2**31, np.uint64), (2**63 - 1, np.uint64)]
    for window, dtype in edges:
        assert timestamp_dtype(window) == dtype, window
    with pytest.raises(ConfigError, match="too large to timestamp"):
        timestamp_dtype(2**63)


def test_touch_then_query_active():
    pool = TimestampPool(16, window_slices=5)
    touch(pool, 3)
    assert is_active(pool, 3)
    assert not is_active(pool, 4)


def test_expiry_at_exact_boundary():
    pool = TimestampPool(4, window_slices=5)
    touch(pool, 0)
    for _ in range(4):
        pool.advance_slice()
        assert is_active(pool, 0)
    pool.advance_slice()  # age is now exactly the window
    assert not is_active(pool, 0)


def test_out_of_order_touch_keeps_newest():
    pool = TimestampPool(4, window_slices=10)
    for _ in range(6):
        pool.advance_slice()
    touch(pool, 1, now=6)
    touch(pool, 1, now=3)  # older stamp must lose
    for _ in range(9):
        pool.advance_slice()
    assert is_active(pool, 1)  # age 9 from slice 6, would be 12 from slice 3
    pool.advance_slice()
    assert not is_active(pool, 1)


def test_future_touch_rejected():
    pool = TimestampPool(4, window_slices=5)
    with pytest.raises(ConfigError):
        touch(pool, 0, now=1)


def test_slot_bounds_checked():
    pool = TimestampPool(4, window_slices=5)
    with pytest.raises(ConfigError):
        touch(pool, 4)
    with pytest.raises(ConfigError):
        touch(pool, -1)


def test_all_slots_expire_without_touches():
    pool = TimestampPool(64, window_slices=3)
    pool.touch_batch(np.arange(64))
    for _ in range(3):
        pool.advance_slice()
    assert not pool.active().any()


def test_advance_is_lazy():
    # No sweep happens for runs shorter than the anti-alias period.
    pool = TimestampPool(1 << 16, window_slices=300)
    for _ in range(5000):
        pool.advance_slice()
    assert pool.sweep_count == 0


def test_wraparound_never_resurrects_stale_slots():
    # window 100 -> uint8 stamps; run far past the 256-slice modulus.
    pool = TimestampPool(8, window_slices=100)
    assert pool.ts.dtype == np.uint8
    touch(pool, 0)
    live_until = 900
    for now in range(1, 1200):
        pool.advance_slice()
        if now <= live_until and now % 7 == 0:
            touch(pool, 1)
        expect_slot0 = now < 100
        assert is_active(pool, 0) == expect_slot0, f"slot 0 wrong at slice {now}"
    assert pool.sweep_count > 0
    assert not is_active(pool, 1)  # last touched near 900, window long gone


def test_sweep_cadence_is_one_per_period():
    # window 100 -> uint8 stamps and a sweep every 256 - 2*100 = 56 slices.
    pool = TimestampPool(8, window_slices=100)
    for _ in range(4 * 56 + 3):
        pool.advance_slice()
        assert pool.sweep_count == pool.now // 56, pool.now


@pytest.mark.parametrize("window", [1, 3, 127, 128, 300])
def test_advance_by_n_equals_n_single_steps(window):
    # 127 gives uint8 stamps and a sweep every 2 slices; 70000 slices pass
    # the modulus of every dtype here.  Each jump is checked against n
    # single steps and against the last touch of every slot.
    jumped, stepped = TimestampPool(64, window), TimestampPool(64, window)
    period = jumped._sweep_period
    steps = [0, 1, window - 1, window, period, 3 * period + 1, 70000]
    rng = np.random.default_rng(window)
    last = np.full(64, -window)
    for n in steps + rng.permutation(steps).tolist() + rng.permutation(steps).tolist():
        slots = rng.integers(0, 64, size=5)
        for pool in (jumped, stepped):
            pool.touch_batch(slots)
        last[slots] = jumped.now
        jumped.advance_slice(n)
        for _ in range(n):
            stepped.advance_slice()
        assert jumped.now == stepped.now
        assert jumped.active().tolist() == stepped.active().tolist(), (n, jumped.now)
        assert jumped.active().tolist() == (jumped.now - last < window).tolist()
        assert jumped.sweep_count <= stepped.sweep_count


def test_blocked_sweep_equals_whole_pool_sweep(monkeypatch):
    monkeypatch.setattr(sliding, "SWEEP_BLOCK", 5)  # 23 slots: four full blocks and a short one
    pool = TimestampPool(23, window_slices=10)
    rng = np.random.default_rng(5)
    for _ in range(40):
        pool.touch_batch(rng.integers(0, 23, size=3))
        pool.advance_slice()
    assert pool.sweep_count == 0
    ages = pool.ages()
    assert (ages < 10).any() and (ages >= 10).any()
    expected = pool.ts.copy()
    expected[ages >= 10] = (pool.now - 10) & 0xFF
    pool._sweep()
    assert pool.ts.tolist() == expected.tolist()


def test_memory_constant_while_running():
    pool = TimestampPool(1024, window_slices=50)
    before = pool.memory_bytes()
    rng = np.random.default_rng(0)
    for _ in range(200):
        pool.touch_batch(rng.integers(0, 1024, size=64))
        pool.advance_slice()
    assert pool.memory_bytes() == before
    assert pool.n_slots == 1024


# --- sliding detector -------------------------------------------------------

def run_discrete(params, hips, oips):
    st = DetectorState.create(params)
    st.process_batch(hips, oips)
    return st


def test_active_view_monotone_within_window():
    det = SlidingDetector(SMALL, window_slices=10)
    rng = np.random.default_rng(1)
    det.observe_batch(rng.integers(0, 2**32, size=500, dtype=np.uint64),
                      rng.integers(0, 2**32, size=500, dtype=np.uint64))
    before = det.pool.active().sum()
    det.observe_batch(rng.integers(0, 2**32, size=500, dtype=np.uint64),
                      rng.integers(0, 2**32, size=500, dtype=np.uint64))
    after = det.pool.active().sum()
    assert after >= before


@pytest.mark.parametrize("g", [1, 5, 8, 12, 16, 33, 64])
def test_materialize_seav_matches_per_register_reference(g):
    # g = 1, 5 and 12, 33 pad the flags inside uint8, uint16 and uint64
    # registers; g = 8, 16 and 64 fill their registers exactly.
    w = 4
    det = SlidingDetector(replace(SMALL, g=g), window_slices=w)
    rng = np.random.default_rng(g)
    n = det.ldca_base
    det.pool.touch_batch(rng.choice(n, size=n // 2, replace=False))
    for _ in range(w):
        det.advance_slice()  # the first stamps expire
    det.pool.touch_batch(rng.choice(n, size=n // 2, replace=False))
    flags = det.pool.active(0, n).reshape(-1, g).astype(np.uint64)
    reference = (flags << np.arange(g, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
    view = det.materialize_seav()
    assert view.flat.dtype.itemsize * 8 >= g
    assert flags.any() and not flags.all()
    assert view.flat.astype(np.uint64).tolist() == reference.tolist()


@pytest.mark.parametrize("g", [5, 8, 12, 16, 33])
def test_sliding_equals_discrete_for_one_window(g):
    params = replace(SMALL, g=g)
    w = 12
    rng = np.random.default_rng(6)
    n = 20_000
    hips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
    hips[:2048] = 0x0A0A0A0A
    slices = rng.integers(0, w, size=n)

    discrete = run_discrete(params, hips, oips)
    discrete_reports = discrete.finalize_window()

    det = SlidingDetector(params, window_slices=w)
    for s in range(w):
        sel = slices == s
        det.observe_batch(hips[sel], oips[sel])
        if s < w - 1:
            det.advance_slice()
    # Materialized views must be bit-identical to the discrete sketches.
    view = det.materialize_seav()
    assert all((x == y).all() for x, y in zip(view.rows, discrete.seav.rows))
    assert (materialize_ldca(det) == discrete.ldca.data).all()

    sliding_reports = det.detect()
    assert [(r.ip, r.estimated_cardinality, r.saturated) for r in sliding_reports] == \
           [(r.ip, r.estimated_cardinality, r.saturated) for r in discrete_reports]


def sliding_estimate(det, hips, cutoff=0.0):
    """The one filter read over the detector's active counter bits, as
    its ``detect`` runs it."""
    return long_sketch.union_estimates(det.ldca_config, det.materialize_ldca_cell, hips,
                                       cutoff)


def pairs(est, saturated):
    return list(zip(est.tolist(), saturated.tolist()))


@pytest.mark.parametrize("k", [4096, 520])
def test_sliding_zero_counts_match_discrete_union(k, monkeypatch):
    # At k = 520 a register is 65 bytes: the discrete reader gathers uint8
    # words, the sliding reader 65 uint64 words of flag bytes.  The small
    # design_n keeps the planner's noise warning quiet at that width.  At
    # LR = 4 the bounded read drops hosts after two rows: both readers must
    # drop the same hosts with the same partial estimates, and report alike.
    monkeypatch.setattr(long_sketch, "ZERO_COUNT_CHUNK", 3)
    rng = np.random.default_rng(8)
    heavy = rng.integers(0, 2**32, size=3, dtype=np.uint64)
    hips = rng.permutation(np.concatenate([np.repeat(heavy, 1200),
                                           rng.integers(0, 2**32, size=5000, dtype=np.uint64)]))
    oips = rng.integers(0, 2**32, size=len(hips), dtype=np.uint64)
    half = len(hips) // 2
    probes = np.concatenate([heavy, hips[:10], rng.integers(0, 2**32, size=10, dtype=np.uint64)])
    for lr in (2, 4):
        params = replace(SMALL, k=k, lr=lr, design_n=200)
        discrete = run_discrete(params, hips, oips)
        det = SlidingDetector(params, window_slices=4)
        det.observe_batch(hips[:half], oips[:half])
        det.advance_slice()
        det.observe_batch(hips[half:], oips[half:])
        z0 = np.array([k - int(np.unpackbits(union_register(discrete.ldca, int(p))).sum())
                       for p in probes])
        expected = [ldc_estimate(z, k) for z in z0.tolist()]
        full_est, full_sat = discrete.ldca.estimate(probes)
        assert pairs(full_est, full_sat) == expected
        assert pairs(*sliding_estimate(det, probes)) == expected

        cutoff = long_sketch.filter_cutoff(params.theta, k)
        bounded, saturated = discrete.ldca.estimate(probes, cutoff)
        assert pairs(*sliding_estimate(det, probes, cutoff)) == pairs(bounded, saturated)
        exact = z0 <= long_sketch.zero_count_bound(cutoff, k)
        assert exact.any() and not exact.all()
        assert (bounded[exact] == full_est[exact]).all()
        assert (bounded[~exact] < cutoff).all() and not saturated[~exact].any()
        assert (bounded > full_est).any() == (lr > 2)  # partial estimates, at LR = 4 only

        unbounded = report_candidates(discrete.seav, lambda ips, _: discrete.ldca.estimate(ips),
                                      cutoff, 0)
        reports = [[(r.ip, r.estimated_cardinality, r.saturated) for r in rs]
                   for rs in (det.detect(), discrete.finalize_window(), unbounded)]
        assert reports[0] and reports[0] == reports[1] == reports[2]
        for _ in range(4):
            det.advance_slice()
        assert pairs(*sliding_estimate(det, probes)) == [(0.0, False)] * len(probes)  # expired


@pytest.mark.parametrize("k", [65528, 65536])
def test_sliding_zero_counts_of_full_registers_at_the_accumulator_edge(k):
    # Every slot active: each host's union has k set flags, summed in
    # uint16 at k = 65528 and uint32 at k = 65536 (a uint16 sum wraps to 0).
    det = SlidingDetector(replace(SMALL, k=k, lr=3, v=6, design_n=1), window_slices=4)
    det.pool.ts[:] = det.pool.now
    hosts = np.random.default_rng(13).integers(0, 2**32, size=3, dtype=np.uint64)
    assert pairs(*sliding_estimate(det, hosts)) == [ldc_estimate(0, k)] * 3
    assert pairs(*sliding_estimate(det, hosts, 0.0)) == [ldc_estimate(0, k)] * 3


def test_detect_memory_stays_small_at_default_geometry():
    det = SlidingDetector(DetectorParams(), window_slices=300)
    assert det.pool.memory_bytes() > 128 << 20  # counter slots alone: 64Mi uint16
    rng = np.random.default_rng(9)
    heavy = rng.integers(0, 2**32, size=20, dtype=np.uint64)
    hips = np.concatenate([np.repeat(heavy, 2048),
                           rng.integers(0, 2**32, size=50_000, dtype=np.uint64)])
    det.observe_batch(hips, rng.integers(0, 2**32, size=len(hips), dtype=np.uint64))
    tracemalloc.start()
    try:
        reports = det.detect()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {r.ip for r in reports} >= {int(h) for h in heavy}
    assert peak < 32 << 20


def test_boundary_straddling_host_found_only_by_sliding():
    """512 opposite IPs in the tail of one discrete window and 512 fresh
    ones in the head of the next, together spanning one window length:
    both discrete windows miss, a slide covering both halves hits."""
    params = SMALL
    w = 10
    rng = np.random.default_rng(77)
    hip = 0x0B0C0D0E
    first = np.unique(rng.integers(0, 2**32, size=560, dtype=np.uint64))[:512]
    second = np.unique(rng.integers(2**31, 2**32, size=560, dtype=np.uint64))[:512]

    # Discrete windows see one half each: 512 < theta, nothing reported.
    for half in (first, second):
        st = run_discrete(params, np.full(512, hip, dtype=np.uint64), half)
        assert [r.ip for r in st.finalize_window()] == []

    # Live slices: first half in slices 5..9, second half in 10..14.
    per_slice = {}
    for j in range(5):
        per_slice[5 + j] = first[j * 103: (j + 1) * 103 + (512 - 5 * 103) * (j == 4)]
        per_slice[10 + j] = second[j * 103: (j + 1) * 103 + (512 - 5 * 103) * (j == 4)]
    assert sum(len(v) for v in per_slice.values()) == 1024

    det = SlidingDetector(params, window_slices=w)
    hits = []
    for s in range(16):
        chunk = per_slice.get(s, np.array([], dtype=np.uint64))
        if len(chunk):
            det.observe_batch(np.full(len(chunk), hip, dtype=np.uint64), chunk)
        hits += [(s, r.ip) for r in det.detect()]
        det.advance_slice()
    assert (14, hip) in hits  # the slide spanning slices 5..14 sees all 1024


def test_detect_after_everything_expired_is_empty():
    det = SlidingDetector(SMALL, window_slices=4)
    rng = np.random.default_rng(3)
    det.observe_batch(np.full(2048, 0x01010101, dtype=np.uint64),
                      rng.integers(0, 2**32, size=2048, dtype=np.uint64))
    assert det.detect()  # visible right away
    for _ in range(4):
        det.advance_slice()
    assert det.detect() == []

