import itertools

import numpy as np
import pytest

from sspd.errors import ConfigError
from sspd.evaluation import TraceSpec, generate_trace
from sspd.hashing import DEFAULT_MASTER_SEED
from sspd.long_sketch import LdcaConfig, filter_cutoff
from sspd.window_detector import DetectorParams, DetectorState, report_candidates, split_windows

PARAMS = DetectorParams(design_n=2e5)


def fresh(params=PARAMS):
    return DetectorState.create(params)


def test_one_pair_touches_both_sketches():
    st = fresh()
    st.process_batch(np.array([0xC0A80101], dtype=np.uint64),
                     np.array([0xDEADBEEF], dtype=np.uint64))
    ldca_bits = int(np.unpackbits(st.ldca.data).sum())
    assert 1 <= ldca_bits <= st.ldca.config.lr
    # short-register touches happen only for sampled opposite IPs
    assert np.bitwise_count(st.seav.flat).sum() in (0, st.seav.config.sr)


def test_stream_permutation_same_state():
    rng = np.random.default_rng(2)
    hips = rng.integers(0, 2**32, size=3000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=3000, dtype=np.uint64)
    a, b = fresh(), fresh()
    a.process_batch(hips, oips)
    order = rng.permutation(3000)
    b.process_batch(hips[order], oips[order])
    assert all((x == y).all() for x, y in zip(a.seav.rows, b.seav.rows))
    assert (a.ldca.data == b.ldca.data).all()


def test_quarter_stream_sharding():
    rng = np.random.default_rng(3)
    n = 40_000
    hips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
    single = fresh()
    single.process_batch(hips, oips)
    shards = [fresh() for _ in range(4)]
    lane = np.arange(n) % 4
    for w in range(4):
        shards[w].process_batch(hips[lane == w], oips[lane == w])
    for kind in ("seav", "ldca"):
        merged = np.bitwise_or.reduce([getattr(s, kind).flat for s in shards])
        assert np.array_equal(getattr(single, kind).flat, merged), kind


def test_no_traffic_no_reports():
    assert fresh().finalize_window() == []


def heavy_host(state, hip, n_oips, rng):
    oips = np.unique(rng.integers(0, 2**32, size=n_oips + 64, dtype=np.uint64))[:n_oips]
    state.process_batch(np.full(n_oips, hip, dtype=np.uint64), oips)


def test_detects_heavy_host_and_estimates():
    st = fresh()
    rng = np.random.default_rng(8)
    heavy_host(st, 0x0A000001, 2048, rng)
    reports = st.finalize_window()
    assert [r.ip for r in reports] == [0x0A000001]
    rep = reports[0]
    assert not rep.saturated
    assert rep.estimated_cardinality == pytest.approx(2048, rel=0.1)
    assert rep.estimated_cardinality >= filter_cutoff(st.theta, st.ldca.config.k)


def lp_windows(cfg):
    w = cfg.lp_bits
    return [[(cfg.isb[i] + j) % w for j in range(cfg.ibn)] for i in range(cfg.sr)]


def test_register_sharing_candidate_filtered_by_counter_stage():
    """A light host whose row registers are all owned by heavy hosts
    survives reconstruction but not the cardinality filter."""
    st = fresh()
    cfg = st.seav.config
    rng = np.random.default_rng(16)

    rp = 5
    lp_h = int(rng.integers(0, 1 << cfg.lp_bits))
    light = (lp_h << cfg.r) | rp

    heavies = []
    for i, window in enumerate(lp_windows(cfg)):
        lp_s = int(rng.integers(0, 1 << cfg.lp_bits))
        for pos in window:  # agree with the light host on row i's index bits
            lp_s = (lp_s & ~(1 << pos)) | (lp_h & (1 << pos))
        heavy = (lp_s << cfg.r) | rp
        assert heavy != light
        heavies.append(heavy)
        heavy_host(st, heavy, 4096, rng)

    heavy_host(st, light, st.theta // 16, rng)

    restored = set(st.seav.restore().tolist())
    assert light in restored  # all four of its registers are hot by proxy
    reports = st.finalize_window()
    reported = {r.ip for r in reports}
    assert light not in reported
    assert set(heavies) <= reported


def test_lower_cutoff_never_removes_reports():
    st = fresh()
    rng = np.random.default_rng(30)
    for hip in rng.integers(0, 2**32, size=6, dtype=np.uint64).tolist():
        heavy_host(st, hip, int(rng.integers(700, 3000)), rng)
    strict = {r.ip for r in report_candidates(st.seav, st.ldca.estimate, st.theta, 0)}
    loose = {r.ip for r in report_candidates(st.seav, st.ldca.estimate, st.theta / 2, 0)}
    assert strict and strict <= loose


def planted(n_peers, seed):
    """A default-geometry state after one window of 200 hosts with exactly
    ``n_peers`` distinct peers each, and those hosts."""
    trace = generate_trace(TraceSpec(n_super=200, super_cardinality_range=(n_peers, n_peers),
                                     n_background=0, n_pairs=200 * n_peers, seed=seed))
    st = DetectorState.create(DetectorParams())
    st.process_batch(trace.hips, trace.oips)
    return st, set(trace.truth)


def test_cutoff_keeps_hosts_at_theta():
    # A host with exactly theta peers falls below the cutoff with
    # probability about Phi(-3) = 0.13 %: about 0.8 of ~580 candidates.
    kept = dropped = 0
    for seed in (1, 2, 3):
        st, hosts = planted(DetectorParams().theta, seed)
        candidates = hosts & set(st.seav.restore().tolist())
        reported = {r.ip for r in st.finalize_window()}
        assert reported <= hosts
        kept += len(candidates)
        dropped += len(candidates - reported)
    assert kept > 500 and dropped <= 3, (kept, dropped)


def test_cutoff_drops_hosts_at_nine_tenths_of_theta():
    # beta * theta with beta = 0.8 kept nearly all of these.
    st, hosts = planted(921, 1)
    assert len(hosts & set(st.seav.restore().tolist())) > 100
    assert st.finalize_window() == []


@pytest.mark.parametrize("knobs", [
    {"v": 0}, {"design_n": 0}, {"design_n": float("nan")},
    {"design_n": float("inf")}, {"restore_cap": 0}, {"lr": 0}, {"lr": -2},
    {"lr": 2, "v": 1}, {"lr": 9000}, {"sr": 1}, {"k": 12, "lr": 2},
], ids=lambda knobs: ",".join(f"{k}={v}" for k, v in knobs.items()))
def test_params_refuse_bad_knobs_at_construction(knobs):
    with pytest.raises(ConfigError):
        DetectorParams(**knobs)


def test_params_plan_rows_once():
    params = DetectorParams()
    assert (params.ldca_config().lr, params.ldca_config().lc) == (8, 1024)
    assert params.ldca_config() is params.ldca_config()
    assert params.seav_config() is params.seav_config()
    assert DetectorParams(lr=4).ldca_config().lc == 8192 // 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # union noise at the default design_n
def test_lr_and_v_spell_every_geometry():
    # Any LR x LC geometry is DetectorParams(lr=LR, v=LR*LC), with v // lr
    # recovering LC exactly, whether or not LC is a power of two.
    for lr, lc, k in itertools.product((1, 2, 3, 8, 13), (1, 5, 64, 1000, 1024), (8, 4096)):
        cfg = DetectorParams(lr=lr, v=lr * lc, k=k).ldca_config()
        assert cfg == LdcaConfig(lr, lc, k, seed=DEFAULT_MASTER_SEED), (lr, lc, k)
    # A v that lr does not divide drops the remainder: 8190 registers at lr=3.
    assert DetectorParams(lr=3).ldca_config() == LdcaConfig(3, 2730, 8192,
                                                            seed=DEFAULT_MASTER_SEED)
    assert DetectorParams(lr=3).ldca_config().memory_bytes() == 8190 * 8192 // 8


def test_reports_come_from_restore_only():
    st = fresh()
    rng = np.random.default_rng(31)
    for hip in rng.integers(0, 2**32, size=4, dtype=np.uint64).tolist():
        heavy_host(st, hip, 2048, rng)
    candidates = set(st.seav.restore().tolist())
    assert {r.ip for r in st.finalize_window()} <= candidates


def test_reset_clears_and_advances_window():
    st = fresh()
    rng = np.random.default_rng(9)
    heavy_host(st, 0x0A000002, 2048, rng)
    mem_before = st.memory_bytes()
    st.reset()
    assert st.window_id == 1
    assert st.finalize_window() == []
    assert st.memory_bytes() == mem_before
    assert np.bitwise_count(st.seav.flat).sum() == 0
    assert int(np.unpackbits(st.ldca.data).sum()) == 0


def test_replay_after_reset_is_bit_identical():
    rng = np.random.default_rng(10)
    hips = rng.integers(0, 2**32, size=5000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=5000, dtype=np.uint64)
    st = fresh()
    st.process_batch(hips, oips)
    first_rows = [r.copy() for r in st.seav.rows]
    first_data = st.ldca.data.copy()
    st.reset()
    st.process_batch(hips, oips)
    assert all((x == y).all() for x, y in zip(first_rows, st.seav.rows))
    assert (first_data == st.ldca.data).all()


def test_end_to_end_determinism():
    rng = np.random.default_rng(12)
    hips = rng.integers(0, 2**32, size=20_000, dtype=np.uint64)
    oips = rng.integers(0, 2**32, size=20_000, dtype=np.uint64)
    hips[:4096] = 0x7F000001
    runs = []
    for _ in range(2):
        st = fresh()
        st.process_batch(hips, oips)
        runs.append(st.finalize_window())
    assert runs[0] == runs[1]



def test_split_windows_keeps_stream_order():
    slices = np.array([5, 0, 3, 9, 1, 4, 0], dtype=np.uint32)
    windows = [(wid, sel.tolist()) for wid, sel in split_windows(slices, 3)]
    assert windows == [(0, [1, 4, 6]), (1, [0, 2, 5]), (3, [3])]
    with pytest.raises(ConfigError):
        next(split_windows(slices, 0))
