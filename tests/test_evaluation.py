import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspd.errors import ConfigError, DataError, UndefinedMetricError
from sspd.evaluation import (
    ExactOracle,
    TraceSpec,
    generate_trace,
    ip_from_str,
    ip_to_str,
    metrics,
    metrics_report,
    read_trace,
    read_truth,
    truth_path,
    write_trace,
)

from oracles import cardinality, exact_cardinalities_dict


# --- oracle -------------------------------------------------------------------

def test_empty_trace_oracle():
    oracle = ExactOracle(np.array([], dtype=np.uint64), np.array([], dtype=np.uint64))
    assert oracle.superpoints(1) == []


def test_oracle_counts_distinct_only():
    hips = np.array([1, 1, 1, 2, 2], dtype=np.uint64)
    oips = np.array([9, 9, 8, 7, 7], dtype=np.uint64)
    oracle = ExactOracle(hips, oips)
    assert cardinality(oracle, 1) == 2
    assert cardinality(oracle, 2) == 1
    assert cardinality(oracle, 3) == 0
    assert oracle.superpoints(2) == [1]
    assert oracle.superpoints(1) == [1, 2]  # theta=1: every host seen as hip


def test_boundary_inclusion():
    hips = np.repeat(np.uint64(5), 10)
    oips = np.arange(10, dtype=np.uint64)
    oracle = ExactOracle(hips, oips)
    assert oracle.superpoints(10) == [5]  # "no less than" includes equality
    assert oracle.superpoints(11) == []


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                min_size=0, max_size=300))
def test_oracle_implementations_agree(pairs):
    hips = np.array([h for h, _ in pairs], dtype=np.uint64)
    oips = np.array([o for _, o in pairs], dtype=np.uint64)
    fast = ExactOracle(hips, oips)
    slow = exact_cardinalities_dict(hips, oips)
    assert {int(h): int(c) for h, c in zip(fast.hosts, fast.counts)} == slow
    for theta in (1, 2, 5):
        assert fast.superpoints(theta) == sorted(h for h, c in slow.items() if c >= theta)


# --- metrics ------------------------------------------------------------------

def test_perfect_detection():
    truth = list(range(50))
    assert metrics(truth, truth) == (0.0, 0.0, 0.0)


def test_one_fake_detection():
    truth = list(range(50))
    fpr, fnr, ftr = metrics(truth + [999], truth)
    assert fpr == pytest.approx(0.02)
    assert fnr == 0.0
    assert ftr == pytest.approx(0.02)


def test_two_missed():
    truth = list(range(50))
    fpr, fnr, ftr = metrics(truth[:-2], truth)
    assert fnr == pytest.approx(0.04)
    assert fpr == 0.0


def test_empty_truth_is_undefined():
    with pytest.raises(UndefinedMetricError):
        metrics([1, 2], [])


def test_fpr_denominator_is_truth_size():
    # 10 fakes against 5 true hosts: the rate exceeds 1 by design.
    fpr, _, _ = metrics(list(range(100, 110)), list(range(5)))
    assert fpr == pytest.approx(2.0)


def test_report_includes_labeled_precision():
    rep = metrics_report([1, 2, 3, 99], [1, 2, 3, 4])
    assert rep["precision_nonpaper"] == pytest.approx(3 / 4)
    assert rep["detected"] == 4 and rep["truth"] == 4


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 200), min_size=1, max_size=40),
       st.sets(st.integers(0, 200), max_size=40),
       st.integers(1, 2**20))
def test_metrics_invariant_under_relabeling(truth, detected, shift):
    base = metrics(sorted(detected), sorted(truth))
    relabel = lambda xs: [x * 2**10 + shift for x in xs]  # injective rename
    assert metrics(relabel(sorted(detected)), relabel(sorted(truth))) == base


# --- trace generation -----------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ConfigError):
        TraceSpec(super_cardinality_range=(0, 5))
    with pytest.raises(ConfigError):
        TraceSpec(background_cardinality_range=(8, 2))
    with pytest.raises(ConfigError):
        TraceSpec(slices=0)


def small_spec(**kw):
    base = dict(n_super=5, super_cardinality_range=(100, 120), n_background=200,
                background_cardinality_range=(1, 8), n_pairs=3000, slices=4, seed=7)
    base.update(kw)
    return TraceSpec(**base)


def test_generated_truth_matches_oracle_exactly():
    trace = generate_trace(small_spec())
    oracle = ExactOracle(trace.hips, trace.oips)
    assert {int(h): int(c) for h, c in zip(oracle.hosts, oracle.counts)} == trace.truth
    supers = oracle.superpoints(100)
    assert len(supers) == 5


def test_generation_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_trace(generate_trace(small_spec()), a)
    write_trace(generate_trace(small_spec()), b)
    assert a.read_bytes() == b.read_bytes()
    assert truth_path(a).read_text() == truth_path(b).read_text()


def test_different_seed_differs(tmp_path):
    a = generate_trace(small_spec())
    b = generate_trace(small_spec(seed=8))
    assert not np.array_equal(a.hips, b.hips)


def test_no_supers_spec():
    trace = generate_trace(small_spec(n_super=0, n_pairs=2000))
    oracle = ExactOracle(trace.hips, trace.oips)
    assert oracle.superpoints(100) == []


def test_boundary_cardinality_host_is_super():
    trace = generate_trace(small_spec(super_cardinality_range=(100, 100)))
    oracle = ExactOracle(trace.hips, trace.oips)
    assert len(oracle.superpoints(100)) == 5


def test_pair_budget_checked():
    with pytest.raises(ConfigError):
        generate_trace(small_spec(n_pairs=10))


def test_slices_in_range():
    trace = generate_trace(small_spec())
    assert trace.slices.min() >= 0
    assert trace.slices.max() < 4


# --- file formats ----------------------------------------------------------------

def test_binary_round_trip(tmp_path):
    trace = generate_trace(small_spec())
    path = tmp_path / "t.bin"
    write_trace(trace, path)
    back = read_trace(path)
    assert (back.slices == trace.slices).all()
    assert (back.hips == trace.hips).all()
    assert (back.oips == trace.oips).all()
    assert path.stat().st_size == 12 * len(trace)


def test_text_round_trip(tmp_path):
    trace = generate_trace(small_spec(n_background=20, n_super=2, n_pairs=400))
    path = tmp_path / "t.txt"
    write_trace(trace, path)
    first = path.read_text().splitlines()[0]
    assert len(first.split(",")) == 3
    back = read_trace(path)
    assert (back.hips == trace.hips).all()
    assert (back.oips == trace.oips).all()


def test_truth_sidecar_round_trip(tmp_path):
    trace = generate_trace(small_spec())
    path = tmp_path / "t.bin"
    write_trace(trace, path)
    loaded = read_truth(truth_path(path))
    assert loaded == trace.truth
    lines = truth_path(path).read_text().splitlines()
    assert lines == sorted(lines, key=lambda l: ip_from_str(l.split()[0]))


def test_corrupt_binary_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 13)
    with pytest.raises(DataError):
        read_trace(path)


def test_ip_string_round_trip():
    for ip in (0, 1, 0xC0A80101, 2**32 - 1):
        assert ip_from_str(ip_to_str(ip)) == ip
    assert ip_to_str(0xC0A80101) == "192.168.1.1"
