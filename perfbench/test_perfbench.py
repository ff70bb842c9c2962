"""Tests of the benchmark itself: a tiny-size pass of every workload, and
proof that the output checks reject wrong answers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import sspd  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import check_window, truth_of  # noqa: E402

TINY = {
    "steady": workloads.WindowSpec(super_hosts=5, super_peers=(1536, 3000),
                                   background_hosts=2000, background_peers=(1, 8),
                                   pairs=40_000, windows=2, batch=8192),
    "flood": workloads.WindowSpec(super_hosts=60, super_peers=(1088, 1216),
                                  background_hosts=2000, background_peers=(1, 8),
                                  pairs=90_000, windows=2, batch=8192),
    "distsim": workloads.DistSpec(super_hosts=5, super_peers=(1536, 3000),
                                  background_hosts=2000, background_peers=(1, 8),
                                  pairs=40_000, windows=2, batch=8192, watch_points=4),
    "sliding": workloads.SlidingSpec(window_slices=20, active_slices=50, detect_every=10,
                                     background_hosts=2000, background_pairs_per_slice=200,
                                     persistent_hosts=3, persistent_rate=(100, 150),
                                     burst_hosts=3, burst_peers=(1500, 2500)),
}

SCAN = ["hashing.hash_full_array_s", "hashing.hash_range_array_s",
        "short_sketch.update_batch_s", "long_sketch.update_batch_s",
        "window_detector.process_batch_s"]
REPORT = ["short_sketch.restore_s", "short_sketch.candidates", "long_sketch.estimate_s",
          "window_detector.finalize_window_s", "window_detector.accepted_per_candidate"]
SLIDE = ["hashing.hash_full_array_s", "hashing.hash_range_array_s", "short_sketch.restore_s",
         "sliding.observe_batch_s", "sliding.advance_slice_s", "sliding.detect_s",
         "sliding.materialize_seav_s", "sliding.pool_active_s",
         "sliding.materialize_ldca_cell_s"]
DIST = ["distributed.simulate_window_s", "distributed.route_pairs_s",
        "distributed.serialize_s", "distributed.parse_frame_s", "distributed.merge_frames_s",
        "distributed.frame_bytes"]
ON_PATH = {"steady": SCAN + REPORT, "flood": SCAN + REPORT, "sliding": SLIDE,
           "distsim": SCAN + REPORT + DIST}
# Modules a workload never calls: each of their metrics must read 0.
OFF_PATH = {"steady": ("sliding.", "distributed."), "flood": ("sliding.", "distributed."),
            "sliding": ("long_sketch.", "window_detector.", "distributed."),
            "distsim": ("sliding.",)}


def test_benchmark_json_names_every_workload_and_layer():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SPECS)
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b}
                                  for n, u, b, _, _ in tracing.PER_LAYER]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_pass(name, traced):
    spec = TINY[name]
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install(sspd)
    try:
        result = workloads.run(name, sspd, spec.build(sspd), seed=3, seconds=0,
                               tracer=tracer, spec=spec)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert result.problems == []
    assert result.attempted > 0 and result.failed == 0
    assert result.superpoints_found > 0 and result.state_bytes > 0
    if tracer is None:
        assert result.latencies and result.rates
        return
    # Two rounds, every position once traced and once untraced.
    assert len(result.traced_rates) == len(result.rates) > 0
    layers = tracer.per_layer(result.traced_rates, result.rates)
    for metric in ON_PATH[name]:
        assert layers[metric]["value"] > 0, metric
    for metric, value in layers.items():
        if metric.startswith(OFF_PATH[name]):
            assert value["value"] == 0, metric
    assert tracer.spans and all(end >= start for *_, start, end in tracer.spans)


def test_tracer_restores_the_program():
    original = sspd.short_sketch.hash_range_array, sspd.SeavSketch.update_batch
    tracer = tracing.Tracer()
    tracer.install(sspd)
    assert sspd.short_sketch.hash_range_array is not original[0]
    tracer.uninstall()
    assert (sspd.short_sketch.hash_range_array, sspd.SeavSketch.update_batch) == original


@pytest.fixture(scope="module")
def window():
    """One tiny steady window, its truth and its (correct) reports."""
    spec = TINY["steady"]
    hips, oips = workloads.make_window(np.random.default_rng(5), spec)
    state = spec.build(sspd)
    state.process_batch(hips, oips)
    return hips, oips, truth_of(hips, oips), state.finalize_window(), state.theta


def test_checks_accept_the_detector(window):
    hips, oips, truth, reports, theta = window
    problems, found = check_window(reports, truth, theta)
    assert problems == [] and found == len(truth.superpoints(theta)) == 5


def test_checks_reject_a_dropped_super_point(window):
    _, _, truth, reports, theta = window
    problems, _ = check_window(reports[1:], truth, theta)
    assert any("recall" in p for p in problems)


def test_checks_reject_an_added_background_host(window):
    hips, _, truth, reports, theta = window
    light = next(ip for ip in hips.tolist() if 0 < truth.count(ip) < 10)
    fake = dataclasses.replace(reports[0], ip=light)
    problems, _ = check_window(sorted(reports + [fake], key=lambda r: r.ip), truth, theta)
    assert any("below theta" in p for p in problems)


def test_checks_reject_an_estimate_off_by_20_percent(window):
    _, _, truth, reports, theta = window
    off = dataclasses.replace(reports[0], estimated_cardinality=reports[0].estimated_cardinality * 1.2)
    problems, _ = check_window([off] + reports[1:], truth, theta)
    assert any("off its" in p for p in problems)


def test_checks_reject_unsorted_reports(window):
    _, _, truth, reports, theta = window
    problems, _ = check_window(reports[::-1], truth, theta)
    assert any("sorted" in p for p in problems)


def test_truth_counts_distinct_peers():
    hips = np.array([1, 1, 1, 2, 2, 3], dtype=np.uint32)
    oips = np.array([7, 7, 8, 7, 9, 9], dtype=np.uint32)
    truth = truth_of(hips, oips)
    assert [truth.count(ip) for ip in (1, 2, 3, 4)] == [2, 2, 1, 0]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "steady",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
