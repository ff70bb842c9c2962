"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Seeded experiments pin their tolerances here; nothing is deferred to
later calibration.
"""

import ast
import inspect
import textwrap
import time
from contextlib import contextmanager

import numpy as np
import pytest

import sspd.hashing
import sspd.long_sketch
import sspd.short_sketch
import sspd.sliding
import sspd.window_detector
from sspd.cli import RunConfig, write_reports
from sspd.distributed import simulate_window
from sspd.evaluation import ExactOracle, TraceSpec, generate_trace, metrics
from sspd.hashing import SeedFamily
from sspd.long_sketch import LdcaConfig, LdcaSketch, plan_rows, psu
from sspd.short_sketch import SeavConfig
from sspd.sliding import SlidingDetector
from sspd.window_detector import DetectorParams, DetectorState

import oracles
from oracles import lp_from_indexes, materialize_ldca, union_register


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {name}")
        raise
    print(f"criterion {number:2d} PASS  {name}")


@pytest.fixture(scope="module")
def accuracy_trace():
    spec = TraceSpec(n_super=50, super_cardinality_range=(2048, 2048),
                     n_background=100_000, background_cardinality_range=(1, 8),
                     n_pairs=1_000_000, slices=1, seed=20_260_810)
    return generate_trace(spec)


def test_criterion_01_index_round_trip():
    with criterion(1, "index round trip exact for 1e5 random left parts"):
        cfg = SeavConfig()  # defaults: r=4, SR=4, a=2
        rng = np.random.default_rng(101)
        lps = rng.integers(0, 1 << cfg.lp_bits, size=100_000, dtype=np.uint64)
        per_row = [cfg.index_of_array(i, lps).tolist() for i in range(cfg.sr)]
        lps_list = lps.tolist()
        exact = sum(
            lp_from_indexes(cfg, [per_row[i][j] for i in range(cfg.sr)]) == lps_list[j]
            for j in range(len(lps_list)))
        assert exact == len(lps_list)


def test_criterion_02_shard_merge_equivalence(accuracy_trace, tmp_path):
    with criterion(2, "1/4/16 watch points, both routings: bit-identical merge"):
        params = DetectorParams()
        start = time.monotonic()
        runs = {}
        runs[("single", 1)] = simulate_window(params, 0, accuracy_trace.hips,
                                              accuracy_trace.oips, 1)
        for route in ("hash", "round-robin"):
            for n_wp in (4, 16):
                runs[(route, n_wp)] = simulate_window(
                    params, 0, accuracy_trace.hips, accuracy_trace.oips,
                    n_wp, route=route)
        elapsed = time.monotonic() - start

        ref = runs[("single", 1)]
        csv_bytes = {}
        for key, res in runs.items():
            assert all((x == y).all() for x, y in
                       zip(ref.global_seav.rows, res.global_seav.rows)), key
            assert (ref.global_ldca.data == res.global_ldca.data).all(), key
            out = tmp_path / f"{key[0]}_{key[1]}.csv"
            write_reports(out, "discrete", RunConfig().detection_fields(),
                          res.reports, [0])
            csv_bytes[key] = out.read_bytes()
        assert len(set(csv_bytes.values())) == 1, "report CSVs differ across topologies"
        assert elapsed < 60.0, f"shard/merge experiment took {elapsed:.1f}s"


def test_criterion_03_synthetic_accuracy(accuracy_trace):
    with criterion(3, "50 planted supers in 1e6 pairs: FNR<=5%, FPR<=5%, FTR<=8%"):
        state = DetectorState.create(DetectorParams())
        hips, oips = accuracy_trace.hips, accuracy_trace.oips
        for lo in range(0, len(hips), 1 << 16):
            state.process_batch(hips[lo:lo + (1 << 16)], oips[lo:lo + (1 << 16)])
        detected = [r.ip for r in state.finalize_window()]
        truth = ExactOracle(hips, oips).superpoints(1024)
        assert len(truth) == 50
        fpr, fnr, ftr = metrics(detected, truth)
        assert fnr <= 0.05, f"FNR {fnr}"
        assert fpr <= 0.05, f"FPR {fpr}"
        assert ftr <= 0.08, f"FTR {ftr}"


def test_criterion_04_estimator_error():
    with criterion(4, "distinct-count estimator: mean error <=5%, bias <=2% "
                      "(k=8192, n=1024, 200 trials)"):
        k, n, trials = 8192, 1024, 200
        rng = np.random.default_rng(404)
        rel, signed = [], []
        for t in range(trials):
            sk = LdcaSketch(LdcaConfig(lr=1, lc=1, k=k), SeedFamily(master_seed=9000 + t))
            oips = np.unique(rng.integers(0, 2**32, size=n + 64, dtype=np.uint64))[:n]
            sk.update_batch(np.zeros(n, dtype=np.uint64), oips)
            (est,), (saturated,) = sk.estimate(np.zeros(1, dtype=np.uint64))
            assert not saturated
            rel.append(abs(est - n) / n)
            signed.append((est - n) / n)
        assert float(np.mean(rel)) <= 0.05
        assert abs(float(np.mean(signed))) <= 0.02


def test_criterion_05_union_fill_probability():
    with criterion(5, "union fill within +-0.01 of prediction "
                      "(k=1024, N=1e5, LC=128, LR in 1..3)"):
        k, n, lc = 1024, 100_000, 128
        for lr in (1, 2, 3):
            rng = np.random.default_rng(500 + lr)
            sk = LdcaSketch(LdcaConfig(lr=lr, lc=lc, k=k), SeedFamily())
            hips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
            oips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
            sk.update_batch(hips, oips)
            probes = rng.integers(0, 2**32, size=512, dtype=np.uint64)
            fill = float(np.mean([
                np.unpackbits(union_register(sk, int(p))).sum() / k for p in probes]))
            predicted = psu(k, n, lc, lr)
            assert abs(fill - predicted) <= 0.01, (lr, fill, predicted)


def test_criterion_06_planner_minimality():
    with criterion(6, "planned row count beats both integer neighbors (5 configs)"):
        triples = [(1024, 1e5, 1024), (1024, 3e5, 1024), (1024, 5e5, 4096),
                   (1024, 1e6, 8192), (2048, 3e5, 1024)]
        for v, n, k in triples:
            lr, _ = plan_rows(v, n, k, max_rows=None)
            here = psu(k, n, v / lr, lr)
            assert lr + 1 >= 2
            assert here <= psu(k, n, v / (lr + 1), lr + 1), (v, n, k)
            if lr > 1:
                assert here <= psu(k, n, v / (lr - 1), lr - 1), (v, n, k)


def _boundary_params():
    return DetectorParams(theta=1024, k=8192, lr=2, v=32, design_n=1024)


def test_criterion_07_sliding_catches_boundary_straddler():
    with criterion(7, "512+512 host straddling a window boundary: discrete "
                      "misses, sliding hits"):
        params = _boundary_params()
        w = 10
        rng = np.random.default_rng(700)
        hip = 0xAC10FE01
        first = np.unique(rng.integers(0, 2**31, size=560, dtype=np.uint64))[:512]
        second = np.unique(rng.integers(2**31, 2**32, size=560, dtype=np.uint64))[:512]

        # Back-to-back discrete windows see 512 distinct each: no report.
        for half in (first, second):
            st = DetectorState.create(params)
            st.process_batch(np.full(512, hip, dtype=np.uint64), half)
            assert st.finalize_window() == []

        det = SlidingDetector(params, window_slices=w)
        sliding_hits = set()
        for s in range(16):
            if 5 <= s < 10:
                chunk = first[(s - 5) * 103:(s - 4) * 103 + (s == 9) * 97]
            elif 10 <= s < 15:
                chunk = second[(s - 10) * 103:(s - 9) * 103 + (s == 14) * 97]
            else:
                chunk = np.array([], dtype=np.uint64)
            if len(chunk):
                det.observe_batch(np.full(len(chunk), hip, dtype=np.uint64), chunk)
            sliding_hits |= {(s, r.ip) for r in det.detect()}
            det.advance_slice()
        assert (14, hip) in sliding_hits  # the slide spanning slices 5..14


def test_criterion_08_sliding_discrete_equivalence():
    with criterion(8, "one slide per window == discrete detection, bit-exact"):
        params = DetectorParams(theta=1024, k=8192, lr=2, v=1024, design_n=3e4)
        w = 15
        rng = np.random.default_rng(800)
        n = 30_000
        hips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
        oips = rng.integers(0, 2**32, size=n, dtype=np.uint64)
        hips[:3000] = 0x0A0B0C0D
        hips[3000:4000] = 0x0A0B0C0E
        slices = rng.integers(0, w, size=n)

        discrete = DetectorState.create(params)
        discrete.process_batch(hips, oips)
        discrete_reports = discrete.finalize_window()

        det = SlidingDetector(params, window_slices=w)
        for s in range(w):
            sel = slices == s
            det.observe_batch(hips[sel], oips[sel])
            if s < w - 1:
                det.advance_slice()
        view = det.materialize_seav()
        assert all((x == y).all() for x, y in zip(view.rows, discrete.seav.rows))
        assert (materialize_ldca(det) == discrete.ldca.data).all()
        sliding_reports = det.detect()
        assert ([(r.ip, r.estimated_cardinality, r.saturated) for r in sliding_reports]
                == [(r.ip, r.estimated_cardinality, r.saturated) for r in discrete_reports])
        assert len(discrete_reports) >= 1


def test_criterion_09_memory_accounting():
    with criterion(9, "register memory matches the closed-form byte counts"):
        state = DetectorState.create(DetectorParams())
        seav_bytes, ldca_bytes = state.memory_bytes()
        cfg = state.seav.config
        assert seav_bytes == (1 << cfg.r) * sum(cfg.sc) * cfg.g // 8 == 32768
        lcfg = state.ldca.config
        assert ldca_bytes == lcfg.lr * lcfg.lc * lcfg.k // 8 == 8 * 1024 * 1024
        assert sum(rows.nbytes for rows in state.seav.rows) == seav_bytes
        assert state.ldca.data.nbytes == ldca_bytes
        alt = SeavConfig(r=2, sr=3, a=2, theta=512, g=8)
        assert alt.memory_bytes() == (1 << 2) * sum(alt.sc) * 1


# --- criterion 10: no floating point on the scanning path ---------------------

SCAN_PATH = [
    (sspd.hashing, "mix64"), (sspd.hashing, "_mix64_in_place"),
    (sspd.hashing, "derive_seed"), (sspd.hashing, "hash64_array"),
    (sspd.hashing, "hash_full_array"), (sspd.hashing, "hash_range_array"),
    (sspd.hashing, "lsb_at_least"),
    (sspd.short_sketch, "_rotate_right"),
    (sspd.short_sketch, "SeavConfig.index_of_array"),
    (sspd.short_sketch, "SeavConfig.registers"),
    (sspd.short_sketch, "SeavConfig.addresses"),
    (sspd.short_sketch, "SeavSketch.update_batch"),
    (sspd.long_sketch, "LdcaConfig.registers"),
    (sspd.long_sketch, "LdcaConfig.addresses"),
    (sspd.long_sketch, "LdcaSketch.update_batch"),
    (sspd.window_detector, "DetectorState.process_batch"),
    (sspd.sliding, "TimestampPool.touch_batch"),
    (sspd.sliding, "TimestampPool.advance_slice"),
    (sspd.sliding, "SlidingDetector.observe_batch"),
    # The scalar oracles the tests hold the scanning path to.
    (oracles, "mix64_array"),
    (oracles, "hash64"), (oracles, "hash_full"), (oracles, "hash_range"),
    (oracles, "lsb"), (oracles, "ShortEstimator.update"), (oracles, "index_of"),
    (oracles, "Ldc.update"), (oracles, "row_column"), (oracles, "touch"),
]

FORBIDDEN_CALLS = {"log", "log2", "log10", "exp", "sqrt", "sin", "cos",
                   "mean", "average", "divide", "true_divide", "float32",
                   "float64", "float_", "double"}


def _resolve(module, qualname):
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _assert_integer_only_source(fn, label):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            raise AssertionError(f"{label}: true division on the scanning path")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            raise AssertionError(f"{label}: float constant {node.value!r}")
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_CALLS:
            raise AssertionError(f"{label}: forbidden call .{node.attr}")
        if isinstance(node, ast.Name) and node.id == "math":
            raise AssertionError(f"{label}: math module used on the scanning path")


class _GuardedCallable:
    def __init__(self, fn, log):
        self._fn = fn
        self._log = log

    def __call__(self, *args, **kwargs):
        out = self._fn(*args, **kwargs)
        if isinstance(out, (np.ndarray, np.generic)) and out.dtype.kind in "fc":
            raise AssertionError(
                f"floating result from numpy call {self._fn!r}: dtype {out.dtype}")
        self._log.append(self._fn)
        return out

    def __getattr__(self, name):
        val = getattr(self._fn, name)
        return _GuardedCallable(val, self._log) if callable(val) else val


class _IntegerOnlyNumpy:
    def __init__(self, real, log):
        self._real = real
        self._log = log

    def __getattr__(self, name):
        val = getattr(self._real, name)
        if isinstance(val, type):  # dtype/type objects must pass through intact
            return val
        return _GuardedCallable(val, self._log) if callable(val) else val


def test_criterion_10_no_floats_while_scanning(monkeypatch):
    with criterion(10, "scanning path is pure integer (static audit + "
                       "guarded numpy run)"):
        for module, qualname in SCAN_PATH:
            _assert_integer_only_source(_resolve(module, qualname),
                                        f"{module.__name__}.{qualname}")

        calls: list = []
        guard_modules = [sspd.hashing, sspd.short_sketch, sspd.long_sketch,
                         sspd.window_detector, sspd.sliding]
        for mod in guard_modules:
            monkeypatch.setattr(mod, "np", _IntegerOnlyNumpy(np, calls))

        params = DetectorParams(k=4096, lr=2, v=64, design_n=2e3)
        state = DetectorState.create(params)
        rng = np.random.default_rng(1000)
        hips = rng.integers(0, 2**32, size=20_000, dtype=np.uint64)
        oips = rng.integers(0, 2**32, size=20_000, dtype=np.uint64)
        state.process_batch(hips, oips)
        for j in range(200):  # batches of one pair
            state.process_batch(hips[j:j + 1], oips[j:j + 1])

        det = SlidingDetector(params, window_slices=8)
        det.observe_batch(hips[:5000], oips[:5000])
        det.advance_slice()
        det.observe_batch(hips[5000:5001], oips[5000:5001])
        assert calls, "guard saw no numpy activity; patch ineffective"

        # Sketch state itself is integer-typed.
        assert all(rows.dtype.kind == "u" for rows in state.seav.rows)
        assert state.ldca.data.dtype.kind == "u"
        assert det.pool.ts.dtype.kind == "u"
