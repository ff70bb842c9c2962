"""Seeded inputs and closed-loop timed runs of the four workloads.

Every input is drawn here with numpy from the run's seed; the detector
receives only the generated (host IP, opposite IP) pairs, as uint32 arrays
like the ones the sspd trace reader returns.  One thread drives the
detector and hands in the next batch when the previous call returns.

The inputs and their truths are made in a forked child process and stored
in a temporary folder under out/; the run loads one window at a time, so
its peak RSS holds one window's input, not the making of all of them.

A run replays a fixed round of distinct windows (or, for sliding, of
detection intervals) over and over until ``seconds`` have passed, and
always finishes its first round.  A traced run does exactly two rounds,
whatever ``seconds``, so its totals cover a fixed amount of work.  Every
window's reports are checked outside the timed regions; a replayed window
must also give the reports of its first pass.
"""

from __future__ import annotations

import multiprocessing
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import Truth, check_window, report_key, truth_of

OUT = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class WindowSpec:
    """Discrete windows: planted heavy hosts among light background hosts.

    Every distinct pair is sent once, the rest of ``pairs`` are repeats of
    uniformly drawn distinct pairs, and the window is shuffled.
    """

    super_hosts: int
    super_peers: tuple[int, int]
    background_hosts: int
    background_peers: tuple[int, int]
    pairs: int
    windows: int                  # distinct windows in one round
    batch: int = 64 * 1024

    def build(self, sspd):
        return sspd.DetectorState.create(sspd.DetectorParams())


@dataclass(frozen=True)
class DistSpec(WindowSpec):
    watch_points: int = 16

    def build(self, sspd):
        # Watch-point states are built inside simulate_window, once per window.
        params = sspd.DetectorParams()
        params.seav_config()
        params.ldca_config()
        return params


@dataclass(frozen=True)
class SlidingSpec:
    """A per-slice stream; detection every ``detect_every`` slices once the
    first full window is in, up to the last active slice.  Then the stream
    idles until the timestamp pool has swept once, which expires all state,
    and the round starts again."""

    window_slices: int = 300
    active_slices: int = 660
    detect_every: int = 20
    background_hosts: int = 100_000
    background_peers: tuple[int, int] = (1, 8)
    background_pairs_per_slice: int = 4000
    persistent_hosts: int = 16
    persistent_rate: tuple[int, int] = (8, 16)      # fresh peers per slice
    burst_hosts: int = 12
    burst_peers: tuple[int, int] = (2500, 5000)     # all in one slice
    batch: int = 64 * 1024                          # discrete comparison only

    def build(self, sspd):
        return sspd.SlidingDetector(sspd.DetectorParams(), window_slices=self.window_slices)

    def detect_slices(self) -> list[int]:
        return list(range(self.window_slices - 1, self.active_slices, self.detect_every))


SPECS = {
    "steady": WindowSpec(super_hosts=40, super_peers=(1536, 6144),
                         background_hosts=100_000, background_peers=(1, 8),
                         pairs=1_500_000, windows=12),
    "flood": WindowSpec(super_hosts=400, super_peers=(1088, 1216),
                        background_hosts=20_000, background_peers=(1, 8),
                        pairs=700_000, windows=16),
    "sliding": SlidingSpec(),
    "distsim": DistSpec(super_hosts=40, super_peers=(1536, 6144),
                        background_hosts=20_000, background_peers=(1, 8),
                        pairs=300_000, windows=4, watch_points=16),
}


def distinct_u32(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct uniform 32-bit values in random order."""
    out = np.unique(rng.integers(0, 1 << 32, size=n, dtype=np.uint32))
    while len(out) < n:
        more = rng.integers(0, 1 << 32, size=n - len(out), dtype=np.uint32)
        out = np.unique(np.concatenate([out, more]))
    rng.shuffle(out)
    return out[:n]


def make_window(rng: np.random.Generator, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    hosts = distinct_u32(rng, spec.super_hosts + spec.background_hosts)
    peers = np.concatenate([
        rng.integers(spec.super_peers[0], spec.super_peers[1] + 1, size=spec.super_hosts),
        rng.integers(spec.background_peers[0], spec.background_peers[1] + 1,
                     size=spec.background_hosts)])
    hips = np.repeat(hosts, peers)
    oips = rng.integers(0, 1 << 32, size=len(hips), dtype=np.uint32)
    if spec.pairs < len(hips):
        raise ValueError(f"{spec.pairs} pairs cannot carry {len(hips)} distinct pairs")
    repeat = rng.integers(0, len(hips), size=spec.pairs - len(hips))
    order = rng.permutation(spec.pairs)
    return (np.concatenate([hips, hips[repeat]])[order],
            np.concatenate([oips, oips[repeat]])[order])


def make_stream(rng: np.random.Generator, spec: SlidingSpec):
    """Pairs sorted by slice; slice s is hips[offsets[s]:offsets[s + 1]]."""
    n = spec.active_slices
    hosts = distinct_u32(rng, spec.background_hosts + spec.persistent_hosts + spec.burst_hosts)
    background = hosts[:spec.background_hosts]
    persistent = hosts[spec.background_hosts:spec.background_hosts + spec.persistent_hosts]
    bursts = hosts[spec.background_hosts + spec.persistent_hosts:]

    # Light hosts keep a fixed peer set; each slice samples it with repeats.
    peers = rng.integers(spec.background_peers[0], spec.background_peers[1] + 1,
                         size=len(background))
    pool_hips = np.repeat(background, peers)
    pool_oips = rng.integers(0, 1 << 32, size=len(pool_hips), dtype=np.uint32)
    pick = rng.integers(0, len(pool_hips), size=n * spec.background_pairs_per_slice)
    parts_h, parts_o = [pool_hips[pick]], [pool_oips[pick]]
    parts_s = [np.repeat(np.arange(n), spec.background_pairs_per_slice)]

    # Persistent heavy hosts meet fresh peers at a steady rate.
    for host, rate in zip(persistent, rng.integers(spec.persistent_rate[0],
                                                   spec.persistent_rate[1] + 1,
                                                   size=len(persistent))):
        parts_h.append(np.full(n * rate, host, dtype=np.uint32))
        parts_o.append(rng.integers(0, 1 << 32, size=n * rate, dtype=np.uint32))
        parts_s.append(np.repeat(np.arange(n), rate))

    # Burst scanners send all their peers in one slice, then fall silent.
    # One burst per equal stretch of the stream, so every seed puts about
    # as many bursts into each detection span.
    stretch = n // len(bursts)
    starts = np.arange(len(bursts)) * stretch + rng.integers(0, stretch, size=len(bursts))
    for host, count, at in zip(bursts,
                               rng.integers(spec.burst_peers[0], spec.burst_peers[1] + 1,
                                            size=len(bursts)),
                               starts):
        parts_h.append(np.full(count, host, dtype=np.uint32))
        parts_o.append(rng.integers(0, 1 << 32, size=count, dtype=np.uint32))
        parts_s.append(np.full(count, at))

    slices = np.concatenate(parts_s)
    shuffle = rng.permutation(len(slices))
    order = shuffle[np.argsort(slices[shuffle], kind="stable")]
    offsets = np.searchsorted(slices[order], np.arange(n + 1))
    return np.concatenate(parts_h)[order], np.concatenate(parts_o)[order], offsets


def write_inputs(spec, seed: int, folder: Path):
    """Make a run's inputs and truths from the seed and store them in folder."""
    rng = np.random.default_rng(seed)
    if isinstance(spec, SlidingSpec):
        hips, oips, offsets = make_stream(rng, spec)
        np.savez(folder / "stream.npz", hips=hips, oips=oips, offsets=offsets)
        for position, at in enumerate(spec.detect_slices()):
            span = slice(offsets[at + 1 - spec.window_slices], offsets[at + 1])
            truth = truth_of(hips[span], oips[span])
            np.savez(folder / f"truth{position}.npz", hosts=truth.hosts, counts=truth.counts)
        return
    for position in range(spec.windows):
        hips, oips = make_window(rng, spec)
        truth = truth_of(hips, oips)
        np.savez(folder / f"window{position}.npz", hips=hips, oips=oips,
                 hosts=truth.hosts, counts=truth.counts)
        if position == 0:
            order = rng.permutation(len(hips))
            np.savez(folder / "shuffled0.npz", hips=hips[order], oips=oips[order])


@contextmanager
def inputs(spec, seed: int):
    """A temporary folder holding the run's inputs, made in a child process."""
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs_") as name:
        folder = Path(name)
        child = multiprocessing.get_context("fork").Process(
            target=write_inputs, args=(spec, seed, folder))
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"making the inputs failed with exit code {child.exitcode}")
        yield folder


def load_window(folder: Path, position: int):
    """(hips, oips, truth) of one stored window."""
    with np.load(folder / f"window{position}.npz") as f:
        return f["hips"], f["oips"], Truth(hosts=f["hosts"], counts=f["counts"])


def load_truth(folder: Path, position: int) -> Truth:
    with np.load(folder / f"truth{position}.npz") as f:
        return Truth(hosts=f["hosts"], counts=f["counts"])


@dataclass
class Result:
    rates: list[float] = field(default_factory=list)          # pairs/s, untraced units
    traced_rates: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)      # untraced units
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    superpoints_found: int = 0
    state_bytes: int = 0

    def record(self, problems: list[str]):
        """Count one checked operation."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Loop:
    """Unit bookkeeping shared by the workloads: timing samples, which
    units a traced run traces, and the per-window checks."""

    def __init__(self, seconds: float, round_units: int, tracer, theta: int):
        self.seconds = seconds
        self.round_units = round_units
        self.tracer = tracer
        self.theta = theta
        self.unit = 0
        self.first_pass: dict[int, list] = {}
        self.result = Result()
        self.start = perf_counter()

    def more(self) -> bool:
        if self.tracer is not None:
            return self.unit < 2 * self.round_units
        return self.unit < self.round_units or perf_counter() - self.start < self.seconds

    def begin(self) -> bool:
        # Odd positions are traced in the first round and even ones in the
        # second, so the traced and untraced halves run the same windows.
        round_, position = divmod(self.unit, self.round_units)
        traced = self.tracer is not None and (position + round_) % 2 == 1
        if self.tracer is not None:
            self.tracer.unit = self.unit
            self.tracer.enabled = traced
        return traced

    def end(self, traced: bool, pairs: int, wall: float, latency: float):
        if self.tracer is not None:
            self.tracer.enabled = False
        if traced:
            self.result.traced_rates.append(pairs / wall)
        else:
            self.result.rates.append(pairs / wall)
            self.result.latencies.append(latency)
        self.unit += 1

    def check(self, position: int, reports, truth):
        """Check reports against the truth, and a replay against its first pass."""
        problems, found = check_window(reports, truth, self.theta)
        key = report_key(reports)
        if position not in self.first_pass:
            self.first_pass[position] = key
            self.result.superpoints_found += found
        elif key != self.first_pass[position]:
            problems.append(f"replay of window {position} changed its reports")
        self.result.record(problems)


def scan(state, hips: np.ndarray, oips: np.ndarray, batch: int):
    for s in range(0, len(hips), batch):
        state.process_batch(hips[s:s + batch], oips[s:s + batch])


def run_discrete(sspd, state, spec: WindowSpec, folder: Path, seconds: float, tracer,
                 shuffle_check: bool) -> Result:
    """steady and flood: DetectorState, windows back to back."""
    loop = Loop(seconds, spec.windows, tracer, state.theta)
    while loop.more():
        position = loop.unit % spec.windows
        hips, oips, truth = load_window(folder, position)
        traced = loop.begin()
        t0 = perf_counter()
        scan(state, hips, oips, spec.batch)
        t1 = perf_counter()
        reports = state.finalize_window()
        t2 = perf_counter()
        state.reset()
        loop.end(traced, len(hips), perf_counter() - t0, t2 - t1)
        loop.check(position, reports, truth)
        del hips, oips, truth

    result = loop.result
    result.state_bytes = sum(state.memory_bytes())
    if shuffle_check:
        # Stream order must not matter: window 0 again, in another order.
        with np.load(folder / "shuffled0.npz") as f:
            scan(state, f["hips"], f["oips"], spec.batch)
        same = report_key(state.finalize_window()) == loop.first_pass[0]
        state.reset()
        result.record([] if same else ["shuffled replay of window 0 changed its reports"])
    return result


def run_distsim(sspd, params, spec: WindowSpec, folder: Path, seconds: float, tracer) -> Result:
    """distsim: each window scanned by simulated watch points and OR-merged."""
    loop = Loop(seconds, spec.windows, tracer, params.theta)
    while loop.more():
        position = loop.unit % spec.windows
        hips, oips, truth = load_window(folder, position)
        traced = loop.begin()
        t0 = perf_counter()
        window = sspd.distributed.simulate_window(
            params, loop.unit, hips, oips, spec.watch_points, route="hash",
            buffer_pairs=spec.batch, threads=1)
        wall = perf_counter() - t0
        loop.end(traced, len(hips), wall, wall)
        if position not in loop.first_pass:
            loop.result.record(_merge_problems(sspd, params, spec, window, hips, oips))
            loop.result.state_bytes = _frame_bytes(sspd, params, window.frames)
        loop.check(position, window.reports, truth)
        del hips, oips, truth, window
    return loop.result


def _merge_problems(sspd, params, spec, window, hips, oips) -> list[str]:
    """OR-merge is exact: a single scanner must hold the same bits and reports."""
    single = sspd.DetectorState.create(params)
    scan(single, hips, oips, spec.batch)
    problems = []
    if not (all(np.array_equal(a, b) for a, b in zip(single.seav.rows, window.global_seav.rows))
            and np.array_equal(single.ldca.data, window.global_ldca.data)):
        problems.append(f"merged sketches of window {window.window_id} differ from one scanner")
    if report_key(single.finalize_window()) != report_key(window.reports):
        problems.append(f"merged reports of window {window.window_id} differ from one scanner")
    return problems


def _frame_bytes(sspd, params, frames) -> int:
    """Bytes of all frames one window ships: payloads plus the fixed-width
    frame envelope, measured on an empty sketch."""
    probe = sspd.DetectorState.create(params).seav
    envelope = len(sspd.serialize(probe, 0)) - len(probe.payload_bytes())
    return sum(len(f.payload) + envelope for f in frames)


def run_sliding(sspd, detector, spec: SlidingSpec, folder: Path, seconds: float,
                tracer) -> Result:
    """sliding: one SlidingDetector, pairs per slice, detect at a cadence."""
    with np.load(folder / "stream.npz") as f:
        hips, oips, offsets = f["hips"], f["oips"], f["offsets"]
    detects = spec.detect_slices()
    loop = Loop(seconds, len(detects), tracer, detector.params.theta)
    while loop.more():
        lo = 0
        for position, at in enumerate(detects):
            if not loop.more():
                break
            traced = loop.begin()
            t0 = perf_counter()
            for s in range(lo, at):
                detector.observe_batch(hips[offsets[s]:offsets[s + 1]],
                                       oips[offsets[s]:offsets[s + 1]])
                detector.advance_slice()
            detector.observe_batch(hips[offsets[at]:offsets[at + 1]],
                                   oips[offsets[at]:offsets[at + 1]])
            t1 = perf_counter()
            reports = detector.detect()
            t2 = perf_counter()
            detector.advance_slice()
            loop.end(traced, int(offsets[at + 1] - offsets[lo]), perf_counter() - t0, t2 - t1)

            if position == 0 and position not in loop.first_pass:
                span = slice(offsets[at + 1 - spec.window_slices], offsets[at + 1])
                loop.result.record(_discrete_problems(sspd, detector.params, spec, reports,
                                                     hips[span], oips[span]))
            loop.check(position, reports, load_truth(folder, position))
            lo = at + 1
        else:
            # Idle until the anti-alias sweep has run once; all state expires.
            sweeps = detector.pool.sweep_count
            while detector.pool.sweep_count == sweeps:
                detector.advance_slice()
    loop.result.state_bytes = detector.pool.memory_bytes()
    return loop.result


def _discrete_problems(sspd, params, spec, reports, hips, oips) -> list[str]:
    """Sliding equals discrete on the first full window."""
    state = sspd.DetectorState.create(params)
    scan(state, hips, oips, spec.batch)
    if report_key(state.finalize_window()) != report_key(reports):
        return ["first full sliding window differs from the discrete detector"]
    return []


def run(name: str, sspd, built, seed: int, seconds: float, tracer, spec=None) -> Result:
    spec = spec or SPECS[name]
    with inputs(spec, seed) as folder:
        if name == "sliding":
            return run_sliding(sspd, built, spec, folder, seconds, tracer)
        if name == "distsim":
            return run_distsim(sspd, built, spec, folder, seconds, tracer)
        return run_discrete(sspd, built, spec, folder, seconds, tracer,
                            shuffle_check=name == "steady")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
