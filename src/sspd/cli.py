"""Operator entry point.

Subcommands: generate, detect, slide, distsim, eval, plan.  Every output
file starts with `#`-prefixed header lines echoing the resolved run
configuration, so identical invocations produce byte-identical files.

Exit codes: 0 ok, 2 configuration error, 3 data error (a register array
that restore skipped included: the report file is written, with an
`# overflowed_arrays=` header line naming it), 4 internal assertion.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .distributed import DEFAULT_BUFFER_PAIRS, simulate_window
from .errors import ConfigError, DataError, SspdError
from .evaluation import (
    TraceSpec,
    generate_trace,
    ip_from_str,
    ip_to_str,
    metrics_report,
    parse_lines,
    read_trace,
    read_truth,
    truth_path,
    write_trace,
)
from .long_sketch import DEFAULT_MAX_ROWS, filter_cutoff, noise_factor, plan_rows
from .sliding import SlidingDetector
from .window_detector import DetectionReport, DetectorParams, DetectorState, split_windows

REPORT_COLUMNS = "window_id,ip,estimated_cardinality,saturated"
METRIC_COLUMNS = "window_id,FPR,FNR,FTR,detected,truth"

# Sketch knob defaults: DetectorParams holds them, the flags read them.
DEFAULTS = DetectorParams()
# Trace defaults: TraceSpec holds them, the generate flags read them.
SPEC = TraceSpec()
# Most slices a slide run lists: listing and writing 2^20 ids takes 130 MB.
MAX_SLIDES = 1 << 20


@dataclass(frozen=True)
class RunConfig:
    """Resolved flags for one invocation: the detector's knobs plus the
    knobs of the run that drives it.  Construction validates the run
    knobs, so a bad value fails before any trace is read."""

    params: DetectorParams = field(default_factory=DetectorParams)
    window_slices: int = 300
    detect_every: int = 1
    n_wp: int = 4
    route: str = "hash"

    def __post_init__(self):
        for name in ("window_slices", "detect_every", "n_wp"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.window_slices >= 1 << 63:
            raise ConfigError(f"window_slices must be below 2^63, got {self.window_slices}")

    def detection_fields(self) -> dict[str, object]:
        """Fields that determine detection output (topology knobs excluded,
        so sharded and single-node runs of the same trace emit identical
        report files)."""
        p = self.params
        ldca = p.ldca_config()
        return {
            "seed": f"0x{p.master_seed:X}",
            "theta": p.theta,
            "cutoff": f"{filter_cutoff(p.theta, p.k):.6f}",
            "r": p.r,
            "sr": p.sr,
            "a": p.a,
            "g": p.g,
            "k": p.k,
            "lr": ldca.lr,
            "lc": ldca.lc,
            "design_n": f"{p.design_n:g}",
            "window_slices": self.window_slices,
            "restore_cap": p.restore_cap,
            "seav_bytes": p.seav_config().memory_bytes(),
            "ldca_bytes": ldca.memory_bytes(),
        }

    def topology_fields(self) -> dict[str, object]:
        return {"n_wp": self.n_wp, "route": self.route}


# Run knob defaults: RunConfig holds them, the flags read them.  A
# subcommand's flags set the RUN_KNOBS it has; the rest keep these.
RUN = RunConfig()
RUN_KNOBS = frozenset(f.name for f in fields(RunConfig)) - {"params"}


def header_lines(command: str, fields: dict[str, object]) -> list[str]:
    lines = [f"# sspd {command}"]
    lines += [f"# {key}={fields[key]}" for key in sorted(fields)]
    return lines


def format_report_row(rep: DetectionReport) -> str:
    return (f"{rep.window_id},{ip_to_str(rep.ip)},"
            f"{rep.estimated_cardinality:.6f},{int(rep.saturated)}")


def write_reports(path: Path, report_kind: str, fields: dict[str, object],
                  reports: list[DetectionReport], windows: list[int],
                  overflowed: dict[int, list[int]] | None = None):
    """Write a report file.  ``overflowed`` maps a window to the register
    arrays restore skipped in it; a non-empty one adds an
    `# overflowed_arrays=<window>:<rp>,<rp> ...` line."""
    # Keyed by report kind, not subcommand: a sharded run and a single-node
    # run of the same trace must produce byte-identical files.
    lines = header_lines(f"report kind={report_kind}", fields)
    lines.append(f"# windows={' '.join(str(w) for w in windows)}")
    if overflowed:
        lines.append(f"# overflowed_arrays={format_overflowed(overflowed)}")
    lines.append(REPORT_COLUMNS)
    lines += [format_report_row(r) for r in reports]
    path.write_text("\n".join(lines) + "\n")


def format_overflowed(overflowed: dict[int, list[int]]) -> str:
    return " ".join(f"{w}:{','.join(map(str, rps))}" for w, rps in sorted(overflowed.items()))


def check_overflowed(path: Path, overflowed: dict[int, list[int]], cap: int):
    """A run whose restore skipped a register array fails as a data error
    (exit 3), after its report file is written."""
    if overflowed:
        raise DataError(f"restore skipped register arrays over the cap of {cap} tuples, "
                        f"so {path} misses their hosts (window:arrays "
                        f"{format_overflowed(overflowed)}); raise --restore-cap")


def _add_sketch_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULTS.master_seed,
                   help="master seed (all hash roles derive from it)")
    p.add_argument("--theta", type=int, default=DEFAULTS.theta, help="super-point threshold")
    p.add_argument("--r", type=int, default=DEFAULTS.r, help="register-array selector bits")
    p.add_argument("--sr", type=int, default=DEFAULTS.sr, help="rows per register array")
    p.add_argument("--a", type=int, default=DEFAULTS.a, help="index overlap bits between rows")
    p.add_argument("--g", type=int, default=DEFAULTS.g, help="short register width in bits")
    p.add_argument("--k", type=int, default=DEFAULTS.k, help="long register width in bits")
    p.add_argument("--v", type=int, default=DEFAULTS.v, help="total long-register budget")
    p.add_argument("--lr", type=int, default=None,
                   help="long rows (default: planned); long columns are v // lr")
    p.add_argument("--design-n", type=float, default=DEFAULTS.design_n,
                   help="expected distinct pairs per window, for the planner")
    p.add_argument("--window-slices", type=int, default=RUN.window_slices,
                   help="window length in slices")
    p.add_argument("--restore-cap", type=int, default=DEFAULTS.restore_cap,
                   help="max surviving candidate tuples per register array")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    params = DetectorParams(
        theta=args.theta, r=args.r, sr=args.sr, a=args.a, g=args.g, k=args.k, lr=args.lr,
        v=args.v, design_n=args.design_n, master_seed=args.seed, restore_cap=args.restore_cap)
    run = {name: value for name, value in vars(args).items() if name in RUN_KNOBS}
    return RunConfig(params=params, **run)


def cmd_generate(args: argparse.Namespace) -> int:
    spec = TraceSpec(
        n_super=args.n_super,
        super_cardinality_range=tuple(args.super_card),
        n_background=args.n_background,
        background_cardinality_range=tuple(args.background_card),
        n_pairs=args.n_pairs,
        slices=args.slices,
        seed=args.gen_seed,
    )
    try:
        trace = generate_trace(spec)
    except MemoryError as exc:
        raise ConfigError(f"trace too large: {exc}") from exc
    write_trace(trace, args.out)
    print(f"wrote {len(trace)} pairs to {args.out} "
          f"(+ truth sidecar {truth_path(args.out)})")
    return 0


def _detect_windows(cfg: RunConfig, trace) -> Iterator[tuple[np.ndarray, DetectorState]]:
    """Each discrete window's pair indexes and the single scanner's state
    at the end of that window, in window order; the state is reset for the
    next window once the caller is done."""
    state = DetectorState.create(cfg.params)
    for wid, sel in split_windows(trace.slices, cfg.window_slices):
        for start in range(0, len(sel), DEFAULT_BUFFER_PAIRS):
            batch = sel[start:start + DEFAULT_BUFFER_PAIRS]
            state.process_batch(trace.hips[batch], trace.oips[batch])
        state.window_id = wid
        yield sel, state
        state.reset()


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    trace = read_trace(args.trace)
    reports: list[DetectionReport] = []
    windows: list[int] = []
    overflowed: dict[int, list[int]] = {}
    for _, state in _detect_windows(cfg, trace):
        reports += state.finalize_window()
        windows.append(state.window_id)
        if skipped := state.seav.overflowed_arrays:
            overflowed[state.window_id] = skipped
    write_reports(Path(args.out), "discrete", cfg.detection_fields(), reports, windows,
                  overflowed)
    check_overflowed(Path(args.out), overflowed, cfg.params.restore_cap)
    print(f"{len(reports)} detections across {len(windows)} window(s) -> {args.out}")
    return 0


def cmd_slide(args: argparse.Namespace) -> int:
    """Walk the trace from its first slice id, and detect there and every
    ``detect_every`` slices after it.  The detector's clock counts slices
    since the walk began; each detection is labelled with its absolute
    slice id.  A detection whose window holds no pair (every stamp has
    expired) is not run, but its slice is listed, and the clock jumps over
    such slices.  It refuses to list more than ``MAX_SLIDES`` slices."""
    cfg = _config_from_args(args)
    trace = read_trace(args.trace)
    every = cfg.detect_every
    first, final = (int(trace.slices.min()), int(trace.slices.max())) if len(trace) else (0, 0)
    n_slides = (final - first) // every + 1
    if n_slides > MAX_SLIDES:
        raise ConfigError(f"slices {first} to {final} at --detect-every {every} would list "
                          f"{n_slides} slides, more than {MAX_SLIDES}; raise --detect-every")
    detector = SlidingDetector(cfg.params, cfg.window_slices)
    last = -cfg.window_slices  # clock slice of the last pair observed
    reports: list[DetectionReport] = []
    detected_at: list[int] = []
    overflowed: dict[int, list[int]] = {}

    def walk_to(stop: int):
        """Close the clock's slices up to ``stop`` and move the clock there."""
        start = -(-detector.pool.now // every) * every
        for now in range(start, min(stop, last + cfg.window_slices), every):
            detector.advance_slice(now - detector.pool.now)
            reports.extend(replace(r, window_id=first + now) for r in detector.detect())
            if skipped := detector.seav.overflowed_arrays:
                overflowed[first + now] = skipped
        detected_at.extend(range(first + start, first + stop, every))
        detector.advance_slice(stop - detector.pool.now)

    for sid, sel in split_windows(trace.slices, 1):
        walk_to(sid - first)
        detector.observe_batch(trace.hips[sel], trace.oips[sel])
        last = detector.pool.now
    walk_to(detector.pool.now + 1)
    write_reports(Path(args.out), "sliding", cfg.detection_fields(), reports, detected_at,
                  overflowed)
    check_overflowed(Path(args.out), overflowed, cfg.params.restore_cap)
    print(f"{len(reports)} detections across {len(detected_at)} slide(s) -> {args.out}")
    return 0


def cmd_distsim(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    trace = read_trace(args.trace)
    frames_dir = args.frames_dir
    if frames_dir is None:
        out = Path(args.out)
        frames_dir = out.with_name(out.stem + "_frames")
    # Merge-equivalence assertion: each window's merged global sketches and
    # reports must equal those of the plain single scanner that `detect` runs.
    # A window is checked as it is built and dropped before the next is built.
    log_lines = header_lines("distsim", {**cfg.detection_fields(),
                                         **cfg.topology_fields()})
    reports: list[DetectionReport] = []
    windows: list[int] = []
    overflowed: dict[int, list[int]] = {}
    ok = True
    for sel, single in _detect_windows(cfg, trace):
        # The receiver's restore gives the skipped arrays; the single
        # scanner's, on the same registers once the check passes, is not read.
        res = simulate_window(cfg.params, single.window_id, trace.hips[sel], trace.oips[sel],
                              cfg.n_wp, route=cfg.route, frames_dir=frames_dir)
        if skipped := res.global_seav.overflowed_arrays:
            overflowed[res.window_id] = skipped
        seav_same = np.array_equal(res.global_seav.flat, single.seav.flat)
        ldca_same = np.array_equal(res.global_ldca.flat, single.ldca.flat)
        reports_same = res.reports == single.finalize_window()
        ok &= seav_same and ldca_same and reports_same
        log_lines.append(
            f"window {res.window_id}: seav_identical={seav_same} "
            f"ldca_identical={ldca_same} reports_identical={reports_same}")
        reports += res.reports
        windows.append(res.window_id)
        del res
    write_reports(Path(args.out), "discrete", cfg.detection_fields(), reports, windows,
                  overflowed)
    Path(args.merge_log).write_text("\n".join(log_lines) + "\n")
    if not ok:
        raise AssertionError("merged sketches differ from single-scanner run")
    check_overflowed(Path(args.out), overflowed, cfg.params.restore_cap)
    print(f"{len(reports)} detections across {len(windows)} window(s) -> {args.out}; "
          f"merge equivalence verified ({cfg.n_wp} watch points, {cfg.route})")
    return 0


def _report_entry(line: str) -> list[int] | tuple[int, int] | None:
    """The window ids of the `# windows=` line, (window id, IP) of a report
    row, None for any other header line."""
    if line.startswith("# windows="):
        return [int(w) for w in line.split("=", 1)[1].split()]
    if line.startswith(("#", "window_id")):
        return None
    wid, ip, _est, _sat = line.split(",")
    return int(wid), ip_from_str(ip)


def _read_report_csv(path: Path) -> tuple[dict[int, list[int]], list[int]]:
    per_window: dict[int, list[int]] = {}
    windows: list[int] = []
    for entry in parse_lines(path, _report_entry):
        if isinstance(entry, list):
            windows = entry
        elif entry is not None:
            per_window.setdefault(entry[0], []).append(entry[1])
    for wid in windows:
        per_window.setdefault(wid, [])
    return per_window, windows or sorted(per_window)


def cmd_eval(args: argparse.Namespace) -> int:
    if args.theta < 1:
        raise ConfigError(f"theta must be >= 1, got {args.theta}")
    per_window, windows = _read_report_csv(Path(args.reports))
    truth = sorted(ip for ip, count in read_truth(args.truth).items() if count >= args.theta)
    lines = header_lines("eval", {"theta": args.theta,
                                  "reports": Path(args.reports).name,
                                  "truth": Path(args.truth).name})
    lines.append(METRIC_COLUMNS)
    for wid in windows:
        rep = metrics_report(per_window.get(wid, []), truth)
        lines.append(f"{wid},{rep['fpr']:.6f},{rep['fnr']:.6f},{rep['ftr']:.6f},"
                     f"{int(rep['detected'])},{int(rep['truth'])}")
        print(f"window {wid}: FTR={rep['ftr']:.4f} "
              f"precision={rep['precision_nonpaper']:.4f} (precision is not a paper metric)")
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    lr, lc = plan_rows(args.v, args.n, args.k, max_rows=args.max_rows)
    factor = noise_factor(args.k, args.n, lc, lr)
    print(f"LR={lr}")
    print(f"LC={lc}")
    print(f"psu={factor / args.k:.6e}")
    print(f"psu_k={factor:.6e}")
    if factor >= 1.0:
        print("warning: psu*k >= 1, union estimates will carry noise", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sspd",
        description="Detect super points (hosts with >= theta distinct opposite IPs "
                    "per window) from IP-pair traces using mergeable two-tier sketches.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic trace plus truth sidecar")
    p.add_argument("--out", required=True)
    p.add_argument("--n-super", type=int, default=SPEC.n_super)
    p.add_argument("--super-card", type=int, nargs=2,
                   default=list(SPEC.super_cardinality_range), metavar=("LO", "HI"))
    p.add_argument("--n-background", type=int, default=SPEC.n_background)
    p.add_argument("--background-card", type=int, nargs=2,
                   default=list(SPEC.background_cardinality_range), metavar=("LO", "HI"))
    p.add_argument("--n-pairs", type=int, default=SPEC.n_pairs)
    p.add_argument("--slices", type=int, default=SPEC.slices)
    p.add_argument("--gen-seed", type=int, default=SPEC.seed)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("detect", help="discrete-window detection over a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    _add_sketch_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("slide", help="sliding-window detection over a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--detect-every", type=int, default=RUN.detect_every,
                   help="detection cadence in slices")
    _add_sketch_flags(p)
    p.set_defaults(func=cmd_slide)

    p = sub.add_parser("distsim", help="sharded watch-point simulation with merge")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-wp", type=int, default=RUN.n_wp)
    p.add_argument("--route", choices=["hash", "round-robin"], default=RUN.route)
    p.add_argument("--frames-dir", default=None)
    p.add_argument("--merge-log", default="merge_log.txt")
    _add_sketch_flags(p)
    p.set_defaults(func=cmd_distsim)

    p = sub.add_parser("eval", help="score a report CSV against a truth sidecar")
    p.add_argument("--reports", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--theta", type=int, default=DEFAULTS.theta)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plan", help="row planner: LR/LC and noise for (V, N, k)")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-rows", type=int, default=DEFAULT_MAX_ROWS)
    p.set_defaults(func=cmd_plan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except (SspdError, AssertionError) as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
