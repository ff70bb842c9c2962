import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sspd
from sspd import cli, distributed
from sspd.cli import REPORT_COLUMNS, RunConfig, _config_from_args, build_parser, main
from sspd.errors import ConfigError, SeaOverflowWarning
from sspd.evaluation import read_trace, truth_path
from sspd.long_sketch import LdcaSketch
from sspd.window_detector import DetectorParams, DetectorState, split_windows


SMALL_FLAGS = ["--k", "4096", "--lr", "2", "--v", "128", "--design-n", "4000"]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "demo.bin"
    run(["generate", "--out", path, "--n-super", 5, "--super-card", 2048, 2048,
         "--n-background", 500, "--background-card", 1, 8,
         "--n-pairs", 20000, "--slices", 1, "--gen-seed", 3])
    return path


def test_generate_writes_trace_and_truth(trace_file):
    assert trace_file.exists()
    assert truth_path(trace_file).exists()
    assert len(read_trace(trace_file)) == 20000


def test_generate_deterministic(tmp_path, trace_file):
    again = tmp_path / "again.bin"
    run(["generate", "--out", again, "--n-super", 5, "--super-card", 2048, 2048,
         "--n-background", 500, "--background-card", 1, 8,
         "--n-pairs", 20000, "--slices", 1, "--gen-seed", 3])
    assert again.read_bytes() == trace_file.read_bytes()


@pytest.mark.parametrize("name", ["t.bin", "t.txt"])
def test_trace_format_follows_the_suffix(tmp_path, trace_file, name):
    # generate writes the format read_trace reads for that suffix, so
    # either file detects to the report of the binary fixture.
    trace = tmp_path / name
    run(["generate", "--out", trace, "--n-super", 5, "--super-card", 2048, 2048,
         "--n-background", 500, "--background-card", 1, 8,
         "--n-pairs", 20000, "--slices", 1, "--gen-seed", 3])
    assert truth_path(trace).read_bytes() == truth_path(trace_file).read_bytes()
    for path, out in ((trace, tmp_path / "t.csv"), (trace_file, tmp_path / "fixture.csv")):
        assert run(["detect", "--trace", path, "--out", out] + SMALL_FLAGS) == 0
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "fixture.csv").read_bytes()


def test_detect_reports_planted_hosts(tmp_path, trace_file):
    out = tmp_path / "reports.csv"
    assert run(["detect", "--trace", trace_file, "--out", out] + SMALL_FLAGS) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# sspd report kind=discrete"
    assert any(l.startswith("# seed=0x5EED") for l in lines)
    assert any(l.startswith("# seav_bytes=32768") for l in lines)
    header_idx = lines.index("window_id,ip,estimated_cardinality,saturated")
    rows = lines[header_idx + 1:]
    assert len(rows) == 5  # the five planted supers
    for row in rows:
        wid, ip, est, sat = row.split(",")
        assert wid == "0" and sat == "0"
        assert float(est) > 1024 * 0.8
        assert ip.count(".") == 3


def test_detect_byte_identical_across_runs(tmp_path, trace_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["detect", "--trace", trace_file, "--out", a] + SMALL_FLAGS)
    run(["detect", "--trace", trace_file, "--out", b] + SMALL_FLAGS)
    assert a.read_bytes() == b.read_bytes()


def test_detect_empty_trace(tmp_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    out = tmp_path / "empty.csv"
    assert run(["detect", "--trace", empty, "--out", out] + SMALL_FLAGS) == 0
    lines = out.read_text().splitlines()
    assert lines[-1] == "window_id,ip,estimated_cardinality,saturated"


def test_distsim_matches_detect_byte_for_byte(tmp_path, trace_file):
    single = tmp_path / "single.csv"
    sharded = tmp_path / "sharded.csv"
    frames = tmp_path / "frames"
    log = tmp_path / "merge_log.txt"
    run(["detect", "--trace", trace_file, "--out", single] + SMALL_FLAGS)
    assert run(["distsim", "--trace", trace_file, "--out", sharded,
                "--n-wp", 4, "--route", "round-robin",
                "--frames-dir", frames, "--merge-log", log] + SMALL_FLAGS) == 0
    assert single.read_bytes() == sharded.read_bytes()
    assert len(list(frames.iterdir())) == 8  # 4 points x 2 sketch kinds
    text = log.read_text()
    assert "seav_identical=True ldca_identical=True reports_identical=True" in text
    assert "# n_wp=4" in text


def test_distsim_takes_a_theta_beyond_32_bits(tmp_path, trace_file):
    # No frame field bounds a config value: what detect runs, distsim runs.
    flags = SMALL_FLAGS + ["--theta", 2**32]
    single, sharded = tmp_path / "single.csv", tmp_path / "sharded.csv"
    assert run(["detect", "--trace", trace_file, "--out", single] + flags) == 0
    assert run(["distsim", "--trace", trace_file, "--out", sharded, "--n-wp", 2,
                "--merge-log", tmp_path / "log.txt"] + flags) == 0
    assert single.read_bytes() == sharded.read_bytes()


def test_distsim_writes_frames_by_default(tmp_path, trace_file):
    out = tmp_path / "d.csv"
    run(["distsim", "--trace", trace_file, "--out", out, "--n-wp", 2,
         "--merge-log", tmp_path / "log.txt"] + SMALL_FLAGS)
    frames = tmp_path / "d_frames"
    assert frames.is_dir() and len(list(frames.iterdir())) == 4


def test_distsim_eval_equals_detect_eval(tmp_path, trace_file):
    files = {}
    for name in ("detect", "distsim"):
        reports = tmp_path / f"{name}.csv"
        extra = ["--n-wp", 4, "--merge-log", tmp_path / "log.txt",
                 "--frames-dir", tmp_path / "frames"] if name == "distsim" else []
        run([name, "--trace", trace_file, "--out", reports] + extra + SMALL_FLAGS)
        scored = tmp_path / f"{name}_metrics.csv"
        run(["eval", "--reports", reports, "--truth", truth_path(trace_file),
             "--theta", 1024, "--out", scored])
        files[name] = [l for l in scored.read_text().splitlines()
                       if not l.startswith("#")]
    assert files["detect"] == files["distsim"]  # identical metric rows


def test_eval_scores_reports(tmp_path, trace_file):
    reports = tmp_path / "reports.csv"
    metrics_out = tmp_path / "metrics.csv"
    run(["detect", "--trace", trace_file, "--out", reports] + SMALL_FLAGS)
    assert run(["eval", "--reports", reports, "--truth", truth_path(trace_file),
                "--theta", 1024, "--out", metrics_out]) == 0
    lines = metrics_out.read_text().splitlines()
    assert "window_id,FPR,FNR,FTR,detected,truth" in lines
    row = lines[-1].split(",")
    assert row[0] == "0"
    assert float(row[1]) == 0.0 and float(row[2]) == 0.0 and float(row[3]) == 0.0
    assert row[4] == "5" and row[5] == "5"


def test_slide_command(tmp_path):
    trace = tmp_path / "slide.bin"
    run(["generate", "--out", trace, "--n-super", 1, "--super-card", 4096, 4096,
         "--n-background", 50, "--background-card", 1, 4,
         "--n-pairs", 5000, "--slices", 6, "--gen-seed", 5])
    out = tmp_path / "slide.csv"
    assert run(["slide", "--trace", trace, "--out", out, "--window-slices", 6,
                "--detect-every", 2] + SMALL_FLAGS) == 0
    lines = out.read_text().splitlines()
    rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("window_id")]
    assert rows, "the planted heavy host never surfaced"
    assert {int(r.split(",")[0]) for r in rows} <= {0, 2, 4}


def test_plan_command(capsys):
    assert run(["plan", "--v", 8192, "--n", 1e6, "--k", 8192]) == 0
    out = capsys.readouterr().out
    assert "LR=8" in out and "LC=1024" in out
    assert "psu_k=" in out


def test_plan_unclamped(capsys):
    run(["plan", "--v", 8192, "--n", 1e6, "--k", 8192, "--max-rows", 100])
    assert "LR=47" in capsys.readouterr().out


@pytest.mark.parametrize("v, n, k", [(8192, 1e6, 8192), (8192, 1e6, 1024), (1000, 5e4, 1024),
                                     (64, 1e9, 64)])
def test_plan_and_detect_size_the_filter_one_way(tmp_path, trace_file, capsys, v, n, k):
    # The rows plan prints for (v, n, k) are the rows detect runs with.
    assert run(["plan", "--v", v, "--n", n, "--k", k]) == 0
    planned = [l for l in capsys.readouterr().out.splitlines() if l.startswith(("LR=", "LC="))]
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # union noise at the small v
        assert run(["detect", "--trace", trace_file, "--out", out,
                    "--v", v, "--design-n", n, "--k", k]) == 0
    header = [l[2:].upper() for l in out.read_text().splitlines()
              if l.startswith(("# lr=", "# lc="))]
    assert sorted(header) == sorted(planned) and len(planned) == 2


def test_plan_zero_max_rows_is_config_error(capsys):
    code = run(["plan", "--v", 8192, "--n", 1e6, "--k", 8192, "--max-rows", 0])
    assert code == 2
    assert "error: config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["plan", "--v", 8192, "--n", "nan", "--k", 8192],
    ["generate", "--out", "x.bin", "--slices", 5_000_000_000, "--n-pairs", 10,
     "--n-super", 1, "--super-card", 2, 2, "--n-background", 0],
    ["eval", "--reports", "r.csv", "--truth", "t.bin.truth", "--out", "m.csv", "--theta", 0],
    ["eval", "--reports", "r.csv", "--truth", "t.bin.truth", "--out", "m.csv", "--theta", -5],
], ids=["plan-nan-n", "generate-slices-beyond-u32", "eval-zero-theta", "eval-negative-theta"])
def test_out_of_range_value_is_config_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("seed, code", [(-1, 2), (2**64, 2), (2**64 - 1, 0)],
                         ids=["negative", "beyond-64-bits", "top-of-64-bits"])
def test_seed_outside_64_bits_is_config_error(tmp_path, trace_file, capsys, seed, code):
    # The header echoes the seed the detector hashes with, so only a seed
    # that fits in 64 bits runs; any other writes no report.
    out = tmp_path / "x.csv"
    assert run(["detect", "--trace", trace_file, "--out", out, "--seed", seed,
                *SMALL_FLAGS]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: config: master_seed") and len(err.splitlines()) == 1
        assert not out.exists()
    else:
        assert f"# seed=0x{seed:X}" in out.read_text().splitlines()


def test_config_error_exit_code(tmp_path, trace_file, capsys):
    out = tmp_path / "x.csv"
    code = run(["detect", "--trace", trace_file, "--out", out, "--sr", 1] + SMALL_FLAGS)
    assert code == 2
    assert "error: config" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, says", [
    ("slide", ["--detect-every", 0], "detect_every must be >= 1"),
    ("distsim", ["--buffer-pairs", 0], "buffer_pairs must be >= 1"),
    ("detect", ["--window-slices", 0], "window_slices must be >= 1"),
    ("detect", ["--window-slices", 2**63], "window_slices must be below 2^63"),
    ("detect", ["--beta", -1], "beta must be > 0"),
    ("detect", ["--beta", "nan"], "beta must be > 0"),
    ("detect", ["--restore-cap", 0], "restore_cap must be >= 1"),
    ("detect", ["--lr", 0], "lr must be >= 1"),
    ("detect", ["--lr", 8, "--v", 5], "v must be >= lr, got v=5, lr=8"),
    ("distsim", ["--threads", 0], "threads must be >= 1"),
    ("detect", ["--lr", 1, "--v", 1, "--k", 10**400], "k must be below 2^63"),
    ("detect", ["--lr", 1, "--v", 1, "--k", 2**66], "k must be below 2^63"),
    ("detect", ["--lr", 1, "--v", 1, "--k", 2**62], "detector registers too large"),
    ("slide", ["--lr", 1, "--v", 1, "--k", 2**62], "timestamp pool of"),
], ids=["detect-every", "buffer-pairs", "window-slices", "window-slices-beyond-int64",
        "negative-beta", "nan-beta",
        "zero-restore-cap", "zero-lr", "v-below-lr", "zero-threads",
        "k-beyond-a-float", "k-beyond-int64",
        "k-beyond-memory", "k-beyond-the-sliding-pool"])
def test_zero_step_is_config_error(tmp_path, trace_file, command, flag, says):
    # A separate interpreter, so an uncaught exception shows as exit 1 and
    # a traceback instead of failing inside the test process.  The flag
    # comes last, so it overrides the same flag before it.
    argv = [command, "--trace", trace_file, "--out", tmp_path / "x.csv",
            "--k", 4096, "--design-n", 4000, *flag]
    if command == "distsim":
        argv += ["--merge-log", tmp_path / "log.txt"]
    env = {**os.environ, "PYTHONPATH": str(Path(sspd.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "sspd.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: config: {says}")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("flags", [
    ["--n-wp", 0],
    ["--n-wp", -3],
    ["--buffer-pairs", 0],
    ["--threads", 0],
], ids=["zero-n-wp", "negative-n-wp", "zero-buffer-pairs",
        "zero-threads"])
def test_distsim_refuses_on_an_empty_trace(tmp_path, capsys, flags):
    # A trace with no windows never reaches a watch point; the refusal
    # must not depend on one.
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    code = run(["distsim", "--trace", empty, "--out", tmp_path / "x.csv",
                "--merge-log", tmp_path / "log.txt", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and len(err.splitlines()) == 1


def test_distsim_holds_one_window_at_a_time(tmp_path):
    # One trace of 4 slices, run as 1 window and as 4.  Each window's frames
    # and merged receiver are released before the next window is built, so
    # more windows add less than one more detector's registers to the peak.
    trace = tmp_path / "four.bin"
    run(["generate", "--out", trace, "--n-super", 2, "--super-card", 2048, 2048,
         "--n-background", 200, "--n-pairs", 8000, "--slices", 4, "--gen-seed", 5])
    one_state = sum(DetectorState.create(DetectorParams()).memory_bytes())
    peaks = {}
    for window_slices in (4, 1):
        argv = ["distsim", "--trace", trace, "--out", tmp_path / "d.csv", "--n-wp", 4,
                "--window-slices", window_slices, "--merge-log", tmp_path / "log.txt"]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peaks[window_slices] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert "# windows=0 1 2 3" in (tmp_path / "d.csv").read_text()
    assert peaks[1] < peaks[4] + one_state, (peaks, one_state)


def test_distsim_splits_the_trace_once(tmp_path, monkeypatch):
    # Each window's pairs feed both the watch points and the single
    # scanner, so one split serves the run; every window's frames are named
    # by watch point, window and kind.
    trace = tmp_path / "three.bin"
    run(["generate", "--out", trace, "--n-super", 1, "--super-card", 2048, 2048,
         "--n-background", 50, "--n-pairs", 3000, "--slices", 3, "--gen-seed", 2])
    calls = []

    def counting_split(slices, window_slices):
        calls.append(window_slices)
        return split_windows(slices, window_slices)

    # Both modules that ever imported it, so a second split anywhere counts.
    monkeypatch.setattr(cli, "split_windows", counting_split)
    monkeypatch.setattr(distributed, "split_windows", counting_split, raising=False)
    frames = tmp_path / "frames"
    assert run(["distsim", "--trace", trace, "--out", tmp_path / "d.csv", "--n-wp", 2,
                "--window-slices", 1, "--frames-dir", frames,
                "--merge-log", tmp_path / "log.txt"] + SMALL_FLAGS) == 0
    assert calls == [1]
    assert sorted(p.name for p in frames.iterdir()) == sorted(
        f"wp{w}_win{wid}_{kind}.sspd" for w in range(2) for wid in range(3)
        for kind in ("seav", "ldca"))


def test_distsim_merge_check_can_fail(tmp_path, trace_file, monkeypatch, capsys):
    # One watch point ships a counter frame one bit short.  The check must
    # compare the merge with an independent single scanner to see it.
    serialize = distributed.serialize
    dropped = []

    def lossy_serialize(sketch, window_id):
        if not dropped and isinstance(sketch, LdcaSketch):
            i = int(np.flatnonzero(sketch.flat)[0])
            dropped.append(i)
            sketch.flat[i] &= sketch.flat[i] - 1  # clear its lowest set bit
        return serialize(sketch, window_id)

    monkeypatch.setattr(distributed, "serialize", lossy_serialize)
    log = tmp_path / "log.txt"
    code = run(["distsim", "--trace", trace_file, "--out", tmp_path / "x.csv",
                "--n-wp", 4, "--frames-dir", tmp_path / "frames", "--merge-log", log]
               + SMALL_FLAGS)
    assert dropped
    assert code == 4
    assert capsys.readouterr().err.startswith("error: internal")
    assert "window 0: seav_identical=True ldca_identical=False" in log.read_text()


@pytest.fixture(scope="module")
def overflow_trace(tmp_path_factory):
    """40 hosts at 1200 peers: with --restore-cap 4 restore skips five of
    the 16 register arrays, and the hosts in them go unreported."""
    path = tmp_path_factory.mktemp("overflow") / "o.bin"
    run(["generate", "--out", path, "--n-super", 40, "--super-card", 1200, 1200,
         "--n-background", 1000, "--n-pairs", 60000])
    return path


@pytest.mark.parametrize("command", ["detect", "slide", "distsim"])
def test_skipped_array_writes_its_line_and_exits_3(tmp_path, overflow_trace, command, capsys):
    argv = [command, "--trace", overflow_trace, "--out", tmp_path / "x.csv"]
    if command == "distsim":
        argv += ["--merge-log", tmp_path / "log.txt", "--frames-dir", tmp_path / "frames"]
    assert run(argv) == 0
    lines = (tmp_path / "x.csv").read_text().splitlines()
    assert not any(l.startswith("# overflowed_arrays=") for l in lines)
    assert len(lines) - lines.index(REPORT_COLUMNS) - 1 == 40
    capsys.readouterr()

    assert run(argv + ["--restore-cap", 4]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data: ") and len(err.splitlines()) == 1
    lines = (tmp_path / "x.csv").read_text().splitlines()
    at = lines.index("# windows=0")
    assert lines[at + 1] == "# overflowed_arrays=0:4,9,12,14,15"
    assert lines[at + 2] == REPORT_COLUMNS
    assert 0 < len(lines) - at - 3 < 40


def test_skipped_arrays_passes_other_warnings_on():
    def finalize():
        warnings.warn(SeaOverflowWarning(9, 4))
        warnings.warn(SeaOverflowWarning(2, 4))
        warnings.warn("unrelated", UserWarning)
        return "reports"

    with pytest.warns(UserWarning, match="unrelated") as caught:
        assert cli.skipped_arrays(finalize) == ("reports", [2, 9])
    assert [w.category for w in caught] == [UserWarning]


@pytest.mark.parametrize("command", ["detect", "slide"])
def test_threads_is_a_distsim_flag_only(tmp_path, trace_file, command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--trace", trace_file, "--out", tmp_path / "x.csv", "--threads", 2])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_default_detection_fields():
    assert RunConfig().detection_fields() == {
        "seed": "0x5EED", "theta": 1024, "beta": 0.8, "r": 4, "sr": 4, "a": 2, "g": 8,
        "k": 8192, "lr": 8, "lc": 1024, "design_n": "1e+06", "window_slices": 300,
        "restore_cap": 1 << 20, "seav_bytes": 32768, "ldca_bytes": 8388608,
    }


@pytest.mark.parametrize("knob, value", [
    ("window_slices", 0), ("window_slices", 1 << 63), ("detect_every", 0),
    ("n_wp", -3), ("buffer_pairs", 0), ("threads", 0),
])
def test_run_config_refuses_a_bad_run_knob(knob, value):
    with pytest.raises(ConfigError, match=knob):
        RunConfig(**{knob: value})


@pytest.mark.parametrize("command", ["detect", "slide", "distsim"])
def test_flags_default_to_the_run_config(command):
    # The flags a subcommand has resolve, when left out, to RunConfig's own
    # defaults; the knobs it lacks keep them too.
    args = build_parser().parse_args([command, "--trace", "t", "--out", "o"])
    assert _config_from_args(args) == RunConfig()


def test_readme_walkthrough_scaled_down(tmp_path, monkeypatch):
    # README steps 1-6 in order, with smaller traces and sketches.
    monkeypatch.chdir(tmp_path)
    steps = [
        ["generate", "--out", "demo.bin", "--n-super", 5, "--super-card", 2048, 2048,
         "--n-background", 500, "--n-pairs", 20000],
        ["detect", "--trace", "demo.bin", "--out", "reports.csv", *SMALL_FLAGS],
        ["eval", "--reports", "reports.csv", "--truth", "demo.bin.truth", "--theta", 1024,
         "--out", "metrics.csv"],
        ["distsim", "--trace", "demo.bin", "--out", "dist.csv", "--n-wp", 4,
         "--route", "hash", "--frames-dir", "frames/", "--merge-log", "merge_log.txt",
         *SMALL_FLAGS],
        ["generate", "--out", "sliding.bin", "--slices", 6, "--n-pairs", 5000,
         "--n-super", 1, "--super-card", 4096, 4096, "--n-background", 50],
        ["slide", "--trace", "sliding.bin", "--out", "slide.csv", "--window-slices", 3,
         *SMALL_FLAGS],
        ["plan", "--v", 8192, "--n", 1e6, "--k", 8192],
    ]
    for argv in steps:
        assert run(argv) == 0, argv
    assert Path("reports.csv").read_bytes() == Path("dist.csv").read_bytes()
    assert len(list(Path("frames").iterdir())) == 8


def test_data_error_exit_code(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(["detect", "--trace", tmp_path / "missing.bin", "--out", out] + SMALL_FLAGS)
    assert code == 3
    assert "error: data" in capsys.readouterr().err


def test_truncated_trace_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x01" * 17)
    code = run(["detect", "--trace", bad, "--out", tmp_path / "x.csv"] + SMALL_FLAGS)
    assert code == 3


REPORT_HEAD = "# sspd report kind=discrete\n# windows=0\n" + REPORT_COLUMNS + "\n"


@pytest.mark.parametrize("file, text, line", [
    ("t.txt", "0,1.2.3.4,5.6.7.8\n0,1.2.3.4,host\n", 2),
    ("t.txt", "0,1.2.3.4\n", 1),
    ("t.txt", "\nx,1.2.3.4,5.6.7.8\n", 2),
    ("t.txt", "4294967296,1.2.3.4,5.6.7.8\n", 1),
    ("t.bin.truth", "1.2.3.4 x\n", 1),
    ("t.bin.truth", "1.2.3.4 5\n5.6.7.8\n", 2),
    ("t.bin.truth", "1.2.3.4 9223372036854775808\n", 1),
    ("r.csv", REPORT_HEAD + "0,1.2.3.4\n", 4),
    ("r.csv", REPORT_HEAD + "0,1.2.3.4,2048.0,0\n0,1.2.3,2048.0,0\n", 5),
    ("r.csv", "# windows=0 x\n", 1),
], ids=["trace-non-ip", "trace-two-fields", "trace-non-integer-slice",
        "trace-slice-beyond-u32", "truth-non-integer-count", "truth-one-field",
        "truth-count-beyond-i64", "report-two-fields", "report-non-ip",
        "report-non-integer-window"])
def test_malformed_file_is_data_error(tmp_path, capsys, file, text, line):
    # Each reader names the file and the line; the CLI exits 3 with one line.
    (tmp_path / file).write_text(text)
    (tmp_path / "t.bin.truth").touch(exist_ok=True)
    (tmp_path / "r.csv").touch(exist_ok=True)
    if file == "t.txt":
        argv = ["detect", "--trace", tmp_path / file, "--out", tmp_path / "x.csv", *SMALL_FLAGS]
    else:
        argv = ["eval", "--reports", tmp_path / "r.csv", "--truth", tmp_path / "t.bin.truth",
                "--out", tmp_path / "m.csv"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: {tmp_path / file}:{line}: ")
    assert len(err.splitlines()) == 1


def test_internal_assertion_exit_code(monkeypatch, capsys):
    import sspd.cli as cli

    def exploding(args):
        raise AssertionError("wired through")

    monkeypatch.setattr(cli, "cmd_plan", exploding)
    code = run(["plan", "--v", 8192, "--n", 1e6, "--k", 8192])
    assert code == 4
    assert "error: internal" in capsys.readouterr().err


# --- bounded fuzz of the numeric flags ------------------------------------------

# Edge values per numeric flag: zero, negatives, one, values just past
# 16, 32 and 8 bits (LR, theta, r/SR/a/g), NaN, infinity and a
# non-number.  Geometry values stay small enough that no combination
# builds much (see test_fuzz_lists_build_at_most_64_mib).
FUZZ_BASE = ["--k", 64, "--design-n", 4000]
FUZZ_SLICES = 3  # of the fuzz trace, so at most 3 windows
FUZZ_SKETCH_FLAGS = {
    "--seed": [0, -1, 1, 2**64, "x"],
    "--theta": [0, -1, 1, 2**32, "x"],
    "--beta": [0, -1, 1, "nan", "inf", "x"],
    "--r": [0, -1, 1, 256, "x"],
    "--sr": [0, -1, 1, 256, "x"],
    "--a": [0, -1, 1, 256, "x"],
    "--g": [0, -1, 1, 64, 256, "x"],
    "--k": [0, -8, 1, 64, "inf", "x"],
    "--v": [0, -1, 1, 65536, "x"],
    "--lr": [0, -1, 1, 65535, 65536, "x"],
    "--design-n": [0, -1, 1, "nan", "inf", "x"],
    "--window-slices": [0, -1, 1, 65535, 2**32, "x"],
    "--restore-cap": [0, -1, 1, "x"],
}
FUZZ_COMMAND_FLAGS = {
    "detect": {},
    "slide": {"--detect-every": [0, -1, 1, "x"]},
    "distsim": {"--n-wp": [0, -1, 1, 16, "x"], "--buffer-pairs": [0, -1, 1, "x"],
                "--threads": [0, -1, 1, 4, "x"]},
}


# The commands that take no sketch flags.  A tuple is the pair of values of
# a two-value flag.  The generate values, its fixed ones below included,
# bound the pairs it builds (see test_fuzz_lists_build_at_most_64_mib).
FUZZ_GENERATE_BASE = ["--n-super", 1, "--super-card", 64, 64, "--n-background", 20,
                      "--background-card", 1, 8, "--n-pairs", 300, "--slices", FUZZ_SLICES]
FUZZ_OTHER_FLAGS = {
    "generate": {
        "--n-super": [0, -1, 1, 4, "x"],
        "--super-card": [(0, 0), (1, 1), (2, 1), (-1, 4), (64, 64), ("x", 1)],
        "--n-background": [0, -1, 1, 20, "x"],
        "--background-card": [(0, 0), (1, 8), (8, 1), (64, 64), (1, "x")],
        "--n-pairs": [0, -1, 1, 300, 1000, "x"],
        "--slices": [0, -1, 1, 2**32, 2**32 + 1, 5_000_000_000, "x"],
        "--gen-seed": [0, -1, 2**64, "x"],
    },
    "eval": {"--theta": [0, -1, 1, 64, 2**32, 2**64, "x"]},
    "plan": {
        "--v": [0, -1, 1, 8192, 2**62, 2**64, 10**400, "x"],
        "--n": [0, -1, 1e-300, 5e-324, "nan", "inf", "x"],
        "--k": [0, -1, 1, 2, 8192, 2**62, 2**64, 10**400, "x"],
        "--max-rows": [0, -1, 1, 2**64, "x"],
    },
}


def fuzz_flags(command):
    return {**FUZZ_SKETCH_FLAGS, **FUZZ_COMMAND_FLAGS[command]}


def largest(values):
    """The largest integer among fuzz values, pairs included."""
    return max(x for v in values for x in (v if isinstance(v, tuple) else (v,))
               if isinstance(x, int))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    run(["generate", "--out", folder / "tiny.bin", "--n-super", 1, "--super-card", 64, 64,
         "--n-background", 20, "--n-pairs", 300, "--slices", FUZZ_SLICES, "--gen-seed", 4])
    run(["detect", "--trace", folder / "tiny.bin", "--out", folder / "tiny.csv", *FUZZ_BASE])
    return folder


def fuzz_exit_code(data, argv, flags):
    """Exit code of ``argv`` with up to three of ``flags`` drawn and appended."""
    names = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True))
    for name in names:
        value = data.draw(st.sampled_from(flags[name]), label=name)
        argv += [name, *value] if isinstance(value, tuple) else [name, value]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return run(argv)
        except SystemExit as exc:  # argparse refusing a value
            return exc.code


def test_fuzz_lists_build_at_most_64_mib():
    # Every combination of the numbers that size the registers, each flag
    # also left at its default, resolved the way the CLI resolves them.
    parser = build_parser()

    def register_bytes(flags):
        args = parser.parse_args(["detect", "--trace", "t", "--out", "o",
                                  *map(str, FUZZ_BASE + flags)])
        try:
            params = _config_from_args(args).params
        except ConfigError:
            return 0
        return params.seav_config().memory_bytes() + params.ldca_config().memory_bytes()

    def worst(names):
        choices = [[None] + [x for x in FUZZ_SKETCH_FLAGS[n] if isinstance(x, int)]
                   for n in names]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return max(register_bytes([t for n, x in zip(names, combo) if x is not None
                                       for t in (n, x)])
                       for combo in itertools.product(*choices))

    registers = (worst(["--r", "--sr", "--a", "--g"])
                 + worst(["--k", "--v", "--lr"]))
    # Sliding keeps a stamp of up to 8 bytes per register bit; distsim holds
    # one window's n_wp frames, the receiver, `threads` scanner states and
    # the single scanner.
    distsim = {n: max(x for x in xs if isinstance(x, int))
               for n, xs in FUZZ_COMMAND_FLAGS["distsim"].items()}
    copies = max(8 * 8, distsim["--n-wp"] + distsim["--threads"] + 2)
    assert registers * copies <= 64 << 20, (registers, copies)
    # generate draws every planted pair, then the requested ones; a pair
    # costs well under 64 bytes at its peak.
    gen = {n: largest(xs) for n, xs in FUZZ_OTHER_FLAGS["generate"].items()}
    pairs = (gen["--n-super"] * gen["--super-card"]
             + gen["--n-background"] * gen["--background-card"] + gen["--n-pairs"])
    assert pairs * 64 <= 64 << 20, pairs


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), command=st.sampled_from(sorted(FUZZ_COMMAND_FLAGS)))
def test_fuzz_numeric_flags_exit_cleanly(fuzz_dir, data, command):
    argv = [command, "--trace", fuzz_dir / "tiny.bin", "--out", fuzz_dir / "out.csv",
            *FUZZ_BASE]
    if command == "distsim":
        argv += ["--merge-log", fuzz_dir / "log.txt", "--frames-dir", fuzz_dir / "frames"]
    assert fuzz_exit_code(data, argv, fuzz_flags(command)) in (0, 2, 3, 4)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), command=st.sampled_from(sorted(FUZZ_OTHER_FLAGS)))
def test_fuzz_generate_eval_plan_exit_cleanly(fuzz_dir, data, command):
    argv = {
        "generate": ["generate", "--out", fuzz_dir / "gen.bin", *FUZZ_GENERATE_BASE],
        "eval": ["eval", "--reports", fuzz_dir / "tiny.csv", "--truth",
                 fuzz_dir / "tiny.bin.truth", "--out", fuzz_dir / "metrics.csv"],
        "plan": ["plan", "--v", 8192, "--n", 4000, "--k", 64],
    }[command]
    assert fuzz_exit_code(data, argv, FUZZ_OTHER_FLAGS[command]) in (0, 2, 3, 4)
