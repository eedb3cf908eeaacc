"""CLI subcommands (fast paths only; figures are covered by benchmarks)."""

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out
    assert "cubic" in out and "bbr" in out


def test_predict_two_flow(capsys):
    code = main(
        ["predict", "--mbps", "100", "--rtt-ms", "40", "--buffer-bdp", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2-flow model" in out
    assert "40.6%" in out  # Known value for this configuration.
    assert "ware" in out.lower()


def test_predict_multi_flow(capsys):
    code = main(["predict", "--cubic", "5", "--bbr", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "multi-flow model" in out
    assert "per-flow BBR in [" in out


def test_nash(capsys):
    code = main(["nash", "--flows", "50", "--buffer-bdp", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted NE" in out
    assert "CUBIC" in out


def test_simulate_fluid(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "20",
            "--backend",
            "fluid",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cubic" in out and "bbr" in out
    assert "queuing delay" in out


def test_simulate_bad_mix(capsys):
    assert main(["simulate", "cubic-5"]) == 2


def test_figure_unknown_id(capsys):
    assert main(["figure", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_figure_fig6_renders_and_exports(tmp_path, capsys):
    code = main(["figure", "fig6", "--csv-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig6" in out
    assert (tmp_path / "fig6.csv").exists()


def test_figure_accepts_bare_number(capsys):
    assert main(["figure", "6"]) == 0


def test_validate_fluid(capsys):
    code = main(
        [
            "validate",
            "--mbps",
            "50",
            "--buffers",
            "2",
            "5",
            "--backend",
            "fluid",
            "--duration",
            "60",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "MAE" in out
    assert "wins" in out


def test_simulate_packet_backend(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "5",
            "--rtt-ms",
            "20",
            "--duration",
            "10",
            "--backend",
            "packet",
        ]
    )
    assert code == 0
    assert "cubic" in capsys.readouterr().out


def test_evolve(capsys):
    code = main(
        [
            "evolve",
            "--flows",
            "4",
            "--buffer-bdp",
            "3",
            "--duration",
            "40",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "best-response path" in out
    assert "converged mix" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulate_prints_loss_and_drop_stats(capsys):
    code = main(
        [
            "simulate",
            "cubic:2",
            "--mbps",
            "20",
            "--duration",
            "20",
            "--backend",
            "fluid",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "loss" in out
    assert "retx" in out
    assert "drop rate" in out
    assert "queuing delay" in out


def test_simulate_trace_out_and_report_round_trip(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "30",
            "--backend",
            "fluid",
            "--trace-out",
            str(trace),
            "--profile",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "profile:" in out
    assert "fluid.steps" in out
    assert trace.exists()
    manifest = tmp_path / "run.manifest.json"
    assert manifest.exists()

    # The trace must contain BBR phase transitions and drop counters.
    import json

    records = [json.loads(line) for line in trace.read_text().splitlines()]
    kinds = {r["kind"] for r in records}
    assert {"manifest", "sample", "event", "counter"} <= kinds
    states = [
        r
        for r in records
        if r["kind"] == "event" and r["name"] == "cc.state"
    ]
    assert any(r["fields"]["cc"] == "bbr" for r in states)
    counters = {
        r["name"]: r["value"] for r in records if r["kind"] == "counter"
    }
    assert counters.get("link.dropped_packets", 0) > 0

    code = main(["report", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "phase dwell" in out
    assert "bbr" in out
    assert "PROBE_BW" in out


def test_report_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_report_malformed_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["report", str(bad)]) == 2
    assert "malformed trace" in capsys.readouterr().err


def test_simulate_cache_dir_miss_then_hit(tmp_path, capsys):
    argv = [
        "simulate",
        "cubic:1",
        "bbr:1",
        "--mbps",
        "20",
        "--duration",
        "10",
        "--cache-dir",
        str(tmp_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "cache: miss" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "cache: hit" in warm
    # The simulated throughput lines are identical on the warm run.
    sim = [l for l in cold.splitlines() if "Mbps/flow" in l]
    assert sim and sim == [l for l in warm.splitlines() if "Mbps/flow" in l]


def test_simulate_no_cache_with_cache_dir_is_rejected(tmp_path, capsys):
    argv = [
        "simulate",
        "cubic:1",
        "bbr:1",
        "--duration",
        "10",
        "--cache-dir",
        str(tmp_path),
        "--no-cache",
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "contradictory" in err
    assert len(err.strip().splitlines()) == 1  # One-line diagnostic.
    assert not any(tmp_path.glob("??/*.json"))


def test_no_cache_alone_still_works(capsys):
    argv = [
        "simulate",
        "cubic:1",
        "--mbps",
        "20",
        "--duration",
        "5",
        "--no-cache",
    ]
    assert main(argv) == 0
    assert "cache:" not in capsys.readouterr().out


def test_simulate_jobs_rejects_non_positive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "cubic:1", "--jobs", "0"])


def test_figure_exec_summary_and_cache(tmp_path, capsys):
    (tmp_path / "csv").mkdir()
    argv = [
        "figure",
        "6",
        "--scale",
        "quick",
        "--cache-dir",
        str(tmp_path),
        "--csv-dir",
        str(tmp_path / "csv"),
    ]
    # fig6 is model-only (no scenario points): no exec summary expected.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "exec:" not in out


SMOKE_SPEC = """\
name = "cli-smoke"
[link]
bandwidth_mbps = 20.0
rtt_ms = 20.0
buffer_bdp = 1.0
[defaults]
duration = 5.0
backend = "fluid"
mix = "cubic:1,bbr:1"
[[axes]]
name = "buffer_bdp"
values = [1, 2, 3]
"""


def _write_smoke_spec(tmp_path):
    spec = tmp_path / "smoke.toml"
    spec.write_text(SMOKE_SPEC)
    return spec


def test_campaign_validate_ok(tmp_path, capsys):
    spec = _write_smoke_spec(tmp_path)
    assert main(["campaign", "validate", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "units: 3" in out


def test_campaign_validate_missing_axis(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('name = "x"\n[defaults]\nmix = "cubic:1"\n')
    assert main(["campaign", "validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "campaign error:" in err
    assert "no axes" in err
    assert len(err.strip().splitlines()) == 1  # One line, no traceback.


def test_campaign_validate_bad_cca(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text(
        'name = "x"\n'
        '[defaults]\nmix = "quic:1"\n'
        '[[axes]]\nname = "buffer_bdp"\nvalues = [1]\n'
    )
    assert main(["campaign", "validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unknown congestion control" in err
    assert "quic" in err


def test_campaign_validate_codel_interval_below_target(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text(
        SMOKE_SPEC.replace(
            "buffer_bdp = 1.0\n",
            "buffer_bdp = 1.0\n"
            'aqm = { kind = "codel", target = 0.2, interval = 0.1 }\n',
            1,
        )
    )
    assert main(["campaign", "validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "campaign error:" in captured.err
    assert "interval must exceed target" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.out + captured.err


def test_campaign_validate_missing_file(tmp_path, capsys):
    assert main(["campaign", "validate", str(tmp_path / "nope.toml")]) == 2
    assert "no such spec file" in capsys.readouterr().err


def test_campaign_run_resume_status_cycle(tmp_path, capsys):
    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    cache = tmp_path / "cache"
    argv_tail = ["--out", str(out_dir), "--cache-dir", str(cache)]

    # Interrupt after 2 of 3 units: exit 3, journal present, and the
    # streamed partial CSV holds exactly the journaled units' rows.
    code = main(
        ["campaign", "run", str(spec), "--stop-after", "2", *argv_tail]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "resume with" in captured.out
    assert (out_dir / "journal.jsonl").exists()
    partial = (out_dir / "results.csv").read_text(encoding="utf-8")
    lines = [line for line in partial.splitlines() if line]
    assert len(lines) == 1 + 2  # header + one row per journaled unit
    assert not (out_dir / "manifest.json").exists()

    assert main(["campaign", "status", str(out_dir)]) == 0
    status = capsys.readouterr().out
    assert "resumable" in status
    assert "2/3 completed" in status

    # Resume: only the missing unit executes.
    code = main(
        ["campaign", "resume", str(out_dir), "--cache-dir", str(cache)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 from journal" in out
    assert "1 executed" in out
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "manifest.json").exists()

    assert main(["campaign", "status", str(out_dir)]) == 0
    assert "complete" in capsys.readouterr().out


def test_campaign_run_refuses_existing_journal(tmp_path, capsys):
    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    assert (
        main(
            [
                "campaign",
                "run",
                str(spec),
                "--out",
                str(out_dir),
                "--stop-after",
                "1",
            ]
        )
        == 3
    )
    capsys.readouterr()
    assert (
        main(["campaign", "run", str(spec), "--out", str(out_dir)]) == 2
    )
    assert "campaign resume" in capsys.readouterr().err


def test_campaign_resume_without_journal(tmp_path, capsys):
    assert main(["campaign", "resume", str(tmp_path)]) == 2
    assert "not a campaign directory" in capsys.readouterr().err


def test_campaign_run_no_cache_with_cache_dir_rejected(tmp_path, capsys):
    spec = _write_smoke_spec(tmp_path)
    code = main(
        [
            "campaign",
            "run",
            str(spec),
            "--out",
            str(tmp_path / "camp"),
            "--no-cache",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
    )
    assert code == 2
    assert "contradictory" in capsys.readouterr().err


def test_cache_info_and_clear(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "entries: 0" in out

    main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "20",
            "--duration",
            "5",
            "--cache-dir",
            str(cache),
        ]
    )
    capsys.readouterr()
    assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    from repro.exec.fingerprint import CACHE_SCHEMA

    assert "entries: 1" in out
    assert f"schema: {CACHE_SCHEMA}" in out

    assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
    assert "entries: 0" in capsys.readouterr().out


def test_list_includes_bundled_campaigns(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "campaigns:" in out
    assert "fig9-ne-quick.toml" in out
    assert "fairness-grid-3axis.toml" in out


def test_figure_cached_rerun_reuses_points(tmp_path, capsys):
    argv = [
        "figure",
        "8",
        "--scale",
        "quick",
        "--jobs",
        "2",
        "--cache-dir",
        str(tmp_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "exec:" in cold and "jobs=2" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    cold_line = next(l for l in cold.splitlines() if l.startswith("exec:"))
    warm_line = next(l for l in warm.splitlines() if l.startswith("exec:"))
    points = int(cold_line.split()[1])
    hits = int(warm_line.split(",")[1].split()[0])
    assert hits == points  # Warm rerun answered fully from cache.


def test_cc_list_renders_canonical_table(capsys):
    from repro.cc.laws import ALGORITHMS

    assert main(["cc", "list"]) == 0
    out = capsys.readouterr().out
    for name, spec in ALGORITHMS.items():
        assert name in out
        assert spec.summary in out
    # Every algorithm runs on all three substrates, and the listing
    # says so (packet, scalar fluid, and the vectorized fluid kernel).
    assert out.count("[packet+fluid+fluid-vec]") == len(ALGORITHMS)
    # Law parameters come from the kernel modules.
    assert "C_CUBIC=0.4" in out
    assert "GAIN_CYCLE=(1.25, 0.75," in out


def test_cc_list_substrate_sets_match(capsys):
    """The sets the CLI reports are the registries both substrates use."""
    from repro.cc import available_algorithms
    from repro.fluidsim.flows import available_fluid_algorithms

    assert main(["cc", "list"]) == 0
    out = capsys.readouterr().out
    listed = {
        line.split()[0]
        for line in out.splitlines()
        if line and not line.startswith(" ")
    }
    assert listed == set(available_algorithms())
    assert listed == set(available_fluid_algorithms())


# -- invariant sanitizer and warmup flags (PR 5) ----------------------------


@pytest.fixture
def _clean_check_default():
    """Undo the process-wide checker --check installs."""
    from repro.check import clear_default

    clear_default()
    yield
    clear_default()


def test_simulate_with_check_flag(_clean_check_default, capsys):
    from repro.check import get_default

    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "10",
            "--check",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cubic" in out and "bbr" in out
    # --check installs a process default (the engine hands it on to
    # its pool workers).
    assert get_default() is not None
    assert get_default().checks_run > 0


def test_simulate_packet_with_check_flag(_clean_check_default, capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "10",
            "--duration",
            "5",
            "--backend",
            "packet",
            "--check",
        ]
    )
    assert code == 0
    assert "cubic" in capsys.readouterr().out


def test_simulate_custom_warmup(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "20",
            "--duration",
            "10",
            "--warmup",
            "2",
        ]
    )
    assert code == 0
    assert "cubic" in capsys.readouterr().out


@pytest.mark.parametrize("warmup", ["-1", "10", "11"])
def test_simulate_invalid_warmup_exits_2(warmup, capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--duration",
            "10",
            "--warmup",
            warmup,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "warmup must lie in" in err


def test_cli_flags_leave_environment_unchanged(
    _clean_check_default, monkeypatch, capsys
):
    """--check and --backend fluid-vec install in-process state only;
    the engine hands it to pool workers, so nothing is exported."""
    import os

    import repro.cli as cli
    from repro.experiments.results import FigureResult
    from repro.experiments.runner import fluid_substrate

    before = dict(os.environ)
    substrate = fluid_substrate("fluid")
    argv = ["simulate", "cubic:1", "--duration", "5", "--check"]
    assert main(argv) == 0
    assert dict(os.environ) == before

    seen = {}

    def probe(scale="quick"):
        seen["env"] = dict(os.environ)
        seen["substrate"] = fluid_substrate("fluid")
        return FigureResult("figprobe", "probe", "x", "y")

    monkeypatch.setitem(cli.FIGURES, "figprobe", probe)
    assert main(["figure", "figprobe", "--backend", "fluid-vec"]) == 0
    assert seen == {"env": before, "substrate": "fluid-vec"}
    assert dict(os.environ) == before
    assert fluid_substrate("fluid") == substrate
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "foo:1"],
        ["simulate", "foo:1", "--backend", "packet"],
        ["nash", "--flows", "0"],
        ["predict", "--rtt-ms", "0"],
        ["predict", "--bbr", "0"],
        ["simulate", "cubic:1", "bbr:1", "--buffer-bdp", "nan"],
        ["simulate", "cubic:1", "bbr:1", "--buffer-bdp", "inf"],
        ["simulate", "cubic:1", "bbr:1", "--rtt-ms", "inf"],
        ["predict", "--mbps", "nan"],
    ],
)
def test_bad_input_is_one_line_exit_2(argv, capsys):
    """Bad input is rejected at the CLI/spec boundary: exit 2 (exit 1
    is reserved for invariant violations), one stderr line, no
    traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert "Traceback" not in captured.err


def test_campaign_run_accepts_check_flag(
    _clean_check_default, tmp_path, capsys
):
    spec = tmp_path / "smoke.toml"
    spec.write_text(
        """\
name = "check-smoke"
[link]
bandwidth_mbps = 10.0
rtt_ms = 20.0
buffer_bdp = 2.0
[defaults]
duration = 4.0
backend = "fluid"
mix = "cubic:1"
[[axes]]
name = "seed"
values = [0]
"""
    )
    out_dir = tmp_path / "out"
    code = main(
        ["campaign", "run", str(spec), "--out", str(out_dir), "--check"]
    )
    assert code == 0
    assert (out_dir / "results.csv").exists()


# -- span tracing, progress, top (observability PR) --------------------------


@pytest.fixture
def _clean_trace_default():
    """Undo the process-wide tracer --spans-out/--trace-out installs."""
    yield
    from repro.obs import trace

    trace.set_default(None)


def test_simulate_spans_out_and_trace_report(
    _clean_trace_default, tmp_path, capsys
):
    spans = tmp_path / "spans.json"
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "10",
            "--spans-out",
            str(spans),
            "--profile-points",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "span events" in out

    from repro.obs import read_chrome_trace

    parsed = read_chrome_trace(str(spans))
    names = {span.name for span in parsed.spans}
    assert {"point", "simulate"} <= names
    assert parsed.hotspots  # --profile-points rode along

    assert main(["trace", "report", str(spans)]) == 0
    report = capsys.readouterr().out
    assert "simulate" in report
    assert "self_s" in report
    assert "profiled hotspots" in report


def test_simulate_progress_line(_clean_trace_default, capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "10",
            "--progress",
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "1/1" in err and "eta" in err


def test_trace_report_missing_and_malformed(tmp_path, capsys):
    assert main(["trace", "report", str(tmp_path / "nope.json")]) == 2
    assert "cannot read trace" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["trace", "report", str(bad)]) == 2
    assert "malformed trace" in capsys.readouterr().err


def test_campaign_trace_progress_status_top_cycle(
    _clean_trace_default, tmp_path, capsys
):
    import json

    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    trace_path = tmp_path / "camp-trace.json.gz"

    code = main(
        [
            "campaign",
            "run",
            str(spec),
            "--out",
            str(out_dir),
            "--trace-out",
            str(trace_path),
            "--progress",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "span events" in captured.out
    assert "eta" in captured.err  # the live --progress line

    # Chrome trace: campaign > stage > point vocabulary present.
    from repro.obs import read_chrome_trace

    parsed = read_chrome_trace(str(trace_path))
    names = {span.name for span in parsed.spans}
    assert {"campaign", "stage", "point", "simulate"} <= names

    # progress.json sidecar next to the journal.
    sidecar = json.loads((out_dir / "progress.json").read_text())
    assert sidecar["done"] == 3 and sidecar["total"] == 3

    # status --json shares the tracker's ETA math.
    assert main(["campaign", "status", str(out_dir), "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["state"] == "complete"
    assert status["units"]["done"] == 3
    assert status["eta_s"] == 0.0
    assert "stage0" in status["stages"]

    # top --once renders the same snapshot for humans.
    assert main(["top", str(out_dir), "--once"]) == 0
    top_out = capsys.readouterr().out
    assert "3/3" in top_out and "eta" in top_out


def test_top_midrun_journal_renders_finite_eta(
    _clean_trace_default, tmp_path, capsys
):
    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    code = main(
        [
            "campaign",
            "run",
            str(spec),
            "--out",
            str(out_dir),
            "--stop-after",
            "2",
        ]
    )
    assert code == 3
    capsys.readouterr()

    assert main(["top", str(out_dir), "--once"]) == 0
    out = capsys.readouterr().out
    assert "2/3" in out
    assert "eta" in out and "eta ?" not in out  # finite estimate
    assert "resumable" in out


def test_top_rejects_non_campaign_dir(tmp_path, capsys):
    assert main(["top", str(tmp_path), "--once"]) == 2
    assert "campaign error" in capsys.readouterr().err


# -- scenario flags (--aqm / --ecn / --capacity-trace) ----------------------


def test_simulate_with_red_aqm(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "10",
            "--backend",
            "fluid",
            "--aqm",
            "red",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cubic" in out and "bbr" in out


def test_simulate_with_codel_ecn(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "10",
            "--duration",
            "8",
            "--backend",
            "fluid",
            "--aqm",
            "codel",
            "--ecn",
        ]
    )
    assert code == 0


def test_simulate_with_capacity_trace(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "10",
            "--duration",
            "8",
            "--backend",
            "fluid-vec",
            "--capacity-trace",
            "steps:2@0.5,4@1.0",
        ]
    )
    assert code == 0


def test_simulate_ecn_without_aqm_is_an_error(capsys):
    code = main(
        ["simulate", "cubic:1", "--mbps", "10", "--duration", "5", "--ecn"]
    )
    assert code == 2
    assert "bad scenario" in capsys.readouterr().err


def test_simulate_bad_capacity_trace_is_an_error(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "10",
            "--duration",
            "5",
            "--capacity-trace",
            "ramp:1",
        ]
    )
    assert code == 2
    assert "bad scenario" in capsys.readouterr().err


def test_campaign_run_scenario_override_freezes_spec(tmp_path, capsys):
    import json as _json

    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    code = main(
        [
            "campaign",
            "run",
            str(spec),
            "--out",
            str(out_dir),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--aqm",
            "red",
        ]
    )
    assert code == 0
    frozen = _json.loads((out_dir / "spec.json").read_text())
    # The override lands in the frozen spec, so resume reruns the same
    # scenario even without the flag.
    assert frozen["spec"]["link"]["aqm"]["kind"] == "red"


REPORT_SPEC = """\
name = "cli-report"
[link]
bandwidth_mbps = 20.0
rtt_ms = 20.0
buffer_bdp = 1.5
[defaults]
duration = 4.0
backend = "fluid"
mix = "cubic:1,bbr:1"
[[axes]]
name = "aqm"
values = ["droptail", "red"]
[[axes]]
name = "backend"
values = ["fluid", "fluid-vec"]
[metrics]
columns = ["aggregate_mbps:cubic", "aggregate_mbps:bbr", "drop_rate"]
"""


def test_campaign_report_cli(tmp_path, capsys):
    spec = tmp_path / "report.toml"
    spec.write_text(REPORT_SPEC)
    out_dir = tmp_path / "camp"
    assert (
        main(
            [
                "campaign",
                "run",
                str(spec),
                "--out",
                str(out_dir),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        == 0
    )
    code = main(
        ["campaign", "report", str(out_dir), "--reference", "fluid"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "model error" in out
    assert "wrote" in out
    assert (out_dir / "model_error.csv").exists()


def test_campaign_report_without_compare_axis(tmp_path, capsys):
    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    main(
        [
            "campaign",
            "run",
            str(spec),
            "--out",
            str(out_dir),
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
    )
    capsys.readouterr()
    assert main(["campaign", "report", str(out_dir)]) == 2
    assert "does not sweep" in capsys.readouterr().err
