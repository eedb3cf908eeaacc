"""Tests of the campaign benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q campaignbench/tests
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAIN = 100


def _lane_extent(spans, lane):
    starts = [s[2] for s in spans if s[1] == lane]
    ends = [s[3] for s in spans if s[1] == lane]
    return max(ends) - min(starts)


# -- self time ---------------------------------------------------------------


def test_worker_spans_are_subtracted_once_from_the_waiting_span():
    spans = [
        ("exec.dispatch", (MAIN, 1), 0.0, 10.0),
        ("exec.cache.put", (MAIN, 1), 9.0, 9.5),
        ("exec.worker", (201, 1), 1.0, 9.0),
        ("fluidsim.vec.run", (201, 1), 1.5, 8.5),
        ("exec.worker", (202, 1), 2.0, 8.8),
    ]
    selfs = tracing.self_times(spans, MAIN)
    # Two workers in parallel cover [1, 9]; the put covers [9, 9.5].
    assert selfs[0] == pytest.approx(1.5)
    assert selfs[1] == pytest.approx(0.5)
    assert selfs[2] == pytest.approx(1.0)  # 8 s minus the 7 s run
    assert selfs[3] == pytest.approx(7.0)
    assert selfs[4] == pytest.approx(6.8)


def test_worker_spans_do_not_reduce_spans_that_do_not_wait():
    spans = [
        ("campaign.journal.append", (MAIN, 1), 0.0, 4.0),
        ("exec.worker", (201, 1), 0.0, 4.0),
    ]
    assert tracing.self_times(spans, MAIN)[0] == pytest.approx(4.0)


def _random_lane(rng, lane, t0, t1, depth, out):
    """Properly nested spans inside [t0, t1] on one lane."""
    cursor = t0
    while cursor < t1 and len(out) < 400:
        lo = cursor + rng.random() * (t1 - cursor) * 0.3
        hi = lo + rng.random() * (t1 - lo)
        if hi <= lo:
            break
        name = rng.choice(["exec.dispatch", "exec.batch", "core.bisect"])
        out.append((name, lane, lo, hi))
        if depth < 3:
            _random_lane(rng, lane, lo, hi, depth + 1, out)
        cursor = hi


@pytest.mark.parametrize("seed", range(20))
def test_self_time_never_exceeds_wall_time(seed):
    rng = random.Random(seed)
    spans = []
    wall = 100.0
    _random_lane(rng, (MAIN, 1), 0.0, wall, 0, spans)
    _random_lane(rng, (MAIN, 2), 0.0, wall, 0, spans)
    for pid in (201, 202, 203):
        _random_lane(rng, (pid, 1), 0.0, wall, 1, spans)
    selfs = tracing.self_times(spans, MAIN)
    for (_name, _lane, t0, t1), self_s in zip(spans, selfs):
        assert -1e-9 <= self_s <= (t1 - t0) + 1e-9
    for lane in {s[1] for s in spans}:
        lane_self = sum(v for s, v in zip(spans, selfs) if s[1] == lane)
        assert lane_self <= _lane_extent(spans, lane) + 1e-9
        assert lane_self <= wall + 1e-9


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    assert tracing.union_length([(0, 10), (1, 2)]) == 10.0


def test_hot_estimate_scales_timed_calls_to_all_calls():
    assert tracing.hot_estimate([160, 10, 2.0, 1.5], 2) == pytest.approx(32)
    assert tracing.hot_estimate([160, 10, 2.0, 1.5], 3) == pytest.approx(24)
    assert tracing.hot_estimate([5, 0, 0.0, 0.0], 2) == 0.0


# -- medians and quartiles ---------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 11])
def test_quartiles_match_statistics_quantiles(n):
    rng = random.Random(n)
    values = [rng.uniform(0.5, 2.0) for _ in range(n)]
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == pytest.approx(stats.median(values))
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_quartile_helpers_edge_cases():
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert stats.spread([3.0]) == 0.0
    assert stats.spread([0.0, 0.0]) == 0.0
    assert stats.median([1.0, 5.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.quartiles([])


# -- spec generator ----------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_spec_bytes_and_fingerprint(name, tmp_path):
    from repro.campaign import load_spec

    fingerprints = []
    for attempt in range(2):
        workload = workloads.build(name, 7)
        path = tmp_path / f"{attempt}.json"
        path.write_bytes(workload.spec_bytes())
        fingerprints.append(load_spec(path).fingerprint())
    assert (tmp_path / "0.json").read_bytes() == (
        tmp_path / "1.json"
    ).read_bytes()
    assert fingerprints[0] == fingerprints[1]
    other = workloads.build(name, 8).spec_bytes()
    assert other != (tmp_path / "0.json").read_bytes()


def test_workload_sizes():
    from repro.campaign import expand_units, parse_spec

    sizes = {
        name: len(expand_units(parse_spec(workloads.build(name, 0).spec)))
        for name in workloads.NAMES
    }
    assert sizes == {
        "ne-bisect": 1,
        "ne-grid": 11,
        "packet-aqm": 6,
    }


def test_grid_points_use_the_bisection_seeds():
    from repro.experiments.runner import spaced_seed

    spec = workloads.build("ne-grid", 3).spec
    axes = {axis["name"]: axis["values"] for axis in spec["axes"]}
    for mix, seed in zip(axes["mix"], axes["seed"]):
        k = int(mix.split("bbr:")[1])
        assert seed == spaced_seed(3, k)


# -- output checks -----------------------------------------------------------


def _grid_rows(table):
    return [
        {
            "buffer_bdp": "2.0",
            "mix": f"cubic:{len(table) - 1 - k},bbr:{k}",
            "per_flow_mbps:cubic": repr(cubic),
            "per_flow_mbps:bbr": repr(bbr),
        }
        for k, (cubic, bbr) in enumerate(table)
    ]


def test_grid_ne_sets_contain_the_bisection_result():
    from repro.core.game import bisect_nash

    rng = random.Random(5)
    n = 10
    for _ in range(50):
        table = [(rng.uniform(1, 10), rng.uniform(1, 10))
                 for _ in range(n + 1)]
        rows = _grid_rows(table)
        grid = checks.grid_ne_sets(rows, n)["2.0"]
        bisect, _cache = bisect_nash(n, lambda k: table[k])
        assert set(bisect) <= set(grid)
        brute = [
            k for k in range(n + 1)
            if (k == 0 or table[k][1] >= table[k - 1][0])
            and (k == n or table[k][0] >= table[k + 1][1])
        ]
        assert grid == brute


def _check_grid(tmp_path, table, reference, seed=0):
    out = tmp_path / "out"
    out.mkdir(parents=True)
    rows = _grid_rows(table)
    header = list(rows[0])
    lines = [",".join(header)] + [
        ",".join(f'"{row[h]}"' for h in header) for row in rows]
    (out / "results.csv").write_text("\n".join(lines) + "\n")
    report = {"units": len(rows), "exec_stats": {}}
    return checks.check_run("ne-grid", seed, out, report, reference,
                            expected=None, n_flows=len(table) - 1,
                            buffers=(2.0,))


# k = 2 is the only NE of this table.
_TABLE = [(5.0, 9.0), (5.0, 9.0), (6.0, 6.0), (7.0, 4.0)]


def test_ne_grid_check_fails_when_a_bisection_ne_is_missing(tmp_path):
    reference = {"ne-bisect": {"0": {"ne": {"2.0": [1]}}}}
    outcome, record = _check_grid(tmp_path, _TABLE, reference)
    assert record["ne_exhaustive"] == {"2.0": [2]}
    assert record["ne_check"] == "applied"
    assert outcome.failed == outcome.units
    reference = {"ne-bisect": {"0": {"ne": {"2.0": [2]}}}}
    outcome, record = _check_grid(tmp_path / "b", _TABLE, reference)
    assert not outcome.failed
    assert record["ne_bisect"] == {"2.0": [2]}


def test_ne_grid_check_is_not_applicable_without_a_reference(tmp_path):
    outcome, record = _check_grid(tmp_path, _TABLE, {}, seed=5)
    assert not outcome.failed
    assert record["ne_check"].startswith("not applicable")
    assert "ne_bisect" not in record


def test_reference_covers_the_same_seeds_for_every_workload():
    reference = checks.load_reference()
    assert set(reference) == set(workloads.NAMES)
    seeds = set(reference["ne-bisect"])
    assert seeds >= {str(seed) for seed in range(10)}
    for name in workloads.NAMES:
        assert set(reference[name]) == seeds
    # The packet simulator draws no random numbers: every seed writes
    # the same results, so every seed does the same work.
    assert len({e["csv_sha256"] for e in reference["packet-aqm"].values()}) == 1


def test_nonfinite_cells_are_found():
    rows = [{"a": "1.5", "b": "x"}, {"a": "nan", "b": "y"},
            {"a": "2", "b": "inf"}]
    assert checks.nonfinite_rows(rows) == 2


def test_bisect_ne_sets_list_buffers_without_equilibria():
    rows = [{"buffer_bdp": "10.0", "ne_challenger": "8"}]
    assert checks.bisect_ne_sets(rows, (2.0, 10.0)) == {
        "2.0": [], "10.0": [8]}


# -- traced campaign (runs in a child process) -------------------------------


def _tiny_spec(tmp_path, backend):
    spec = {
        "name": "tiny",
        "link": {"bandwidth_mbps": 20.0, "rtt_ms": 40.0},
        "defaults": {"duration": 3.0, "backend": backend, "seed": 1},
        "axes": [
            {"name": "buffer_bdp", "values": [1.0, 2.0]},
            {"name": "mix", "values": ["cubic:1,bbr:1", "bbr:2"]},
        ],
        "stages": [{"name": "s", "type": "sweep"}],
    }
    path = tmp_path / f"{backend}.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.mark.parametrize("backend,jobs", [("fluid", 1), ("fluid-vec", 2)])
def test_traced_campaign_reports_consistent_layers(tmp_path, backend, jobs):
    spec = _tiny_spec(tmp_path, backend)
    trace_dir = tmp_path / "trace"
    done = subprocess.run(
        [sys.executable, str(BENCH / "rep.py"), str(spec),
         str(tmp_path / "out"), str(tmp_path / "cache"), str(jobs),
         repr(perf_counter()), str(trace_dir)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    trace = tracing.load(trace_dir)
    metrics, layers = tracing.layer_metrics(trace, report["wall_s"])
    assert set(metrics) == set(tracing.METRICS)
    assert metrics["exec.points.simulated"] == 4
    assert metrics["campaign.journal.appends"] == 4
    assert metrics["campaign.sink.rows"] == 4
    substrate = "fluidsim.scalar" if backend == "fluid" else "fluidsim.vec"
    run_s = metrics[f"{substrate}.run_s"]
    assert run_s > 0
    # 4 points x 2 flows x 3 s at dt = min RTT / 4 = 10 ms.  The vec
    # substrate counts every row's steps; scalar flows tick only once
    # started, and each start is jittered by up to 0.1 s (10 ticks).
    ticks = round(metrics[f"{substrate}.flow_ticks_per_s"] * run_s)
    if backend == "fluid":
        assert 4 * 2 * (300 - 10) <= ticks < 4 * 2 * 300
    else:
        assert ticks == 4 * 2 * 300
    # The sampled tick and filter estimates fit inside the runs (self_s
    # is the clamped remainder, so it is not checked here).
    law_s = metrics[f"{substrate}.law_tick_s"]
    filter_s = metrics[f"{substrate}.filter_s"]
    assert law_s > 0 and filter_s > 0
    assert law_s + filter_s <= run_s
    if jobs == 1:
        # One process: the layers' self times fit inside the campaign.
        assert sum(layers.values()) <= report["wall_s"] * 1.01
    else:
        assert len({lane[0] for _n, lane, _a, _b in trace["spans"]}) >= 2
        assert metrics["exec.dispatch_self_s"] <= report["wall_s"]
