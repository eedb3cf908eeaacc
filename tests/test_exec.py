"""Execution engine: fingerprints, result cache, parallel determinism."""

import gc
import json
import logging

import pytest

from repro.core.game import bisect_nash
from repro.exec import (
    CACHE_SCHEMA,
    Engine,
    ResultCache,
    ScenarioPoint,
    default_cache_root,
    fingerprint_payload,
)
from repro.exec import engine as engine_mod
from repro.exec import fingerprint as fingerprint_mod
from repro.experiments.runner import (
    ScenarioResult,
    distribution_throughput_fn,
    group_payoff_fn,
    run_mix,
)
from repro.obs import Telemetry
from repro.util.config import LinkConfig


def link(bdp=3, mbps=20, rtt=20):
    return LinkConfig.from_mbps_ms(mbps, rtt, bdp)


def points(n=3, duration=8.0, **kwargs):
    return [
        ScenarioPoint(
            link=link(bdp=1 + i),
            mix=(("cubic", 2), ("bbr", 2)),
            duration=duration,
            **kwargs,
        )
        for i in range(n)
    ]


# -- fingerprints ------------------------------------------------------------


def test_fingerprint_is_stable_across_instances():
    a = ScenarioPoint(link=link(), mix=(("cubic", 2), ("bbr", 2)))
    b = ScenarioPoint(link=link(), mix=(("cubic", 2), ("bbr", 2)))
    assert a == b
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_canonicalizes_spelling():
    base = ScenarioPoint(
        link=link(), mix=(("cubic", 1), ("bbr", 1)), duration=30.0
    )
    spelled = ScenarioPoint(
        link=link(),
        mix=(("CUBIC", 1), ("reno", 0), ("BBR", 1)),
        duration=30.0,
        warmup=5.0,  # == duration / 6, the resolved default
        rtts=None,
    )
    assert spelled == base
    assert spelled.fingerprint() == base.fingerprint()


def test_fingerprint_rtts_order_insensitive():
    a = ScenarioPoint(
        link=link(),
        mix=(("cubic", 1), ("bbr", 1)),
        rtts=(("cubic", 0.01), ("bbr", 0.05)),
    )
    b = ScenarioPoint(
        link=link(),
        mix=(("cubic", 1), ("bbr", 1)),
        rtts=(("bbr", 0.05), ("cubic", 0.01)),
    )
    assert a.fingerprint() == b.fingerprint()


@pytest.mark.parametrize(
    "change",
    [
        {"seed": 1},
        {"trials": 2},
        {"duration": 31.0},
        {"warmup": 2.5},
        {"backend": "packet"},
        {"loss_mode": "sync"},
        {"mix": (("cubic", 1), ("bbr", 1))},
        {"mix": (("bbr", 1), ("cubic", 2))},  # Order is identity.
        {"link": link(bdp=5)},
        {"rtts": (("bbr", 0.08),)},
    ],
)
def test_fingerprint_changes_with_inputs(change):
    base = dict(
        link=link(), mix=(("cubic", 2), ("bbr", 1)), duration=30.0
    )
    a = ScenarioPoint(**base)
    b = ScenarioPoint(**{**base, **change})
    assert a.fingerprint() != b.fingerprint()


def test_fingerprint_changes_with_package_version(monkeypatch):
    point = ScenarioPoint(link=link(), mix=(("cubic", 1),))
    before = point.fingerprint()
    monkeypatch.setattr(fingerprint_mod, "REPRO_VERSION", "999.0.0")
    assert point.fingerprint() != before


def test_fingerprint_payload_namespaced_by_kind():
    params = {"x": 1}
    assert fingerprint_payload("a", params) != fingerprint_payload(
        "b", params
    )


def test_scenario_point_validation():
    with pytest.raises(ValueError):
        ScenarioPoint(link=link(), mix=(("cubic", 0),))
    with pytest.raises(ValueError):
        ScenarioPoint(link=link(), mix=(("cubic", 1),), backend="ns3")
    with pytest.raises(ValueError):
        ScenarioPoint(link=link(), mix=(("cubic", 1),), trials=0)
    with pytest.raises(ValueError):
        ScenarioPoint(link=link(), mix=(("cubic", 1),), duration=0)


# -- cache -------------------------------------------------------------------


def test_cache_roundtrip_and_byte_identical_writes(tmp_path):
    cache = ResultCache(tmp_path)
    payload = {"per_flow": {"bbr": 1.25e6}, "drop_rate": 0.0}
    fp = "ab" + "0" * 62
    path = cache.put(fp, payload)
    first = path.read_bytes()
    assert cache.get(fp) == payload
    cache.put(fp, payload)
    assert path.read_bytes() == first  # Canonical encoding.
    assert fp in cache
    assert len(cache) == 1


def test_cache_miss_on_absent_entry(tmp_path):
    assert ResultCache(tmp_path).get("cd" + "1" * 62) is None


def test_cache_corrupt_entry_is_logged_miss(tmp_path, caplog):
    cache = ResultCache(tmp_path)
    fp = "ef" + "2" * 62
    path = cache.path_for(fp)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
        assert cache.get(fp) is None
    assert "corrupt" in caplog.text


def test_cache_rejects_schema_and_key_mismatch(tmp_path):
    cache = ResultCache(tmp_path)
    fp = "0a" + "3" * 62
    cache.put(fp, {"x": 1})
    entry = json.loads(cache.path_for(fp).read_text())
    entry["schema"] = CACHE_SCHEMA + 1
    cache.path_for(fp).write_text(json.dumps(entry))
    assert cache.get(fp) is None  # Stale schema self-invalidates.

    other = "0a" + "4" * 62
    cache.put(other, {"x": 2})
    moved = cache.path_for(fp)
    moved.write_text(cache.path_for(other).read_text())
    assert cache.get(fp) is None  # Renamed entry rejected.


def test_default_cache_root_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_root() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_root() == tmp_path / "xdg" / "repro-bbr"


# -- engine ------------------------------------------------------------------


def test_cached_rerun_equals_uncached_run(tmp_path):
    pts = points(2)
    uncached = Engine().run_points(pts)
    cold = Engine(cache=ResultCache(tmp_path)).run_points(pts)
    warm_engine = Engine(cache=ResultCache(tmp_path))
    warm = warm_engine.run_points(pts)
    assert cold == uncached
    assert warm == uncached
    assert warm_engine.stats["simulated"] == 0
    assert warm_engine.stats["cache_hits"] == len(pts)


def test_cached_payload_is_byte_identical_for_same_fingerprint(tmp_path):
    pts = points(1)
    fp = pts[0].fingerprint()
    cache_a, cache_b = ResultCache(tmp_path / "a"), ResultCache(tmp_path / "b")
    Engine(cache=cache_a).run_points(pts)
    Engine(cache=cache_b).run_points(pts)
    assert (
        cache_a.path_for(fp).read_bytes() == cache_b.path_for(fp).read_bytes()
    )


def test_parallel_jobs_match_sequential_exactly(tmp_path):
    pts = points(4)
    sequential = Engine(jobs=1).run_points(pts)
    parallel = Engine(jobs=4).run_points(pts)
    assert parallel == sequential
    warm = Engine(jobs=4, cache=ResultCache(tmp_path))
    warm.run_points(pts)
    assert warm.run_points(pts) == sequential


def test_engine_results_keep_submission_order():
    pts = points(3)
    results = Engine(jobs=3).run_points(list(reversed(pts)))
    forward = Engine(jobs=1).run_points(pts)
    assert results == list(reversed(forward))


def test_duplicate_points_simulated_once():
    pts = points(1) * 3
    engine = Engine(jobs=2)
    results = engine.run_points(pts)
    assert engine.stats["simulated"] == 1
    assert results[0] == results[1] == results[2]


def test_corrupt_cache_entry_counts_error_and_reruns(tmp_path):
    pts = points(1)
    cache = ResultCache(tmp_path)
    fresh = Engine(cache=cache).run_points(pts)[0]
    path = cache.path_for(pts[0].fingerprint())
    path.write_text("garbage")
    engine = Engine(cache=ResultCache(tmp_path))
    again = engine.run_points(pts)[0]
    assert again == fresh  # Re-simulated, not crashed.
    assert engine.stats["cache_errors"] == 1
    assert engine.stats["simulated"] == 1
    # The re-run repaired the entry.
    assert Engine(cache=ResultCache(tmp_path)).run_points(pts)[0] == fresh


def test_engine_records_obs_counters(tmp_path):
    obs = Telemetry()
    engine = Engine(cache=ResultCache(tmp_path), obs=obs)
    engine.run_points(points(2))
    engine.run_points(points(2))
    assert obs.counter("exec.points.submitted") == 4
    assert obs.counter("exec.points.simulated") == 2
    assert obs.counter("exec.cache.hits") == 2
    assert obs.counter("exec.cache.misses") == 2
    assert obs.counter("exec.cache.stores") == 2
    assert obs.timers["exec.point.wall"].calls == 2


def test_engine_progress_callback_is_cumulative():
    seen = []
    engine = Engine(progress=lambda d, s, h: seen.append((d, s, h)))
    engine.run_points(points(2))
    assert seen[-1] == (2, 2, 0)
    engine.run_points(points(2))
    assert seen[-1] == (4, 4, 0)


def test_engine_run_mix_matches_runner_run_mix():
    result = Engine().run_mix(
        link(), [("cubic", 2), ("bbr", 2)], duration=10, seed=3
    )
    direct = run_mix(
        link(), [("cubic", 2), ("bbr", 2)], duration=10, seed=3
    )
    assert result == direct


@pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)
def test_engine_jobs_validation():
    # A half-built engine must finalize quietly (no unraisable error).
    with pytest.raises(ValueError):
        Engine(jobs=0)
    gc.collect()


def test_default_engine_install_and_resolve():
    assert engine_mod.get_default() is None
    custom = Engine()
    with engine_mod.use(custom):
        assert engine_mod.resolve(None) is custom
    assert engine_mod.get_default() is None
    fallback = engine_mod.resolve(None)
    assert fallback.jobs == 1 and fallback.cache is None


# -- scenario-result serialization -------------------------------------------


def test_scenario_result_dict_roundtrip_exact():
    result = run_mix(link(), [("cubic", 2), ("bbr", 2)], duration=10)
    data = json.loads(json.dumps(result.to_dict()))
    assert ScenarioResult.from_dict(data) == result


# -- NE machinery through the cache ------------------------------------------


def test_bisect_nash_reuses_cached_points_across_sweeps(tmp_path):
    cache = ResultCache(tmp_path)
    cold = Engine(cache=cache)
    fn = distribution_throughput_fn(
        link(), n_flows=5, duration=8, engine=cold
    )
    equilibria, _ = bisect_nash(5, fn)
    assert cold.stats["simulated"] > 0

    warm = Engine(cache=ResultCache(tmp_path))
    fn2 = distribution_throughput_fn(
        link(), n_flows=5, duration=8, engine=warm
    )
    equilibria2, _ = bisect_nash(5, fn2)
    assert equilibria2 == equilibria
    assert warm.stats["simulated"] == 0
    assert warm.stats["cache_hits"] == warm.stats["submitted"]


def test_group_payoff_fn_cached(tmp_path):
    kwargs = dict(
        group_rtts=[0.010, 0.030], group_sizes=[2, 2], duration=8
    )
    cold = Engine(cache=ResultCache(tmp_path))
    first = group_payoff_fn(link(), engine=cold, **kwargs)((1, 2))
    warm = Engine(cache=ResultCache(tmp_path))
    second = group_payoff_fn(link(), engine=warm, **kwargs)((1, 2))
    assert second == first
    assert warm.stats["simulated"] == 0
    assert warm.stats["cache_hits"] == 1
    # Validation still happens before the cache is consulted.
    with pytest.raises(ValueError):
        group_payoff_fn(link(), engine=warm, **kwargs)((3, 0))


# -- worker-death hardening --------------------------------------------------


def _die_in_worker(point, state):
    """Replacement worker entry that kills the process abruptly."""
    import os

    os._exit(13)


def test_broken_pool_retries_lost_points_inline(monkeypatch):
    """A dead worker poisons the pool; the batch must still complete."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatched worker entry needs fork start method")

    batch = points(3, duration=5.0)
    expected = Engine().run_points(batch)

    engine = Engine(jobs=2)
    monkeypatch.setattr(engine_mod, "_execute_point", _die_in_worker)
    obs = Telemetry()
    engine._obs = obs
    results = engine.run_points(batch)

    assert engine.worker_failures == 1
    assert engine.stats["worker_failures"] == 1
    assert obs.snapshot()["counters"].get("exec.worker_failures") == 1
    # Every point was recovered inline with identical numbers.
    assert [r.to_dict() for r in results] == [
        r.to_dict() for r in expected
    ]


def test_broken_pool_results_cached_after_retry(tmp_path, monkeypatch):
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatched worker entry needs fork start method")

    batch = points(2, duration=5.0)
    engine = Engine(jobs=2, cache=ResultCache(tmp_path))
    monkeypatch.setattr(engine_mod, "_execute_point", _die_in_worker)
    engine.run_points(batch)
    assert engine.worker_failures == 1

    warm = Engine(cache=ResultCache(tmp_path))
    warm.run_points(batch)
    assert warm.stats["simulated"] == 0
    assert warm.stats["cache_hits"] == 2


def test_pool_workers_follow_the_parents_fluid_substrate():
    """Workers serve ``backend="fluid"`` on whatever substrate the
    submitting process resolved at submission — also on a pool that
    was started before the redirect, and again after it ends."""
    from repro.experiments.runner import use_fluid_substrate
    from repro.obs.trace import Tracer

    def batched(tracer, lo):
        return sum(
            1 for s in tracer.spans[lo:] if s.name == "point_batch"
        )

    tracer = Tracer()
    with Engine(jobs=2, tracer=tracer) as engine:
        engine.run_points(points(4, duration=5.0))
        assert batched(tracer, 0) == 0
        mark = len(tracer.spans)
        with use_fluid_substrate("fluid-vec"):
            redirected = engine.run_points(points(4, duration=6.0))
        assert batched(tracer, mark) == 2  # One vectorized call a chunk.
        mark = len(tracer.spans)
        engine.run_points(points(4, duration=7.0))
        assert batched(tracer, mark) == 0
    assert redirected == Engine().run_points(points(4, duration=6.0))


# -- warmup validation (PR 5 satellite) -------------------------------------


@pytest.mark.parametrize("warmup", [-0.5, 8.0, 9.0])
def test_scenario_point_rejects_out_of_range_warmup(warmup):
    with pytest.raises(ValueError, match="warmup must lie in"):
        ScenarioPoint(
            link=link(),
            mix=(("cubic", 1),),
            duration=8.0,
            warmup=warmup,
        )


def test_scenario_point_accepts_boundary_warmups():
    zero = ScenarioPoint(
        link=link(), mix=(("cubic", 1),), duration=8.0, warmup=0.0
    )
    assert zero.warmup == 0.0
    near = ScenarioPoint(
        link=link(), mix=(("cubic", 1),), duration=8.0, warmup=7.999
    )
    assert near.warmup == pytest.approx(7.999)


def test_run_mix_rejects_out_of_range_warmup():
    with pytest.raises(ValueError, match="warmup must lie in"):
        run_mix(link(), [("cubic", 1)], duration=8.0, warmup=8.0)
    with pytest.raises(ValueError, match="warmup must lie in"):
        run_mix(link(), [("cubic", 1)], duration=8.0, warmup=-1.0)


# -- cache durability (PR 5 satellite) --------------------------------------


def test_cache_put_fsyncs_before_rename(tmp_path, monkeypatch):
    import os as os_mod

    calls = []
    real_fsync, real_replace = os_mod.fsync, os_mod.replace

    def spy_fsync(fd):
        calls.append("fsync")
        return real_fsync(fd)

    def spy_replace(src, dst):
        calls.append("replace")
        return real_replace(src, dst)

    monkeypatch.setattr("repro.exec.cache.os.fsync", spy_fsync)
    monkeypatch.setattr("repro.exec.cache.os.replace", spy_replace)
    cache = ResultCache(tmp_path)
    point = points(1)[0]
    cache.put(point.fingerprint(), {"throughput": 1.0})
    # Contents must be durable before the entry becomes visible; the
    # trailing fsync is the best-effort shard-directory sync.
    assert calls[0] == "fsync"
    assert "replace" in calls
    assert calls.index("fsync") < calls.index("replace")


def test_cache_crash_before_rename_leaves_no_entry(tmp_path, monkeypatch):
    def exploding_replace(src, dst):
        raise OSError("simulated crash at the rename boundary")

    monkeypatch.setattr("repro.exec.cache.os.replace", exploding_replace)
    cache = ResultCache(tmp_path)
    fingerprint = points(1)[0].fingerprint()
    with pytest.raises(OSError):
        cache.put(fingerprint, {"throughput": 1.0})
    # The partially-written temp was cleaned up and the final key is
    # absent: readers can never observe a truncated entry.
    assert cache.get(fingerprint) is None
    assert fingerprint not in cache
    shard = tmp_path / fingerprint[:2]
    assert not any(shard.glob("*.tmp"))


def test_cache_dir_fsync_failure_is_swallowed(tmp_path, monkeypatch):
    import os as os_mod

    from repro.exec import cache as cache_mod

    real_open = os_mod.open

    def refusing_open(path, flags, *args, **kwargs):
        # Refuse directory opens only (some platforms genuinely do);
        # tempfile.mkstemp file opens must keep working.
        if os_mod.path.isdir(path):
            raise OSError("directories not openable on this platform")
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr("repro.exec.cache.os.open", refusing_open)
    cache_mod._fsync_dir(tmp_path)  # Must not raise.
    cache = ResultCache(tmp_path)
    fingerprint = points(1)[0].fingerprint()
    cache.put(fingerprint, {"throughput": 2.0})
    assert cache.get(fingerprint) == {"throughput": 2.0}


# -- progress accounting (exactly-once done/hits) ----------------------------


def test_progress_done_advances_once_per_index(tmp_path):
    """``done``/``hits`` advance exactly once per submitted index: cache
    hits at scan time, executed points (and their duplicates) when the
    result lands — never at submit time."""
    pts = points(3, duration=5.0)
    Engine(cache=ResultCache(tmp_path)).run_points(pts[:2])  # warm 2

    seen = []
    engine = Engine(
        jobs=2,
        cache=ResultCache(tmp_path),
        progress=lambda d, s, h: seen.append((d, s, h)),
    )
    # 4 submissions: two warm hits, one cold, one duplicate of the cold.
    engine.run_points(pts + [pts[2]])
    assert engine.stats["submitted"] == 4
    assert engine.done == 4
    assert engine.hits == 2
    # done is strictly +1 per resolution and never exceeds submitted.
    assert [d for d, _s, _h in seen] == [1, 2, 3, 4]
    assert all(d <= s and h <= d for d, s, h in seen)
    # The two hits are counted during the scan, before any execution.
    assert [h for _d, _s, h in seen] == [1, 2, 2, 2]


def test_progress_accounting_with_broken_pool_retry(monkeypatch):
    """Inline retries after a dead worker advance ``done`` exactly once
    per lost point — the pre-fix code double-counted or skipped."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatched worker entry needs fork start method")

    seen = []
    engine = Engine(
        jobs=2, progress=lambda d, s, h: seen.append((d, s, h))
    )
    monkeypatch.setattr(engine_mod, "_execute_point", _die_in_worker)
    engine.run_points(points(3, duration=5.0))
    assert engine.worker_failures == 1
    assert engine.done == 3
    assert engine.hits == 0
    assert [d for d, _s, _h in seen] == [1, 2, 3]


def test_persistent_pool_reused_across_batches():
    """The worker pool survives between batches (single points included)
    and is shut down by close()."""
    engine = Engine(jobs=2)
    with engine:
        engine.run_points(points(1, duration=5.0))
        first_pool = engine._executor
        assert first_pool is not None  # single point still fans out
        engine.run_points(points(2, duration=5.0))
        assert engine._executor is first_pool
    assert engine._executor is None


# -- chunked dispatch --------------------------------------------------------


def vec_points(n=5, duration=6.0):
    return [
        ScenarioPoint(
            link=link(bdp=1 + i),
            mix=(("cubic", 2), ("bbr", 2)),
            duration=duration,
            backend="fluid-vec",
        )
        for i in range(n)
    ]


def test_dispatch_units_group_cheap_points():
    engine = Engine(jobs=2)
    pending = {p.fingerprint(): p for p in points(5)}
    units = engine._dispatch_units(pending)
    assert sorted(len(unit) for unit in units) == [2, 3]
    assert {fp for unit in units for fp in unit} == set(pending)


def test_dispatch_units_keep_expensive_points_solo():
    expensive = ScenarioPoint(
        link=link(),
        mix=(("cubic", 25), ("bbr", 25)),
        duration=120.0,
        trials=10,
    )
    pending = {expensive.fingerprint(): expensive}
    for point in points(4):
        pending[point.fingerprint()] = point
    units = Engine(jobs=2)._dispatch_units(pending)
    assert [expensive.fingerprint()] in units
    assert sorted(len(unit) for unit in units) == [1, 2, 2]


def test_dispatch_units_chunking_off_or_profiling_means_solo():
    pending = {p.fingerprint(): p for p in points(5)}
    for engine in (
        Engine(jobs=2, chunking=False),
        Engine(jobs=2, profile_slowest=2),
    ):
        units = engine._dispatch_units(pending)
        assert all(len(unit) == 1 for unit in units)
        assert len(units) == 5


def test_chunked_inline_vec_pooling_matches_unchunked():
    engine = Engine(jobs=1)
    results = engine.run_points(vec_points())
    baseline = Engine(jobs=1, chunking=False).run_points(vec_points())
    assert results == baseline
    assert engine.done == engine.submitted == 5
    assert engine.simulated == 5


def test_chunked_parallel_matches_sequential():
    baseline = Engine(jobs=1, chunking=False).run_points(vec_points())
    with Engine(jobs=2) as engine:
        assert engine.run_points(vec_points()) == baseline


def test_chunked_batch_shares_duplicate_executions():
    pts = vec_points(3) + vec_points(3)
    engine = Engine(jobs=1)
    results = engine.run_points(pts)
    assert results[:3] == results[3:]
    assert engine.simulated == 3
    assert engine.done == 6


def test_del_swallows_recoverable_close_errors(monkeypatch):
    """GC-time close races (pool already torn down) are counted, not
    raised; anything unexpected escapes with context."""
    engine = Engine(jobs=1)

    def broken_close():
        raise OSError("pool machinery already gone")

    monkeypatch.setattr(engine, "close", broken_close)
    engine.__del__()  # Must not raise.
    assert engine.close_errors == 1
    assert engine.stats["close_errors"] == 1


def test_del_reraises_unexpected_close_errors(monkeypatch):
    engine = Engine(jobs=1)

    def broken_close():
        raise ValueError("not a teardown race")

    monkeypatch.setattr(engine, "close", broken_close)
    with pytest.raises(RuntimeError, match="during finalization"):
        engine.__del__()
    assert engine.close_errors == 0
