"""Parallel scenario executor with content-addressed caching.

:class:`Engine` is the one place independent scenario points are turned
into results.  Sweeps declare their point lists (:class:`ScenarioPoint`)
and submit them through :meth:`Engine.run_points`; the engine answers
each point from the result cache when it can and fans the rest out over
a persistent ``ProcessPoolExecutor`` when ``jobs > 1``.  Cache lookups
always happen in the parent process, so hits never pay worker startup;
workers run with telemetry disabled and return picklable
:class:`~repro.experiments.runner.ScenarioResult` objects.

The worker pool is created lazily on the first parallel batch and kept
alive for the engine's lifetime (``close()`` shuts it down), so a long
campaign of small batches — e.g. the one-point-at-a-time evaluations of
an NE bisection — pays pool startup once, not per batch, and single
pending points still fan out when ``jobs > 1``.  Accounting and
submission are lock-guarded, so multiple threads (the campaign layer's
concurrent adaptive units) may drive one engine and share its workers.

Each task carries a :class:`WorkerState`: what the submitting process
has resolved (tracer, checker, profiling, fluid substrate), which the
worker installs at entry — the only way process state reaches workers.

Observability: ``exec.*`` telemetry counters as before, plus wall-clock
spans (:mod:`repro.obs.trace`) around cache lookups, point execution,
and cache stores.  Traced workers record into a process-local tracer
and ship finished spans — plus a pid/RSS heartbeat — back with each
result; the parent merges the spans so the exported trace shows one
lane per worker pid.  ``done``/``hits``
advance exactly once per submitted point, *when the point resolves*
(cache hits during the scan, executed points as results land, inline
``BrokenProcessPool`` retries when the retry finishes).

Defaults preserve the historical behavior exactly: ``jobs=1`` executes
inline (telemetry threading included) and ``cache=None`` disables
persistence.  Results are returned in submission order regardless of
completion order, and a batch containing duplicate points simulates
each distinct point once.

A process-wide *default engine* mirrors the telemetry bus convention
(:mod:`repro.obs.bus`): call chains that do not thread an engine
explicitly (the figure generators, the NE throughput functions) pick up
the installed default via :func:`resolve`, and fall back to a shared
sequential, cache-less engine.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from threading import Lock
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.exec.cache import ResultCache
from repro.exec.fingerprint import ScenarioPoint, fingerprint_payload
from repro.util.config import LinkConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: repro.experiments imports repro.exec
    # (for the figure sweeps), so the reverse edge must stay deferred.
    from repro.experiments.runner import ScenarioResult

__all__ = [
    "Engine",
    "HeartbeatFn",
    "ProgressFn",
    "WorkerState",
    "get_default",
    "set_default",
    "use",
    "resolve",
]

#: Progress callback: ``(points done, points submitted, cache hits)``,
#: all cumulative over the engine's lifetime.
ProgressFn = Callable[[int, int, int], None]

#: Worker-health callback: ``(pid, rss_kb)`` after each resolved point.
HeartbeatFn = Callable[[int, int], None]

#: Hotspot rows kept per profiled point / reported per engine.
PROFILE_ROWS = 15
HOTSPOT_ROWS = 20

#: Points whose estimated cost (flow count x duration x trials, in
#: flow-seconds) falls below this are *cheap*: per-point dispatch
#: overhead (a future, a pickle round-trip, a worker wakeup) is
#: comparable to the simulation itself, so cheap points are grouped
#: into per-worker chunks instead of submitted one per future.
CHUNK_COST_THRESHOLD = 20_000.0

#: Upper bound on points per chunk (memory guard for the vectorized
#: batch path).
CHUNK_MAX_POINTS = 32


def _point_cost(point: ScenarioPoint) -> float:
    """Estimated cost of a point in flow-seconds (x trials)."""
    flows = sum(count for _cc, count in point.mix)
    return point.duration * point.trials * max(1, flows)


def _chunkable(point: ScenarioPoint) -> bool:
    return _point_cost(point) < CHUNK_COST_THRESHOLD


def _span(tracer: Any, name: str, **args: Any):
    """A tracer span, or a no-op context when tracing is disabled."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, cat="exec", **args)


def _adopt(tracer: Any, parent_span: Optional[int]):
    """Parent a worker's spans to the submitting span (no-op untraced)."""
    if tracer is None:
        return nullcontext()
    return tracer.adopt(parent_span)


def _profile_rows(prof: Any, limit: int = PROFILE_ROWS) -> List[Dict]:
    """Reduce a cProfile run to its top rows by cumulative time."""
    rows: List[Dict] = []
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str):
            name = code
        else:
            name = (
                f"{os.path.basename(code.co_filename)}:"
                f"{code.co_firstlineno}({code.co_name})"
            )
        rows.append(
            {
                "func": name,
                "calls": entry.callcount,
                "tot_s": entry.inlinetime,
                "cum_s": entry.totaltime,
            }
        )
    rows.sort(key=lambda row: -row["cum_s"])
    return rows[:limit]


def _run_profiled(
    fn: Callable[[], "ScenarioResult"],
) -> Tuple["ScenarioResult", List[Dict]]:
    import cProfile

    prof = cProfile.Profile()
    result = prof.runcall(fn)
    return result, _profile_rows(prof)


class WorkerState(NamedTuple):
    """The submitting process's state, installed by a worker per task;
    ``parent_span`` is the span the task's spans are children of."""

    trace: bool
    parent_span: Optional[int]
    check: bool
    profile: bool
    substrate: str


def _enter_worker(state: WorkerState) -> Any:
    """Install ``state`` in this worker process; returns its tracer.

    Telemetry runs dark (a worker's bus would be discarded); spans are
    shipped back with the result, so a traced task gets a fresh tracer.
    """
    from repro import check
    from repro.experiments.runner import set_fluid_substrate
    from repro.obs import bus, trace

    bus.set_default(None)
    check.set_default(check.Checker() if state.check else None)
    set_fluid_substrate(state.substrate)
    tracer = trace.Tracer() if state.trace else None
    trace.set_default(tracer)
    return tracer


def _execute_point(
    point: ScenarioPoint, state: WorkerState
) -> Tuple["ScenarioResult", float, Dict]:
    """Worker entry: run one scenario point under ``state``.

    Returns ``(result, wall_seconds, extras)``; the wall time is
    measured inside the worker so queueing delay is not attributed to
    the simulation.  ``extras`` carries the worker's pid, max RSS, its
    drained trace spans (when tracing), and the point's profile
    hotspots (when profiling).
    """
    from repro.obs.progress import rss_self_kb

    tracer = _enter_worker(state)
    rows: List[Dict] = []
    start = perf_counter()
    with _adopt(tracer, state.parent_span):
        with _span(tracer, "point", fingerprint=point.fingerprint()[:12]):
            with _span(tracer, "simulate", backend=point.backend):
                if state.profile:
                    result, rows = _run_profiled(
                        lambda: _run_point(point, obs=None)
                    )
                else:
                    result = _run_point(point, obs=None)
    elapsed = perf_counter() - start
    extras = {
        "pid": os.getpid(),
        "rss_kb": rss_self_kb(),
        "spans": tracer.drain() if tracer is not None else [],
        "profile": rows,
    }
    return result, elapsed, extras


def _mix_request(point: ScenarioPoint) -> Dict[str, Any]:
    """A point's :func:`repro.experiments.runner.run_mix` kwargs."""
    return {
        "link": point.link,
        "mix": list(point.mix),
        "duration": point.duration,
        "warmup": point.warmup,
        "backend": point.backend,
        "trials": point.trials,
        "seed": point.seed,
        "rtts": point.rtts_dict(),
        "loss_mode": point.loss_mode,
    }


def _run_point(point: ScenarioPoint, obs: Any) -> "ScenarioResult":
    from repro.check import resolve as resolve_check
    from repro.experiments.runner import run_mix

    check = resolve_check(None)
    if check is not None:
        # Violations raised inside this point should carry its cache
        # identity (run_mix adds the scenario parameters itself).
        check.set_context(fingerprint=point.fingerprint())
    return run_mix(obs=obs, **_mix_request(point))


def _run_chunk(
    points: Sequence[ScenarioPoint], obs: Any, tracer: Any
) -> List[Tuple["ScenarioResult", float]]:
    """Execute a chunk of points, pooling the fluid-vec members.

    All ``backend="fluid-vec"`` points of the chunk run as *one*
    vectorized :func:`repro.experiments.runner.run_mix_batch` call
    (bit-identical to per-point execution — the substrate is
    batch-invariant); their shared wall time is attributed evenly.
    Other backends execute sequentially with the usual per-point spans.
    Returns ``(result, wall_seconds)`` aligned with ``points``.
    """
    from repro.experiments.runner import fluid_substrate, run_mix_batch

    outcomes: List[Optional[Tuple["ScenarioResult", float]]]
    outcomes = [None] * len(points)
    vec = [
        i
        for i, p in enumerate(points)
        if fluid_substrate(p.backend) == "fluid-vec"
    ]
    if vec:
        start = perf_counter()
        with _span(tracer, "point_batch", n=len(vec), backend="fluid-vec"):
            batch = run_mix_batch(
                [_mix_request(points[i]) for i in vec], obs=obs
            )
        share = (perf_counter() - start) / len(vec)
        for i, result in zip(vec, batch):
            outcomes[i] = (result, share)
    for i, point in enumerate(points):
        if outcomes[i] is not None:
            continue
        start = perf_counter()
        with _span(tracer, "point", fingerprint=point.fingerprint()[:12]):
            with _span(tracer, "simulate", backend=point.backend):
                result = _run_point(point, obs=obs)
        outcomes[i] = (result, perf_counter() - start)
    return outcomes  # type: ignore[return-value]  # all filled above


def _execute_chunk(
    points: Sequence[ScenarioPoint], state: WorkerState
) -> List[Tuple["ScenarioResult", float, Dict]]:
    """Worker entry: run a chunk of cheap points in one process.

    The chunked counterpart of :func:`_execute_point`: one future (and
    one pickle round-trip) covers the whole chunk.  Trace spans are
    drained once and ride with the last entry; every entry carries the
    worker's pid/RSS heartbeat.  Chunks are never profiled — the
    engine falls back to per-point dispatch when profiling is on.
    """
    from repro.obs.progress import rss_self_kb

    tracer = _enter_worker(state)
    with _adopt(tracer, state.parent_span):
        outcomes = _run_chunk(points, obs=None, tracer=tracer)
    rss_kb = rss_self_kb()
    executed = []
    for i, (result, elapsed) in enumerate(outcomes):
        spans: List = []
        if tracer is not None and i == len(outcomes) - 1:
            spans = tracer.drain()
        extras = {
            "pid": os.getpid(),
            "rss_kb": rss_kb,
            "spans": spans,
            "profile": [],
        }
        executed.append((result, elapsed, extras))
    return executed


class Engine:
    """Executes scenario points with caching and optional parallelism.

    Args:
        jobs: Maximum worker processes; 1 (the default) executes inline
            in the calling process.
        cache: A :class:`ResultCache`, or None to disable persistence.
        obs: Telemetry bus for the ``exec.*`` counters/timers; None
            resolves the process default at each call, so an engine
            created before ``obs.use(...)`` still records.
        progress: Optional callback invoked after every resolved point
            with ``(done, submitted, cache_hits)`` cumulative counts.
        tracer: A :class:`repro.obs.trace.Tracer` for wall-clock spans;
            None resolves the process default at each call.
        heartbeat: Optional callback ``(pid, rss_kb)`` after every
            executed point — the worker-health feed for
            :class:`repro.obs.progress.ProgressTracker`.
        profile_slowest: Keep cProfile hotspots for this many slowest
            executed points (0 disables); pool workers profile too.
        chunking: Group cheap points (estimated cost below
            :data:`CHUNK_COST_THRESHOLD`) into per-worker chunks, and
            pool each chunk's ``fluid-vec`` points into one vectorized
            call.  Results are identical either way; chunking only
            removes dispatch overhead.  Automatically suspended while
            profiling (profiles are per-point by construction).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        obs: Any = None,
        progress: Optional[ProgressFn] = None,
        tracer: Any = None,
        heartbeat: Optional[HeartbeatFn] = None,
        profile_slowest: int = 0,
        chunking: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if profile_slowest < 0:
            raise ValueError(
                f"profile_slowest must be >= 0, got {profile_slowest}"
            )
        self.jobs = jobs
        self.chunking = chunking
        self.cache = cache
        self.progress = progress
        self.heartbeat = heartbeat
        self.profile_slowest = profile_slowest
        self._obs = obs
        self._tracer = tracer
        self._lock = Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self.submitted = 0
        self.done = 0
        self.hits = 0
        self.misses = 0
        self.simulated = 0
        self.cache_errors = 0
        self.worker_failures = 0
        self.close_errors = 0
        #: ``[{"wall_s", "fingerprint", "rows"}]`` for the slowest
        #: profiled points, descending by wall time.
        self.profiled: List[Dict] = []

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the persistent worker pool down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        if getattr(self, "_lock", None) is None:
            return  # __init__ failed before there was a pool to close.
        try:
            self.close()
        except (OSError, RuntimeError):
            # Interpreter/pool teardown races: the executor's machinery
            # may already be gone when the GC finalizes us.  Recoverable
            # (the pool is dying anyway) — count it and move on.
            self.close_errors += 1
            try:
                obs = self._resolve_obs()
                if obs is not None:
                    obs.count("exec.close_errors")
            except Exception:
                pass  # Telemetry must never mask finalization.
        except Exception as exc:
            raise RuntimeError(
                f"Engine.close() failed during finalization: {exc}"
            ) from exc

    def _pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            return self._executor

    def _discard_pool(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    # -- telemetry ---------------------------------------------------------

    def _resolve_obs(self) -> Any:
        from repro.obs.bus import resolve as resolve_obs

        return resolve_obs(self._obs)

    def _resolve_tracer(self) -> Any:
        from repro.obs.trace import resolve as resolve_tracer

        return resolve_tracer(self._tracer)

    @property
    def stats(self) -> Dict[str, int]:
        """Cumulative execution counters, independent of telemetry."""
        return {
            "submitted": self.submitted,
            "done": self.done,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "simulated": self.simulated,
            "cache_errors": self.cache_errors,
            "worker_failures": self.worker_failures,
            "close_errors": self.close_errors,
        }

    def _notify(self) -> None:
        if self.progress is not None:
            self.progress(self.done, self.submitted, self.hits)

    def _cache_lookup(self, fingerprint: str, obs: Any) -> Optional[Dict]:
        """Parent-side cache probe with hit/miss/corruption accounting."""
        if self.cache is None:
            return None
        path = self.cache.path_for(fingerprint)
        existed = path.exists()
        payload = self.cache.get(fingerprint)
        if payload is None and existed:
            with self._lock:
                self.cache_errors += 1
            if obs is not None:
                obs.count("exec.cache.errors")
        return payload

    def _account_hit(self, obs: Any) -> None:
        """A point answered from cache: done and hits advance together."""
        with self._lock:
            self.hits += 1
            self.done += 1
        if obs is not None:
            obs.count("exec.cache.hits")
        self._notify()

    def _account_miss(self, obs: Any) -> None:
        """A point that must execute; ``done`` advances on completion."""
        with self._lock:
            self.misses += 1
        if obs is not None:
            obs.count("exec.cache.misses")

    def _complete_index(self) -> None:
        """One submitted index resolved by execution (once, ever)."""
        with self._lock:
            self.done += 1
        self._notify()

    def _record_executed(
        self,
        fingerprint: str,
        result: "ScenarioResult",
        elapsed: float,
        obs: Any,
        tracer: Any,
    ) -> None:
        with self._lock:
            self.simulated += 1
        if obs is not None:
            obs.count("exec.points.simulated")
            obs.record_time("exec.point.wall", elapsed)
        if self.cache is not None:
            with _span(tracer, "cache_store"):
                self.cache.put(fingerprint, result.to_dict())
            if obs is not None:
                obs.count("exec.cache.stores")

    def _keep_profile(
        self, fingerprint: str, elapsed: float, rows: List[Dict]
    ) -> None:
        """Retain the ``profile_slowest`` slowest points' hotspots."""
        if not rows or self.profile_slowest <= 0:
            return
        with self._lock:
            self.profiled.append(
                {
                    "wall_s": elapsed,
                    "fingerprint": fingerprint,
                    "rows": rows,
                }
            )
            self.profiled.sort(key=lambda entry: -entry["wall_s"])
            del self.profiled[self.profile_slowest:]

    def hotspots(self, limit: int = HOTSPOT_ROWS) -> List[Dict]:
        """Aggregate hotspot rows across the kept slowest points."""
        merged: Dict[str, Dict] = {}
        with self._lock:
            kept = [entry["rows"] for entry in self.profiled]
        for rows in kept:
            for row in rows:
                agg = merged.get(row["func"])
                if agg is None:
                    merged[row["func"]] = dict(row)
                else:
                    agg["calls"] += row["calls"]
                    agg["tot_s"] += row["tot_s"]
                    agg["cum_s"] += row["cum_s"]
        ranked = sorted(merged.values(), key=lambda row: -row["cum_s"])
        return ranked[:limit]

    def _absorb_extras(
        self, extras: Dict, elapsed: float, fingerprint: str, tracer: Any
    ) -> None:
        """Merge one worker result's spans/heartbeat/profile parent-side."""
        if tracer is not None and extras.get("spans"):
            tracer.merge(extras["spans"])
        if self.heartbeat is not None:
            self.heartbeat(extras.get("pid", 0), extras.get("rss_kb", 0))
        self._keep_profile(fingerprint, elapsed, extras.get("profile", []))

    # -- execution ---------------------------------------------------------

    def iter_points(
        self, points: Sequence[ScenarioPoint]
    ) -> Iterator[Tuple[int, "ScenarioResult", float]]:
        """Resolve points, yielding ``(index, result, wall_seconds)`` as
        each one completes.

        ``index`` is the point's position in the submitted sequence;
        ``wall_seconds`` is the simulation time (0.0 for cache hits).
        Cache hits are yielded first, in submission order, during the
        initial scan; simulated points follow in completion order.
        Duplicate points share one execution and yield once per index.

        This is the checkpointing surface: callers that persist partial
        progress (the campaign journal) consume this iterator so a
        killed process loses at most the in-flight points — everything
        already yielded has also been written to the result cache.
        """
        points = list(points)
        obs = self._resolve_obs()
        tracer = self._resolve_tracer()
        with self._lock:
            self.submitted += len(points)
        if obs is not None:
            obs.count("exec.points.submitted", len(points))

        from repro.experiments.runner import ScenarioResult

        # fingerprint -> indices still waiting on it (duplicates share
        # one execution).
        pending: Dict[str, List[int]] = {}
        pending_points: Dict[str, ScenarioPoint] = {}
        for i, point in enumerate(points):
            fingerprint = point.fingerprint()
            if fingerprint in pending:
                pending[fingerprint].append(i)
                self._account_miss(obs)
                continue
            with _span(tracer, "cache_lookup"):
                payload = self._cache_lookup(fingerprint, obs)
            if payload is not None:
                result = ScenarioResult.from_dict(payload)
                self._account_hit(obs)
                yield i, result, 0.0
            else:
                pending[fingerprint] = [i]
                pending_points[fingerprint] = point
                self._account_miss(obs)

        def finish(
            fingerprint: str, result: "ScenarioResult", elapsed: float
        ) -> None:
            self._record_executed(fingerprint, result, elapsed, obs, tracer)

        if self.jobs > 1 and pending_points:
            yield from self._iter_parallel(
                pending, pending_points, finish, obs, tracer
            )
        else:
            yield from self._iter_inline(
                pending, pending_points, finish, obs, tracer
            )

    def _run_inline(
        self, point: ScenarioPoint, obs: Any, tracer: Any
    ) -> Tuple["ScenarioResult", float]:
        """Execute one point in this process, spans/profile included."""
        start = perf_counter()
        with _span(tracer, "point", fingerprint=point.fingerprint()[:12]):
            with _span(tracer, "simulate", backend=point.backend):
                # Inline execution keeps the caller's telemetry wiring.
                if self.profile_slowest > 0:
                    result, rows = _run_profiled(
                        lambda: _run_point(point, obs=obs)
                    )
                else:
                    result, rows = _run_point(point, obs=obs), []
        elapsed = perf_counter() - start
        self._keep_profile(point.fingerprint(), elapsed, rows)
        if self.heartbeat is not None:
            from repro.obs.progress import rss_self_kb

            self.heartbeat(os.getpid(), rss_self_kb())
        return result, elapsed

    def _chunking_active(self) -> bool:
        """Chunk cheap points?  Suspended while profiling: profiles
        are attributed per point, and chunks are never profiled."""
        return self.chunking and self.profile_slowest == 0

    def _worker_state(self, tracer: Any) -> WorkerState:
        """What this process has resolved now, for tasks it submits."""
        from repro.check import resolve as resolve_check
        from repro.experiments.runner import fluid_substrate

        return WorkerState(
            trace=tracer is not None,
            parent_span=tracer.current_id() if tracer is not None else None,
            check=resolve_check(None) is not None,
            profile=self.profile_slowest > 0,
            substrate=fluid_substrate("fluid"),
        )

    def _iter_inline(
        self,
        pending: Dict[str, List[int]],
        pending_points: Dict[str, ScenarioPoint],
        finish: Callable[[str, "ScenarioResult", float], None],
        obs: Any,
        tracer: Any,
    ) -> Iterator[Tuple[int, "ScenarioResult", float]]:
        # Inline, only vectorizable points gain from chunking (other
        # backends would execute the same sequential loop either way);
        # pool them into batched calls and run the rest as before.
        pooled: List[str] = []
        if self._chunking_active():
            from repro.experiments.runner import fluid_substrate

            pooled = [
                fingerprint
                for fingerprint, point in pending_points.items()
                if fluid_substrate(point.backend) == "fluid-vec"
                and _chunkable(point)
            ]
        if len(pooled) < 2:
            pooled = []
        for lo in range(0, len(pooled), CHUNK_MAX_POINTS):
            unit = pooled[lo:lo + CHUNK_MAX_POINTS]
            outcomes = _run_chunk(
                [pending_points[fp] for fp in unit], obs, tracer
            )
            if self.heartbeat is not None:
                from repro.obs.progress import rss_self_kb

                self.heartbeat(os.getpid(), rss_self_kb())
            for fingerprint, (result, elapsed) in zip(unit, outcomes):
                finish(fingerprint, result, elapsed)
                for idx in pending[fingerprint]:
                    self._complete_index()
                    yield idx, result, elapsed
        pooled_set = set(pooled)
        for fingerprint, point in pending_points.items():
            if fingerprint in pooled_set:
                continue
            result, elapsed = self._run_inline(point, obs, tracer)
            finish(fingerprint, result, elapsed)
            for idx in pending[fingerprint]:
                self._complete_index()
                yield idx, result, elapsed

    def _dispatch_units(
        self, pending_points: Dict[str, ScenarioPoint]
    ) -> List[List[str]]:
        """Group fingerprints into submission units for the pool.

        Expensive points (and everything, when chunking is off) are
        solo units.  Cheap points are split into ``jobs`` roughly equal
        chunks — one per worker — capped at :data:`CHUNK_MAX_POINTS`.
        """
        if not self._chunking_active():
            return [[fp] for fp in pending_points]
        cheap = [
            fp for fp, point in pending_points.items() if _chunkable(point)
        ]
        cheap_set = set(cheap)
        units = [[fp] for fp in pending_points if fp not in cheap_set]
        if len(cheap) < 2:
            units.extend([fp] for fp in cheap)
            return units
        size = min(
            CHUNK_MAX_POINTS, -(-len(cheap) // self.jobs)  # ceil div
        )
        units.extend(
            cheap[lo:lo + size] for lo in range(0, len(cheap), size)
        )
        return units

    def _iter_parallel(
        self,
        pending: Dict[str, List[int]],
        pending_points: Dict[str, ScenarioPoint],
        finish: Callable[[str, "ScenarioResult", float], None],
        obs: Any,
        tracer: Any,
    ) -> Iterator[Tuple[int, "ScenarioResult", float]]:
        """Fan distinct points out over workers, yielding completions.

        Cheap points are grouped into per-worker chunks (one future,
        one pickle round-trip for the lot) when chunking is active;
        expensive points still get a future each.

        A dead worker poisons the whole pool (``BrokenProcessPool``) and
        would historically abort the batch, discarding every
        completed-but-unprocessed result.  Instead the pool is discarded
        (the next batch builds a fresh one), the lost points are retried
        inline exactly once — advancing ``done`` only when the retry
        lands, never twice — and ``exec.worker_failures`` is counted; a
        second failure (now in-process) propagates.
        """
        remaining = dict(pending_points)
        state = self._worker_state(tracer)
        try:
            pool = self._pool()
            futures = {}
            for unit in self._dispatch_units(pending_points):
                if len(unit) == 1:
                    future = pool.submit(
                        _execute_point, pending_points[unit[0]], state
                    )
                else:
                    future = pool.submit(
                        _execute_chunk,
                        [pending_points[fp] for fp in unit],
                        state,
                    )
                futures[future] = unit
            outstanding = set(futures)
            while outstanding:
                ready, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in ready:
                    unit = futures.pop(future)
                    # Dropping the future releases its pickled result;
                    # keeping every completed future alive for the
                    # whole batch made peak memory scale with batch
                    # size instead of with in-flight work.
                    executed = future.result()
                    if len(unit) == 1:
                        executed = [executed]
                    for fingerprint, (result, elapsed, extras) in zip(
                        unit, executed
                    ):
                        self._absorb_extras(
                            extras, elapsed, fingerprint, tracer
                        )
                        finish(fingerprint, result, elapsed)
                        del remaining[fingerprint]
                        for idx in pending[fingerprint]:
                            self._complete_index()
                            yield idx, result, elapsed
        except BrokenProcessPool:
            self._discard_pool()
            with self._lock:
                self.worker_failures += 1
            if obs is not None:
                obs.count("exec.worker_failures")
            for fingerprint, point in list(remaining.items()):
                result, elapsed = self._run_inline(point, obs, tracer)
                finish(fingerprint, result, elapsed)
                del remaining[fingerprint]
                for idx in pending[fingerprint]:
                    self._complete_index()
                    yield idx, result, elapsed

    def run_points(
        self, points: Sequence[ScenarioPoint]
    ) -> List["ScenarioResult"]:
        """Resolve every point, in submission order.

        Cache hits are answered immediately; remaining distinct points
        run inline (``jobs == 1``) or across worker processes.  All
        points of a batch are resolved before this returns.
        """
        points = list(points)
        results: List[Optional["ScenarioResult"]] = [None] * len(points)
        for index, result, _elapsed in self.iter_points(points):
            results[index] = result
        return results  # type: ignore[return-value]  # all filled above

    def run_mix(
        self,
        link: LinkConfig,
        mix: Sequence[Tuple[str, int]],
        duration: float = 60.0,
        warmup: Optional[float] = None,
        backend: str = "fluid",
        trials: int = 1,
        seed: int = 0,
        rtts: Optional[Dict[str, float]] = None,
        loss_mode: str = "proportional",
    ) -> "ScenarioResult":
        """Cached, engine-routed equivalent of
        :func:`repro.experiments.runner.run_mix`."""
        point = ScenarioPoint(
            link=link,
            mix=tuple((cc, count) for cc, count in mix),
            duration=duration,
            warmup=warmup,
            backend=backend,
            trials=trials,
            seed=seed,
            rtts=tuple(rtts.items()) if rtts else None,
            loss_mode=loss_mode,
        )
        return self.run_points([point])[0]

    def cached_payload(
        self,
        kind: str,
        params: Dict[str, Any],
        compute: Callable[[], Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Memoize an arbitrary JSON-serializable task through the cache.

        Used for scenario families that are not plain ``run_mix`` points
        (e.g. the multi-RTT group-game payoffs), so they share the same
        store, invalidation, and counters.
        """
        obs = self._resolve_obs()
        tracer = self._resolve_tracer()
        fingerprint = fingerprint_payload(kind, params)
        with self._lock:
            self.submitted += 1
        if obs is not None:
            obs.count("exec.points.submitted")
        with _span(tracer, "cache_lookup"):
            payload = self._cache_lookup(fingerprint, obs)
        if payload is not None:
            self._account_hit(obs)
            return payload
        self._account_miss(obs)
        start = perf_counter()
        with _span(tracer, "point", kind=kind):
            payload = compute()
        elapsed = perf_counter() - start
        with self._lock:
            self.simulated += 1
        if obs is not None:
            obs.count("exec.points.simulated")
            obs.record_time("exec.point.wall", elapsed)
        if self.cache is not None:
            with _span(tracer, "cache_store"):
                self.cache.put(fingerprint, payload)
            if obs is not None:
                obs.count("exec.cache.stores")
        self._complete_index()
        return payload


# -- default-engine plumbing (mirrors repro.obs.bus) -------------------------

_default: Optional[Engine] = None
_fallback: Optional[Engine] = None


def get_default() -> Optional[Engine]:
    """The installed default engine, or None when none is installed."""
    return _default


def set_default(engine: Optional[Engine]) -> None:
    """Install ``engine`` as the process-wide default (None uninstalls)."""
    global _default
    _default = engine


@contextmanager
def use(engine: Optional[Engine]) -> Iterator[Optional[Engine]]:
    """Temporarily install ``engine`` as the default."""
    previous = get_default()
    set_default(engine)
    try:
        yield engine
    finally:
        set_default(previous)


def resolve(engine: Optional[Engine]) -> Engine:
    """An explicit engine wins; else the default; else a shared
    sequential, cache-less fallback (historical behavior)."""
    if engine is not None:
        return engine
    if _default is not None:
        return _default
    global _fallback
    if _fallback is None:
        _fallback = Engine()
    return _fallback
