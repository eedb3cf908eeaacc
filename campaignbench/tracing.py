"""Span and count recorders wrapped around each layer's entry points.

The program is not modified: :func:`install` replaces public entry
points of ``repro`` modules with wrappers defined here, in the campaign
process, before its worker pool forks, so pool workers inherit them.
Every process appends what it recorded to its own
``<trace_dir>/trace-<pid>.jsonl``; :func:`load` merges the files and
:func:`layer_metrics` turns them into the per-layer metrics.

Two kinds of recorder:

* *Boundary spans* time every call exactly (campaign expansion, journal
  appends, sink writes, bisection, engine dispatch, cache access,
  substrate runs).  Generators are timed per resumption, so a span never
  covers work done by its consumer.
* *Hot counters* sit on per-tick and per-ACK paths.  They count every
  call and time one call in ``every``; a timed call also times the hot
  calls nested in it, so its self time is exact, and totals are
  estimated as ``mean timed time x calls``.

Hot counters assume one simulating thread per process, which holds for
every benchmark workload (adaptive stages fan out on threads only when
``jobs > 1``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: How often the hot counters time a call (1 in N).
SAMPLE_EVERY = 16

#: Spans whose waiting on pool workers is not their own time: worker
#: spans overlapping them are subtracted like in-lane children.
WAITS_ON_WORKERS = ("exec.dispatch",)

Interval = Tuple[float, float]


class Recorder:
    """Per-process span buffer, counters and hot-path statistics."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = {}
        #: name -> [calls, timed calls, timed inclusive s, timed self s,
        #: active flag]
        self.hot: Dict[str, List[float]] = {}
        #: Child-time accumulators of the timed hot calls in progress.
        self.stack: List[List[float]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, t0: float, t1: float) -> None:
        self.spans.append([name, threading.get_ident(), t0, t1])

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def hot_stat(self, name: str) -> List[float]:
        stat = self.hot.get(name)
        if stat is None:
            stat = self.hot[name] = [0, 0, 0.0, 0.0, 0]
        return stat

    def after_fork(self) -> None:
        """A forked worker starts from empty buffers of its own."""
        self.pid = os.getpid()
        self.spans.clear()
        self.counts.clear()
        for stat in self.hot.values():
            stat[:] = [0, 0, 0.0, 0.0, 0]
        self.stack.clear()

    def flush(self) -> None:
        """Append this process's new spans and its current totals."""
        record = {
            "pid": self.pid,
            "main": self.pid == self.main_pid,
            "spans": self.spans,
            "counts": self.counts,
            "hot": {k: v[:4] for k, v in self.hot.items()},
        }
        path = self.trace_dir / f"trace-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []


# -- wrappers ----------------------------------------------------------------


def _timed(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.span(name, t0, perf_counter())

    return wrapper


def _counted(rec: Recorder, name: str, fn: Callable) -> Callable:
    stat = rec.hot_stat(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stat[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _hot(
    rec: Recorder,
    name: str,
    fn: Callable,
    every: int = SAMPLE_EVERY,
    reentrant: bool = False,
) -> Callable:
    """Count every call, time one in ``every`` (and all nested in it).

    ``reentrant`` marks a method family whose overrides call each other
    through ``super()``: only the outermost call is counted.
    """
    stat = rec.hot_stat(name)
    stack = rec.stack

    def timed(args: Tuple, kwargs: Dict) -> Any:
        frame = [0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            stack.pop()
            stat[1] += 1
            stat[2] += elapsed
            stat[3] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    if reentrant:

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stat[4]:
                return fn(*args, **kwargs)
            stat[0] += 1
            stat[4] = 1
            try:
                if stack or not stat[0] % every:
                    return timed(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                stat[4] = 0

    else:

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stat[0] += 1
            if stack or not stat[0] % every:
                return timed(args, kwargs)
            return fn(*args, **kwargs)

    return wrapper


def _attributed(
    rec: Recorder, prefix: str, shared: Sequence[str], fn: Callable
) -> Callable:
    """Credit the hot stats in ``shared`` gained during ``fn`` to
    ``prefix`` (the filter is shared by the fluid and packet layers)."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        before = {name: rec.hot_stat(name)[:4] for name in shared}
        try:
            return fn(*args, **kwargs)
        finally:
            for name in shared:
                now = rec.hot_stat(name)
                into = rec.hot_stat(f"{prefix}.{name}")
                for i in range(4):
                    into[i] += now[i] - before[name][i]

    return wrapper


def _replace(module: Any, attr: str, wrapper: Callable) -> None:
    """Rebind ``module.attr`` and every ``from module import attr``
    copy held by an imported ``repro`` module."""
    original = getattr(module, attr)
    for name, other in list(sys.modules.items()):
        if other is None or not name.startswith("repro"):
            continue
        if getattr(other, attr, None) is original:
            setattr(other, attr, wrapper)


def _wrap_method(cls: type, attr: str, make: Callable) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _overrides(module: Any, attr: str) -> List[type]:
    """Classes defined in ``module`` that define ``attr`` themselves."""
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and attr in obj.__dict__
    ]


def install(trace_dir: Path) -> Recorder:
    """Wrap every layer's entry points; returns the recorder."""
    import repro.campaign.expand as expand
    import repro.campaign.journal as journal
    import repro.campaign.run  # noqa: F401  (binds expand_units)
    import repro.campaign.sink as sink
    import repro.core.game as game
    import repro.exec.cache as cache
    import repro.exec.engine as engine
    import repro.exec.fingerprint as fingerprint
    import repro.experiments.runner as runner
    import repro.fluidsim.core as fcore
    import repro.fluidsim.flows as flows
    import repro.fluidsim.vec as vec
    import repro.fluidsim.vec_laws as vec_laws
    import repro.sim.endpoints as endpoints
    import repro.sim.engine as sim_engine
    import repro.sim.link as link
    import repro.sim.network as network
    import repro.util.filters as filters

    trace_dir.mkdir(parents=True, exist_ok=True)
    rec = Recorder(trace_dir)
    os.register_at_fork(after_in_child=rec.after_fork)

    # repro.campaign
    _replace(expand, "expand_units", _timed(
        rec, "campaign.expand", expand.expand_units))
    _wrap_method(journal.Journal, "append",
                 lambda fn: _timed(rec, "campaign.journal.append", fn))

    def sink_add(fn: Callable) -> Callable:
        timed = _timed(rec, "campaign.sink", fn)

        @functools.wraps(fn)
        def wrapper(self: Any, index: int, rows: Sequence) -> Any:
            rec.count("campaign.sink.rows", len(rows))
            return timed(self, index, rows)

        return wrapper

    _wrap_method(sink.CampaignSink, "add", sink_add)
    _wrap_method(sink.CampaignSink, "flush",
                 lambda fn: _timed(rec, "campaign.sink", fn))

    # repro.core
    def bisect(fn: Callable) -> Callable:
        timed = _timed(rec, "core.bisect", fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            equilibria, evaluated = timed(*args, **kwargs)
            rec.count("core.bisect.calls")
            rec.count("core.bisect.evals", len(evaluated))
            rec.count("core.ne_rows", len(equilibria))
            return equilibria, evaluated

        return wrapper

    _replace(game, "bisect_nash", bisect(game.bisect_nash))

    # repro.exec
    def iter_points(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: Any, points: Iterable) -> Any:
            points = list(points)
            rec.count("exec.points.submitted", len(points))
            stream = fn(self, points)
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(stream)
                    except StopIteration:
                        return
                    finally:
                        rec.span("exec.dispatch", t0, perf_counter())
                    yield item
            finally:
                stream.close()

        return wrapper

    _wrap_method(engine.Engine, "iter_points", iter_points)
    _wrap_method(fingerprint.ScenarioPoint, "fingerprint",
                 lambda fn: _timed(rec, "exec.fingerprint", fn))

    def cache_get(fn: Callable) -> Callable:
        timed = _timed(rec, "exec.cache.get", fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            payload = timed(*args, **kwargs)
            rec.count("exec.cache.gets")
            if payload is not None:
                rec.count("exec.cache.get_hits")
            return payload

        return wrapper

    _wrap_method(cache.ResultCache, "get", cache_get)
    _wrap_method(cache.ResultCache, "put",
                 lambda fn: _timed(rec, "exec.cache.put", fn))
    _wrap_method(runner.ScenarioResult, "from_dict",
                 lambda fn: _timed(rec, "exec.decode", fn))

    def simulated(points: Sequence) -> None:
        rec.count("exec.points.simulated", len(points))
        rec.count("exec.sim_flow_s", sum(
            p.duration * p.trials * sum(n for _cc, n in p.mix)
            for p in points
        ))

    in_chunk = [0]

    def run_chunk(fn: Callable) -> Callable:
        timed = _timed(rec, "exec.batch", fn)

        @functools.wraps(fn)
        def wrapper(points: Sequence, *args: Any, **kwargs: Any) -> Any:
            rec.count("exec.batches")
            simulated(points)
            in_chunk[0] += 1
            try:
                return timed(points, *args, **kwargs)
            finally:
                in_chunk[0] -= 1

        return wrapper

    def run_point(fn: Callable) -> Callable:
        timed = _timed(rec, "exec.batch", fn)

        @functools.wraps(fn)
        def wrapper(point: Any, *args: Any, **kwargs: Any) -> Any:
            if in_chunk[0]:
                return fn(point, *args, **kwargs)
            rec.count("exec.batches")
            simulated([point])
            return timed(point, *args, **kwargs)

        return wrapper

    def worker_entry(fn: Callable) -> Callable:
        timed = _timed(rec, "exec.worker", fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                return timed(*args, **kwargs)
            finally:
                rec.flush()

        return wrapper

    engine._run_chunk = run_chunk(engine._run_chunk)
    engine._run_point = run_point(engine._run_point)
    engine._execute_point = worker_entry(engine._execute_point)
    engine._execute_chunk = worker_entry(engine._execute_chunk)

    # repro.fluidsim (scalar and vectorized)
    _wrap_method(filters.WindowedFilter, "update",
                 lambda fn: _hot(rec, "filter", fn))
    for cls in _overrides(flows, "tick"):
        _wrap_method(cls, "tick", lambda fn: _hot(
            rec, "fluidsim.scalar.tick", fn, reentrant=True))

    def scalar_run(fn: Callable) -> Callable:
        timed = _timed(rec, "fluidsim.scalar.run", fn)
        return _attributed(rec, "fluidsim.scalar", ("filter",), timed)

    _wrap_method(fcore.FluidSimulation, "run", scalar_run)

    for cls in _overrides(vec_laws, "tick"):
        _wrap_method(cls, "tick", lambda fn: _hot(
            rec, "fluidsim.vec.tick", fn, every=1, reentrant=True))
    _wrap_method(vec_laws.VecWindowedFilter, "update",
                 lambda fn: _hot(rec, "fluidsim.vec.filter", fn, every=1))

    def vec_run(fn: Callable) -> Callable:
        timed = _timed(rec, "fluidsim.vec.run", fn)

        @functools.wraps(fn)
        def wrapper(self: Any) -> Any:
            results = timed(self)
            rec.count("fluidsim.vec.runs")
            rec.count("fluidsim.vec.rows", self.n_points)
            rec.count("fluidsim.vec.flow_ticks",
                      int(self._steps_p[self._pf].sum()))
            return results

        return wrapper

    _wrap_method(vec.VecFluidSim, "run", vec_run)

    # repro.sim and repro.cc (packet substrate)
    def packet_run(fn: Callable) -> Callable:
        timed = _timed(rec, "sim.run", fn)
        return _attributed(rec, "sim", ("filter",), timed)

    _wrap_method(network.DumbbellNetwork, "run", packet_run)
    _wrap_method(sim_engine.EventLoop, "call_at",
                 lambda fn: _counted(rec, "sim.events", fn))
    _wrap_method(link.DelayLine, "send",
                 lambda fn: _counted(rec, "sim.delay_line.sends", fn))
    _wrap_method(endpoints.Sender, "_send_packet",
                 lambda fn: _counted(rec, "sim.packets", fn))
    _wrap_method(link.Link, "enqueue",
                 lambda fn: _hot(rec, "sim.link.enqueue", fn))
    _wrap_method(endpoints.Sender, "on_ack",
                 lambda fn: _hot(rec, "sim.sender.on_ack", fn))
    for name in ("base", "bbr", "bbr2", "copa", "cubic", "reno", "vegas",
                 "vivace"):
        module = importlib.import_module(f"repro.cc.{name}")
        for cls in _overrides(module, "on_ack"):
            _wrap_method(cls, "on_ack", lambda fn: _hot(
                rec, "cc.on_ack", fn, reentrant=True))
    return rec


# -- reading and analysis ----------------------------------------------------


def load(trace_dir: Path) -> Dict[str, Any]:
    """Merge every process's trace file.

    Returns ``{"spans": [(name, lane, t0, t1)], "main": pid,
    "counts": {...}, "hot": {name: [calls, timed, incl, self]}}`` with
    counts and hot stats summed over processes (each file's last record
    holds that process's totals).
    """
    spans: List[Tuple[str, Tuple[int, int], float, float]] = []
    counts: Dict[str, float] = {}
    hot: Dict[str, List[float]] = {}
    main = 0
    for path in sorted(trace_dir.glob("trace-*.jsonl")):
        last = None
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                for name, tid, t0, t1 in record["spans"]:
                    spans.append((name, (record["pid"], tid), t0, t1))
                last = record
        if last is None:
            continue
        if last["main"]:
            main = last["pid"]
        for name, value in last["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, stat in last["hot"].items():
            into = hot.setdefault(name, [0, 0, 0.0, 0.0])
            for i in range(4):
                into[i] += stat[i]
    return {"spans": spans, "main": main, "counts": counts, "hot": hot}


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    start = end
    for lo, hi in sorted(intervals):
        if lo > end:
            total += max(0.0, end - start)
            start, end = lo, hi
        else:
            end = max(end, hi)
    total += max(0.0, end - start)
    return total


def self_times(
    spans: Sequence[Tuple[str, Tuple[int, int], float, float]],
    main_pid: int,
    waits_on_workers: Sequence[str] = WAITS_ON_WORKERS,
) -> List[float]:
    """Self time of every span: duration minus the part of it that its
    children cover.

    Children are the spans directly nested in the same lane (process,
    thread), plus, for spans named in ``waits_on_workers``, the root
    spans of worker lanes (other processes) that overlap them.
    Overlapping children are merged before subtracting, so a span's
    self time lies in ``[0, duration]`` however many workers ran in
    parallel under it, and a lane's total self time never exceeds the
    time it was busy.
    """
    children: List[List[Interval]] = [[] for _ in spans]
    worker_roots: List[Interval] = []
    lanes: Dict[Tuple[int, int], List[int]] = {}
    for i, (_name, lane, _t0, _t1) in enumerate(spans):
        lanes.setdefault(lane, []).append(i)
    for lane, members in lanes.items():
        members.sort(key=lambda i: (spans[i][2], -spans[i][3]))
        stack: List[int] = []
        for i in members:
            t0, t1 = spans[i][2], spans[i][3]
            while stack and spans[stack[-1]][3] <= t0:
                stack.pop()
            if stack:
                children[stack[-1]].append((t0, t1))
            elif lane[0] != main_pid:
                worker_roots.append((t0, t1))
            stack.append(i)
    result = []
    for i, (name, lane, t0, t1) in enumerate(spans):
        covered = children[i]
        if name in waits_on_workers and lane[0] == main_pid:
            covered = covered + [
                (max(lo, t0), min(hi, t1))
                for lo, hi in worker_roots
                if lo < t1 and hi > t0
            ]
        clipped = [(max(lo, t0), min(hi, t1)) for lo, hi in covered]
        result.append(max(0.0, (t1 - t0) - union_length(clipped)))
    return result


def hot_estimate(stat: Sequence[float], which: int) -> float:
    """Scale the timed calls' total (2 = inclusive, 3 = self) to all
    calls; 0 when nothing was timed."""
    calls, timed = stat[0], stat[1]
    if not timed:
        return 0.0
    return stat[which] / timed * calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Per-layer metric names and units, in report order.
METRICS: Dict[str, str] = {
    "fluidsim.scalar.run_s": "s",
    "fluidsim.scalar.runs": "count",
    "fluidsim.scalar.flow_ticks_per_s": "1/s",
    "fluidsim.scalar.law_tick_s": "s",
    "fluidsim.scalar.filter_s": "s",
    "fluidsim.scalar.self_s": "s",
    "fluidsim.vec.run_s": "s",
    "fluidsim.vec.runs": "count",
    "fluidsim.vec.rows_per_run": "count",
    "fluidsim.vec.flow_ticks_per_s": "1/s",
    "fluidsim.vec.law_tick_s": "s",
    "fluidsim.vec.filter_s": "s",
    "fluidsim.vec.self_s": "s",
    "core.bisect.calls": "count",
    "core.bisect.evals_per_call": "count",
    "core.bisect.self_s": "s",
    "core.ne_rows_per_eval": "ratio",
    "exec.batches": "count",
    "exec.points_per_batch": "count",
    "exec.dispatch_self_s": "s",
    "exec.fingerprint.calls_per_point": "count",
    "exec.fingerprint_s": "s",
    "exec.cache.get_s": "s",
    "exec.cache.hit_ratio": "ratio",
    "exec.decode_s": "s",
    "exec.cache.put_s": "s",
    "exec.cache.puts": "count",
    "exec.points.simulated": "count",
    "exec.sim_flow_s_per_s": "flow-s/s",
    "campaign.expand_s": "s",
    "campaign.journal.append_s": "s",
    "campaign.journal.appends": "count",
    "campaign.sink_s": "s",
    "campaign.sink.rows": "count",
    "sim.run_s": "s",
    "sim.packets": "count",
    "sim.packets_per_s": "1/s",
    "sim.events": "count",
    "sim.events_per_packet": "ratio",
    "sim.link.enqueue_s": "s",
    "sim.delay_line.sends": "count",
    "sim.sender.on_ack_s": "s",
    "sim.self_s": "s",
    "cc.on_ack.calls": "count",
    "cc.on_ack_s": "s",
}


def layer_metrics(
    trace: Dict[str, Any], wall_s: float, ne_rows: int = -1
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one traced campaign, plus each layer's
    total self time (for naming the dominant layer).

    Only spans that start inside the traced ``run_campaign`` call
    (``bench.campaign`` in the main lane) count.  ``ne_rows`` overrides
    the NE row count for workloads that find equilibria without
    bisecting (the grid's are derived from its CSV).
    """
    spans = trace["spans"]
    main = trace["main"]
    window = [
        (t0, t1) for name, lane, t0, t1 in spans
        if name == "bench.campaign" and lane[0] == main
    ]
    lo, hi = window[0] if window else (float("-inf"), float("inf"))
    spans = [s for s in spans if lo <= s[2] and s[3] <= hi]
    selfs = self_times(spans, main)
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (name, _lane, t0, t1), self_s in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (t1 - t0)
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
    counts = trace["counts"]
    hot = trace["hot"]

    def stat(name: str) -> List[float]:
        return hot.get(name, [0, 0, 0.0, 0.0])

    m: Dict[str, float] = {}
    run_s = total.get("fluidsim.scalar.run", 0.0)
    tick = stat("fluidsim.scalar.tick")
    law_s = hot_estimate(tick, 3)
    filter_s = hot_estimate(stat("fluidsim.scalar.filter"), 2)
    m["fluidsim.scalar.run_s"] = run_s
    m["fluidsim.scalar.runs"] = calls.get("fluidsim.scalar.run", 0)
    m["fluidsim.scalar.flow_ticks_per_s"] = _ratio(tick[0], run_s)
    m["fluidsim.scalar.law_tick_s"] = law_s
    m["fluidsim.scalar.filter_s"] = filter_s
    m["fluidsim.scalar.self_s"] = max(0.0, run_s - law_s - filter_s)

    run_s = total.get("fluidsim.vec.run", 0.0)
    runs = counts.get("fluidsim.vec.runs", 0)
    law_s = hot_estimate(stat("fluidsim.vec.tick"), 3)
    filter_s = hot_estimate(stat("fluidsim.vec.filter"), 2)
    m["fluidsim.vec.run_s"] = run_s
    m["fluidsim.vec.runs"] = runs
    m["fluidsim.vec.rows_per_run"] = _ratio(
        counts.get("fluidsim.vec.rows", 0), runs)
    m["fluidsim.vec.flow_ticks_per_s"] = _ratio(
        counts.get("fluidsim.vec.flow_ticks", 0), run_s)
    m["fluidsim.vec.law_tick_s"] = law_s
    m["fluidsim.vec.filter_s"] = filter_s
    m["fluidsim.vec.self_s"] = max(0.0, run_s - law_s - filter_s)

    bisects = counts.get("core.bisect.calls", 0)
    simulated = counts.get("exec.points.simulated", 0)
    if ne_rows < 0:
        ne_rows = counts.get("core.ne_rows", 0)
    m["core.bisect.calls"] = bisects
    m["core.bisect.evals_per_call"] = _ratio(
        counts.get("core.bisect.evals", 0), bisects)
    m["core.bisect.self_s"] = own.get("core.bisect", 0.0)
    m["core.ne_rows_per_eval"] = _ratio(ne_rows, simulated)

    batches = counts.get("exec.batches", 0)
    submitted = counts.get("exec.points.submitted", 0)
    gets = counts.get("exec.cache.gets", 0)
    m["exec.batches"] = batches
    m["exec.points_per_batch"] = _ratio(simulated, batches)
    m["exec.dispatch_self_s"] = own.get("exec.dispatch", 0.0)
    m["exec.fingerprint.calls_per_point"] = _ratio(
        calls.get("exec.fingerprint", 0), submitted)
    m["exec.fingerprint_s"] = total.get("exec.fingerprint", 0.0)
    m["exec.cache.get_s"] = total.get("exec.cache.get", 0.0)
    m["exec.cache.hit_ratio"] = _ratio(
        counts.get("exec.cache.get_hits", 0), gets)
    m["exec.decode_s"] = total.get("exec.decode", 0.0)
    m["exec.cache.put_s"] = total.get("exec.cache.put", 0.0)
    m["exec.cache.puts"] = calls.get("exec.cache.put", 0)
    m["exec.points.simulated"] = simulated
    m["exec.sim_flow_s_per_s"] = _ratio(
        counts.get("exec.sim_flow_s", 0.0), wall_s)

    m["campaign.expand_s"] = total.get("campaign.expand", 0.0)
    m["campaign.journal.append_s"] = total.get(
        "campaign.journal.append", 0.0)
    m["campaign.journal.appends"] = calls.get("campaign.journal.append", 0)
    m["campaign.sink_s"] = total.get("campaign.sink", 0.0)
    m["campaign.sink.rows"] = counts.get("campaign.sink.rows", 0)

    run_s = total.get("sim.run", 0.0)
    packets = stat("sim.packets")[0]
    events = stat("sim.events")[0]
    enqueue_s = hot_estimate(stat("sim.link.enqueue"), 3)
    sender_s = hot_estimate(stat("sim.sender.on_ack"), 3)
    # The packet BBR's windowed filters are part of its control law.
    cc_s = hot_estimate(stat("cc.on_ack"), 3) + hot_estimate(
        stat("sim.filter"), 2)
    m["sim.run_s"] = run_s
    m["sim.packets"] = packets
    m["sim.packets_per_s"] = _ratio(packets, run_s)
    m["sim.events"] = events
    m["sim.events_per_packet"] = _ratio(events, packets)
    m["sim.link.enqueue_s"] = enqueue_s
    m["sim.delay_line.sends"] = stat("sim.delay_line.sends")[0]
    m["sim.sender.on_ack_s"] = sender_s
    m["sim.self_s"] = max(0.0, run_s - enqueue_s - sender_s - cc_s)
    m["cc.on_ack.calls"] = stat("cc.on_ack")[0]
    m["cc.on_ack_s"] = cc_s

    layers = {
        "fluidsim.scalar": m["fluidsim.scalar.run_s"],
        "fluidsim.vec": m["fluidsim.vec.run_s"],
        "sim": m["sim.run_s"] - cc_s,
        "cc": cc_s,
        "core": m["core.bisect.self_s"],
        "exec": sum(own.get(n, 0.0) for n in (
            "exec.dispatch", "exec.fingerprint", "exec.cache.get",
            "exec.cache.put", "exec.decode", "exec.batch",
            "exec.worker")),
        # run_campaign's own code (progress sidecars, unit glue) counts
        # as the campaign layer too.
        "campaign": sum(own.get(n, 0.0) for n in (
            "bench.campaign", "campaign.expand", "campaign.journal.append",
            "campaign.sink")),
    }
    return m, layers
