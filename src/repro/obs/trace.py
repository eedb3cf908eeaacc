"""Hierarchical wall-clock span tracing (``repro.obs.trace``).

A :class:`Tracer` records *spans* — named wall-clock intervals that nest
(``campaign > stage > point > {cache_lookup, simulate, journal}``) — with
the same absence-means-disabled discipline as :mod:`repro.obs.bus` and
:mod:`repro.check`: every instrumented site holds an optional ``tracer``
and guards with a single ``if tracer is not None`` attribute test, so a
run with tracing disabled (the default) pays nothing.

Enabling mirrors :mod:`repro.obs.bus`: pass a :class:`Tracer`
explicitly or install one as the process default (:func:`set_default` /
:func:`use`).  ``--jobs`` pool workers learn from :mod:`repro.exec`
whether the submitting process traces; they record into a fresh local
tracer and ship their finished spans back with each result, and the
engine merges them parent-side, where each worker's ``pid`` becomes its
own lane.

Every span carries a ``span_id`` (unique across the processes of a
trace) and the ``parent_id`` of the span that caused it: the span open
below it on the same thread, or — for a thread or worker process that
starts work on another's behalf — the span :meth:`Tracer.adopt` names.

Export is Chrome trace-event JSON (the ``traceEvents`` object form, ids
in ``args``), loadable in Perfetto or ``chrome://tracing``;
``.json.gz`` paths are gzip-compressed transparently.
:func:`aggregate_spans` reduces a span list to per-name total/self wall
time — the ``repro-bbr trace report`` table — where *self* time
excludes the time covered by the span's children, wherever (thread,
process) they ran.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.obs.export import open_maybe_gzip

__all__ = [
    "Span",
    "SpanAggregate",
    "Tracer",
    "aggregate_spans",
    "get_default",
    "read_chrome_trace",
    "render_span_report",
    "resolve",
    "set_default",
    "use",
    "write_chrome_trace",
]

#: Chrome ``args`` keys that carry a span's id and its parent's id.
_ID_ARGS = ("span_id", "parent_id")

#: Span id sequence, shared by every tracer of the process (a worker
#: builds a fresh tracer per task) and prefixed with the pid, so ids
#: stay unique across the processes of one trace.
_ids = itertools.count(1)


def _next_id() -> int:
    return (os.getpid() << 31) | next(_ids)


@dataclass
class Span:
    """One finished wall-clock interval.

    ``start_s`` is epoch seconds (:func:`time.time`), so spans recorded
    in different processes on the same host share a timebase; ``dur_s``
    is measured with :func:`time.perf_counter` for resolution.
    ``parent_id`` is the ``span_id`` of the span this one ran under
    (None for a root).
    """

    name: str
    cat: str
    start_s: float
    dur_s: float
    pid: int
    tid: int
    args: Dict[str, Any] = field(default_factory=dict)
    span_id: Optional[int] = None
    parent_id: Optional[int] = None

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cat": self.cat,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "pid": self.pid,
            "tid": self.tid,
            "args": self.args,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            name=str(data["name"]),
            cat=str(data.get("cat", "")),
            start_s=float(data["start_s"]),
            dur_s=float(data["dur_s"]),
            pid=int(data["pid"]),
            tid=int(data.get("tid", 0)),
            args=dict(data.get("args", {})),
            span_id=data.get("span_id"),
            parent_id=data.get("parent_id"),
        )

    def to_chrome_event(self) -> Dict[str, Any]:
        """This span as a Chrome trace-event "complete" (``ph: X``)."""
        event = {
            "name": self.name,
            "cat": self.cat or "repro",
            "ph": "X",
            "ts": self.start_s * 1e6,
            "dur": self.dur_s * 1e6,
            "pid": self.pid,
            "tid": self.tid,
        }
        args = dict(self.args)
        for key in _ID_ARGS:
            if getattr(self, key) is not None:
                args[key] = getattr(self, key)
        if args:
            event["args"] = args
        return event


class _OpenSpan:
    """Book-keeping for a span that has begun but not yet ended."""

    __slots__ = (
        "name", "cat", "args", "span_id", "parent_id", "start_s",
        "start_perf",
    )

    def __init__(
        self,
        name: str,
        cat: str,
        args: Dict[str, Any],
        parent_id: Optional[int],
    ) -> None:
        self.name = name
        self.cat = cat
        self.args = args
        self.span_id = _next_id()
        self.parent_id = parent_id
        self.start_s = time.time()
        self.start_perf = time.perf_counter()


class Tracer:
    """Collects nested spans; thread-safe, bounded, merge-friendly.

    Args:
        max_spans: Cap on retained spans; once reached further spans are
            counted in :attr:`dropped_spans` instead of stored.
    """

    def __init__(self, max_spans: Optional[int] = 1_000_000) -> None:
        if max_spans is not None and max_spans <= 0:
            raise ValueError(
                f"max_spans must be positive or None, got {max_spans}"
            )
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped_spans = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_id(self) -> Optional[int]:
        """The id of the span new spans on this thread would nest in:
        the innermost open one, else the one :meth:`adopt` names."""
        stack = self._stack()
        if stack:
            return stack[-1].span_id
        return getattr(self._local, "adopted", None)

    @contextmanager
    def adopt(self, parent_id: Optional[int]) -> Iterator[None]:
        """Parent this thread's outermost spans to ``parent_id``.

        For work done on behalf of a span open elsewhere: a fan-out
        thread passes the submitting thread's :meth:`current_id`, a
        pool worker the id it was handed with its task.
        """
        previous = getattr(self._local, "adopted", None)
        self._local.adopted = parent_id
        try:
            yield
        finally:
            self._local.adopted = previous

    @contextmanager
    def span(self, name: str, cat: str = "", **args: Any) -> Iterator[None]:
        """Record the body as one span; nests via a per-thread stack."""
        open_span = _OpenSpan(name, cat, args, self.current_id())
        stack = self._stack()
        stack.append(open_span)
        try:
            yield
        finally:
            stack.pop()
            self._finish(open_span)

    def _finish(self, open_span: _OpenSpan) -> None:
        dur = time.perf_counter() - open_span.start_perf
        self.add(
            Span(
                name=open_span.name,
                cat=open_span.cat,
                start_s=open_span.start_s,
                dur_s=dur,
                pid=os.getpid(),
                tid=threading.get_ident() & 0xFFFF,
                args=open_span.args,
                span_id=open_span.span_id,
                parent_id=open_span.parent_id,
            )
        )

    def add(self, span: Span) -> None:
        """Append one finished span (bounded by ``max_spans``)."""
        with self._lock:
            if (
                self.max_spans is not None
                and len(self.spans) >= self.max_spans
            ):
                self.dropped_spans += 1
                return
            self.spans.append(span)

    # -- worker hand-off ---------------------------------------------------

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return all finished spans as picklable dicts.

        This is the worker side of the hand-off: a ``--jobs`` worker
        drains its local tracer after each point and returns the records
        with the result, so the parent can :meth:`merge` them.
        """
        with self._lock:
            spans, self.spans = self.spans, []
        return [span.to_dict() for span in spans]

    def merge(self, records: Iterable[Dict[str, Any]]) -> int:
        """Adopt spans drained from another process; returns the count.

        Each record keeps the pid it was recorded under, so merged
        worker spans render as separate per-worker lanes.
        """
        merged = 0
        for record in records:
            self.add(Span.from_dict(record))
            merged += 1
        return merged

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable summary (span count, drop count)."""
        with self._lock:
            return {
                "spans": len(self.spans),
                "dropped_spans": self.dropped_spans,
            }


# -- aggregation -------------------------------------------------------------


@dataclass
class SpanAggregate:
    """Per-name reduction over a span list."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0

    def update(self, dur_s: float, self_s: float) -> None:
        self.count += 1
        self.total_s += dur_s
        self.self_s += self_s
        if dur_s > self.max_s:
            self.max_s = dur_s


def aggregate_spans(spans: Sequence[Span]) -> List[SpanAggregate]:
    """Reduce spans to per-name count/total/self/max wall time.

    *Self* time is a span's duration minus the part of it covered by
    its children — the spans whose ``parent_id`` is its ``span_id``,
    on any thread or process.  Overlapping children (concurrent units,
    parallel worker points) are merged first, so self time lies in
    ``[0, duration]``.  Aggregates are returned sorted by descending
    self time.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    by_name: Dict[str, SpanAggregate] = {}
    for span in spans:
        covered = 0.0
        if span.span_id in children:
            covered = _covered(span, children[span.span_id])
        agg = by_name.get(span.name)
        if agg is None:
            agg = by_name[span.name] = SpanAggregate(name=span.name)
        agg.update(span.dur_s, max(0.0, span.dur_s - covered))
    return sorted(by_name.values(), key=lambda a: -a.self_s)


def _covered(parent: Span, children: Sequence[Span]) -> float:
    """Length of ``parent``'s interval that its children cover."""
    covered = 0.0
    end = parent.start_s
    for child in sorted(children, key=lambda c: c.start_s):
        lo = max(child.start_s, end)
        hi = min(child.end_s, parent.end_s)
        if hi > lo:
            covered += hi - lo
            end = hi
    return covered


def render_span_report(
    spans: Sequence[Span],
    hotspots: Optional[Sequence[Dict[str, Any]]] = None,
) -> str:
    """The ``repro-bbr trace report`` table: per-span self/total time."""
    lines: List[str] = []
    pids = sorted({span.pid for span in spans})
    lines.append(
        f"{len(spans)} spans from {len(pids)} process(es): "
        + ", ".join(str(pid) for pid in pids)
    )
    header = (
        f"{'span':<24} {'count':>7} {'total_s':>10} "
        f"{'self_s':>10} {'max_s':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for agg in aggregate_spans(spans):
        lines.append(
            f"{agg.name:<24} {agg.count:>7} {agg.total_s:>10.3f} "
            f"{agg.self_s:>10.3f} {agg.max_s:>9.3f}"
        )
    if hotspots:
        lines.append("")
        lines.append("profiled hotspots (cumulative seconds):")
        for row in hotspots:
            lines.append(
                f"  {row.get('cum_s', 0.0):>8.3f}s "
                f"{row.get('tot_s', 0.0):>8.3f}s "
                f"x{row.get('calls', 0):<8} {row.get('func', '?')}"
            )
    return "\n".join(lines)


# -- Chrome trace-event JSON -------------------------------------------------


def write_chrome_trace(
    path: str,
    spans: Sequence[Span],
    hotspots: Optional[Sequence[Dict[str, Any]]] = None,
    main_pid: Optional[int] = None,
) -> int:
    """Write spans as Chrome trace-event JSON; returns the event count.

    The object form (``{"traceEvents": [...]}``) is used so hotspot
    metadata can ride along under ``"reproHotspots"`` — viewers ignore
    unknown top-level keys.  A ``.gz`` suffix compresses transparently.
    """
    main = main_pid if main_pid is not None else os.getpid()
    events: List[Dict[str, Any]] = []
    for pid in sorted({span.pid for span in spans}):
        label = "main" if pid == main else f"worker-{pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    events.extend(span.to_chrome_event() for span in spans)
    payload: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if hotspots:
        payload["reproHotspots"] = list(hotspots)
    with open_maybe_gzip(path, "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return len(events)


def read_chrome_trace(path: str) -> "ChromeTrace":
    """Parse a Chrome trace-event JSON file written by this module."""
    with open_maybe_gzip(path, "r") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError(
            f"{path}: not a Chrome trace-event object (no traceEvents)"
        )
    events = data["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents is not a list")
    spans: List[Span] = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"{path}: traceEvents[{i}] is not an object")
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id, parent_id = (args.pop(key, None) for key in _ID_ARGS)
        spans.append(
            Span(
                name=str(event["name"]),
                cat=str(event.get("cat", "")),
                start_s=float(event["ts"]) / 1e6,
                dur_s=float(event["dur"]) / 1e6,
                pid=int(event["pid"]),
                tid=int(event.get("tid", 0)),
                args=args,
                span_id=span_id,
                parent_id=parent_id,
            )
        )
    hotspots = data.get("reproHotspots") or []
    return ChromeTrace(spans=spans, hotspots=list(hotspots))


@dataclass
class ChromeTrace:
    """Parsed contents of one Chrome trace-event JSON file."""

    spans: List[Span] = field(default_factory=list)
    hotspots: List[Dict[str, Any]] = field(default_factory=list)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def pids(self) -> List[int]:
        return sorted({span.pid for span in self.spans})


# -- process-wide default (mirrors repro.obs.bus) ----------------------------

_default: Optional[Tracer] = None


def get_default() -> Optional[Tracer]:
    """The process-wide tracer, or None (tracing disabled)."""
    return _default


def set_default(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` as the process-wide default (None disables)."""
    global _default
    _default = tracer


def resolve(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """An explicit tracer wins; otherwise the process default."""
    return tracer if tracer is not None else _default


@contextmanager
def use(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Temporarily install ``tracer`` as the process-wide default."""
    previous = get_default()
    set_default(tracer)
    try:
        yield tracer
    finally:
        set_default(previous)
