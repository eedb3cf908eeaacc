"""Discrete-event simulation core.

A minimal, fast event loop built on :mod:`heapq`.  Heap entries are
``(time, sequence, callback, ...)`` tuples; the sequence number breaks
ties so that events scheduled earlier run earlier, which keeps runs
fully deterministic.  The keys ``(time, sequence)`` are unique, so the
heap never compares past them: components that keep their own FIFO of
pending work (:class:`repro.sim.link.DelayLine`) reserve a sequence
number with ``next(loop._counter)`` when the work is scheduled and push
only the FIFO's head, carrying extra fields after the callback.
"""

from __future__ import annotations

import itertools
import time
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.core import Checker
    from repro.obs.bus import Telemetry


class EventLoop:
    """A deterministic discrete-event scheduler.

    Typical use::

        loop = EventLoop()
        loop.call_at(0.0, start_flow)
        loop.run_until(120.0)

    Args:
        obs: Optional :class:`repro.obs.bus.Telemetry` bus.  When set,
            each ``run_until``/``run_all`` records its processed-event
            count (counter ``sim.events``) and wall-clock time (timer
            ``sim.run``).  The loop always maintains
            :attr:`events_processed` regardless, so runs are auditable
            even with telemetry disabled.
        check: Optional :class:`repro.check.Checker`.  When set, every
            dispatch is audited for clock monotonicity and a bounded
            pending queue (checks ``sim.clock`` / ``sim.queue_bound``).
    """

    def __init__(
        self,
        obs: Optional["Telemetry"] = None,
        check: Optional["Checker"] = None,
    ) -> None:
        self._queue: List[Tuple] = []
        self._counter = itertools.count()
        #: Current simulation time in seconds.
        self.now = 0.0
        self._running = False
        self.obs = obs
        self.check = check
        #: Total events executed by this loop across all run calls.
        self.events_processed = 0

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute time ``when``."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule event in the past: {when} < {self.now}"
            )
        heappush(self._queue, (when, next(self._counter), callback))

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        heappush(
            self._queue, (self.now + delay, next(self._counter), callback)
        )

    def run_until(self, end_time: float) -> None:
        """Run events in order until the clock reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are executed.  The clock is
        left at ``end_time`` even if the queue drains early.
        """
        self._running = True
        queue = self._queue
        obs = self.obs
        check = self.check
        wall_start = time.perf_counter() if obs is not None else 0.0
        processed = 0
        try:
            if check is None:
                while queue:
                    entry = heappop(queue)
                    when = entry[0]
                    if when > end_time:
                        heappush(queue, entry)
                        break
                    self.now = when
                    entry[2]()
                    processed += 1
                    if not self._running:
                        break
            else:
                while queue and self._running:
                    when = queue[0][0]
                    if when > end_time:
                        break
                    entry = heappop(queue)
                    check.event_loop_tick(when, self.now, len(queue))
                    self.now = when
                    entry[2]()
                    processed += 1
        finally:
            self._running = False
            self.events_processed += processed
            if obs is not None:
                obs.count("sim.events", processed)
                obs.record_time("sim.run", time.perf_counter() - wall_start)
        if self.now < end_time:
            self.now = end_time

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Run until the queue is empty; returns the number of events run.

        ``max_events`` guards against runaway self-rescheduling loops.
        """
        self._running = True
        count = 0
        queue = self._queue
        obs = self.obs
        check = self.check
        wall_start = time.perf_counter() if obs is not None else 0.0
        try:
            while queue and self._running:
                entry = heappop(queue)
                when = entry[0]
                if check is not None:
                    check.event_loop_tick(when, self.now, len(queue))
                self.now = when
                entry[2]()
                count += 1
                if count >= max_events:
                    raise RuntimeError(
                        f"event loop exceeded {max_events} events"
                    )
        finally:
            self._running = False
            self.events_processed += count
            if obs is not None:
                obs.count("sim.events", count)
                obs.record_time("sim.run", time.perf_counter() - wall_start)
        return count

    def stop(self) -> None:
        """Stop a ``run_until``/``run_all`` after the current event."""
        self._running = False

    def pending(self) -> int:
        """Number of heap entries queued (a delay line counts once)."""
        return len(self._queue)

    def peek_time(self) -> Optional[float]:
        """Time of the next event, or None if the queue is empty."""
        if not self._queue:
            return None
        return self._queue[0][0]
