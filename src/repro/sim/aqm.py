"""Active queue management: RED and CoDel.

The paper's discussion (§5 "Taming the Zoo", and the Chien & Sinclair
result it cites — NE efficiency between TCP variants differs between
drop-tail and RED buffers) motivates asking how the CUBIC/BBR game
changes under AQM.  This module provides two disciplines the
packet-level bottleneck can run on top of its drop-tail buffer: classic
RED (tail early-drop on an averaged queue *size*) and CoDel (head drop
on packet *sojourn time*, RFC 8289).  Both expose the same two-hook
interface the :class:`repro.sim.link.Link` calls:
``on_enqueue(queue_bytes)`` and ``on_dequeue(now, sojourn)``.

RED:

* an EWMA of the queue size is maintained on every arrival;
* below the min threshold packets are always accepted;
* above the max threshold they are always dropped;
* in between they are dropped with probability ramping to ``max_p``,
  spread out by the standard ``count`` correction so drops are roughly
  uniformly spaced rather than bursty.

(Floyd & Jacobson 1993, with the "gentle" region omitted for clarity.)

Both are configured only by the scenario schema
(:class:`repro.scenario.REDSpec` / :class:`repro.scenario.CoDelSpec`);
:func:`make_aqm` builds the discipline a :class:`BottleneckSpec` names,
the packet twin of :func:`repro.fluidsim.aqmfluid.make_fluid_aqm`.
"""

from __future__ import annotations

import math
import random
from typing import Union

from repro.scenario.spec import BottleneckSpec, CoDelSpec, REDSpec


class RED:
    """RED drop decision state for one queue.

    Thresholds are the spec's buffer fractions resolved against
    ``buffer_bytes`` (the physical buffer of the bottleneck).
    """

    def __init__(self, spec: REDSpec, buffer_bytes: float) -> None:
        self.spec = spec
        self.min_th = spec.min_frac * buffer_bytes
        self.max_th = spec.max_frac * buffer_bytes
        self._rng = random.Random(spec.seed)
        self.avg = 0.0
        self._count = -1  # Packets since the last early drop.

    def should_drop(self, queue_bytes: float) -> bool:
        """Update the average with the instantaneous queue and decide.

        Called once per packet arrival, *before* enqueueing.
        """
        spec = self.spec
        self.avg = (1.0 - spec.weight) * self.avg + spec.weight * queue_bytes
        if self.avg < self.min_th:
            self._count = -1
            return False
        if self.avg >= self.max_th:
            self._count = 0
            return True
        self._count += 1
        base_p = (
            spec.max_p
            * (self.avg - self.min_th)
            / (self.max_th - self.min_th)
        )
        # Floyd's uniformization: p_a = p_b / (1 − count·p_b).
        denominator = 1.0 - self._count * base_p
        drop_p = base_p / denominator if denominator > 0 else 1.0
        if self._rng.random() < drop_p:
            self._count = 0
            return True
        return False

    # -- unified AQM interface used by the Link --------------------------

    def on_enqueue(self, queue_bytes: float) -> bool:
        """RED drops at enqueue time (tail drop with early detection)."""
        return self.should_drop(queue_bytes)

    def on_dequeue(self, now: float, sojourn: float) -> bool:
        """RED never drops at dequeue."""
        return False


class CoDel:
    """Controlled-Delay AQM (Nichols & Jacobson, RFC 8289, simplified).

    CoDel measures each packet's *sojourn time* through the queue and
    enters a dropping state when the sojourn has exceeded ``target`` for
    a full ``interval``; while dropping, drops are spaced at
    ``interval/√count``, which backs loss-based senders off just enough
    to hold the standing queue near ``target``.  Deployed widely (fq_codel
    is the Linux default qdisc) — the natural "modern AQM" to test the
    paper's "Taming the Zoo" question against.
    """

    def __init__(self, spec: CoDelSpec = CoDelSpec()) -> None:
        self.spec = spec
        self._first_above_time = 0.0
        self._dropping = False
        self._drop_next = 0.0
        self._count = 0

    def on_enqueue(self, queue_bytes: float) -> bool:
        """CoDel never drops at enqueue (head-drop discipline)."""
        return False

    def on_dequeue(self, now: float, sojourn: float) -> bool:
        """Decide whether the packet now exiting the queue is dropped."""
        spec = self.spec
        ok_to_drop = self._update_first_above(now, sojourn)
        if self._dropping:
            if not ok_to_drop:
                self._dropping = False
            elif now >= self._drop_next:
                self._count += 1
                self._drop_next = now + spec.interval / math.sqrt(
                    self._count
                )
                return True
            return False
        if ok_to_drop and (
            now - self._drop_next < spec.interval
            or now - self._first_above_time >= spec.interval
        ):
            self._dropping = True
            # Resume near the previous drop rate if we dropped recently.
            if now - self._drop_next < spec.interval:
                self._count = max(self._count - 2, 1)
            else:
                self._count = 1
            self._drop_next = now + spec.interval / math.sqrt(self._count)
            return True
        return False

    def _update_first_above(self, now: float, sojourn: float) -> bool:
        spec = self.spec
        if sojourn < spec.target:
            self._first_above_time = 0.0
            return False
        if self._first_above_time == 0.0:
            self._first_above_time = now + spec.interval
            return False
        return now >= self._first_above_time


def make_aqm(link: BottleneckSpec) -> Union[RED, CoDel, None]:
    """The packet AQM for ``link``, or None for drop-tail."""
    aqm = link.aqm
    if isinstance(aqm, REDSpec):
        return RED(aqm, link.buffer_bytes)
    if isinstance(aqm, CoDelSpec):
        return CoDel(aqm)
    return None
