"""Dumbbell topology builder: N flows through one drop-tail bottleneck.

This reproduces the paper's testbed (Figure 2): every flow crosses the same
bottleneck link and drop-tail buffer; each flow's base RTT is realized by
per-flow propagation delay lines on the data and ACK paths, so flows may
have distinct base RTTs (as in the paper's §4.5 multi-RTT experiments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.core import Checker
    from repro.obs.bus import Telemetry
    from repro.sim.aqm import CoDelConfig, REDConfig

from repro.cc.base import make_controller
from repro.sim.endpoints import Receiver, Sender
from repro.sim.engine import EventLoop
from repro.sim.link import DelayLine, Link
from repro.sim.packet import Packet
from repro.sim.stats import FlowStats
from repro.util.config import LinkConfig


@dataclass
class FlowSpec:
    """Configuration for one flow in the dumbbell.

    Attributes:
        cc: Registered congestion-control algorithm name (e.g. ``"cubic"``).
        rtt: Base RTT in seconds; None means "use the link config's RTT".
        start_time: When the flow begins sending, in seconds.
        max_bytes: Optional transfer size — the flow stops sending once
            it has transmitted this much (short-flow workloads).
        cc_kwargs: Extra keyword arguments for the controller constructor.
    """

    cc: str
    rtt: Optional[float] = None
    start_time: float = 0.0
    max_bytes: Optional[int] = None
    cc_kwargs: Dict[str, object] = field(default_factory=dict)


@dataclass
class FlowResult:
    """Measured outcome for one flow over the measurement interval."""

    flow_id: int
    cc: str
    throughput: float  # bytes/second
    mean_rtt: Optional[float]
    min_rtt: Optional[float]
    loss_rate: float
    delivered_bytes: int
    retransmits: int = 0

    @property
    def throughput_mbps(self) -> float:
        """Throughput in Mbps, the unit used in the paper's figures."""
        return self.throughput * 8.0 / 1e6


@dataclass
class SimulationResult:
    """Outcome of one dumbbell run."""

    flows: List[FlowResult]
    duration: float
    warmup: float
    mean_queue_bytes: float
    mean_queuing_delay: float
    drop_rate: float
    events_processed: int = 0

    def by_cc(self, cc: str) -> List[FlowResult]:
        """All flow results running algorithm ``cc``."""
        return [f for f in self.flows if f.cc == cc.lower()]

    def mean_throughput(self, cc: Optional[str] = None) -> float:
        """Mean per-flow throughput (bytes/s), optionally filtered by CCA."""
        flows = self.by_cc(cc) if cc else self.flows
        if not flows:
            return 0.0
        return sum(f.throughput for f in flows) / len(flows)

    def aggregate_throughput(self, cc: Optional[str] = None) -> float:
        """Total throughput (bytes/s), optionally filtered by CCA."""
        flows = self.by_cc(cc) if cc else self.flows
        return sum(f.throughput for f in flows)


class DumbbellNetwork:
    """N senders → shared drop-tail bottleneck → N receivers.

    Args:
        link: Bottleneck configuration (capacity, base RTT, buffer depth).
        flows: One :class:`FlowSpec` per flow.
        mss: Segment size in bytes for all flows.
        red: Optional :class:`repro.sim.aqm.REDConfig` to run the
            bottleneck with RED instead of pure drop-tail (the paper's
            §5 "Taming the Zoo" direction).
        codel: Optional :class:`repro.sim.aqm.CoDelConfig` for CoDel at
            the bottleneck.  Mutually exclusive with ``red``.
            When neither is given, the AQM (and its ECN flag) is derived
            from ``link.aqm`` — the canonical scenario-schema path; the
            explicit arguments exist for direct experimentation and
            override the spec.  A non-constant ``link.capacity_trace``
            schedules bottleneck capacity changes on the event loop.
        obs: Optional telemetry bus, threaded through the event loop,
            bottleneck link, senders, and congestion controllers.  When
            the bus has a ``sample_interval``, a
            :class:`repro.sim.trace.CwndTracer` is attached that streams
            periodic controller samples onto the bus.
        check: Optional :class:`repro.check.Checker`, threaded through
            the same components as ``obs``.  Defaults to the
            process-wide checker (installed by ``--check`` or
            ``REPRO_CHECK=1``), which is usually None, i.e. disabled.
    """

    def __init__(
        self,
        link: LinkConfig,
        flows: Sequence[FlowSpec],
        mss: Optional[int] = None,
        red: Optional["REDConfig"] = None,
        codel: Optional["CoDelConfig"] = None,
        obs: Optional["Telemetry"] = None,
        check: Optional["Checker"] = None,
    ) -> None:
        from repro.check import resolve as resolve_check
        from repro.scenario import CoDelSpec, REDSpec
        from repro.sim.aqm import RED, CoDel, CoDelConfig, REDConfig

        if not flows:
            raise ValueError("at least one flow is required")
        if red is not None and codel is not None:
            raise ValueError("choose at most one AQM (red or codel)")
        check = resolve_check(check)
        self.link_config = link
        self.flow_specs = list(flows)
        self.mss = mss if mss is not None else link.mss
        self.obs = obs
        self.check = check
        self.loop = EventLoop(obs=obs, check=check)

        # Derive the AQM from the scenario spec unless explicit configs
        # override it (the legacy direct-experimentation path).
        ecn = False
        spec_aqm = getattr(link, "aqm", None)
        if red is None and codel is None and spec_aqm is not None:
            if isinstance(spec_aqm, REDSpec):
                red = REDConfig(
                    min_threshold=spec_aqm.min_frac * link.buffer_bytes,
                    max_threshold=spec_aqm.max_frac * link.buffer_bytes,
                    max_p=spec_aqm.max_p,
                    weight=spec_aqm.weight,
                    seed=spec_aqm.seed,
                )
                ecn = spec_aqm.ecn
            elif isinstance(spec_aqm, CoDelSpec):
                codel = CoDelConfig(
                    target=spec_aqm.target, interval=spec_aqm.interval
                )
                ecn = spec_aqm.ecn

        aqm = None
        if red is not None:
            aqm = RED(red)
        elif codel is not None:
            aqm = CoDel(codel)
        trace = getattr(link, "capacity_trace", None)
        dynamic = trace is not None and not trace.is_constant
        initial_scale = trace.scale_at(0.0) if dynamic else 1.0
        self.bottleneck = Link(
            loop=self.loop,
            capacity=link.capacity * initial_scale
            if dynamic
            else link.capacity,
            delay=0.0,
            buffer_bytes=link.buffer_bytes,
            deliver=self._route_data,
            aqm=aqm,
            ecn=ecn,
            obs=obs,
            check=check,
        )
        if dynamic:
            base = link.capacity
            for when, scale in trace.change_events():
                self.loop.call_at(
                    when,
                    lambda s=scale: self.bottleneck.set_capacity(base * s),
                )

        self.senders: List[Sender] = []
        self.stats: List[FlowStats] = []
        #: Per-flow forward propagation paths, indexed by flow id.
        self._data_paths: List[DelayLine] = []

        for flow_id, spec in enumerate(self.flow_specs):
            rtt = spec.rtt if spec.rtt is not None else link.rtt
            if rtt <= 0:
                raise ValueError(f"flow {flow_id}: rtt must be positive")
            cc = make_controller(spec.cc, mss=self.mss, **spec.cc_kwargs)
            cc.obs = obs
            cc.check = check
            cc.flow_id = flow_id
            stats = FlowStats(flow_id)
            sender = Sender(
                loop=self.loop,
                flow_id=flow_id,
                cc=cc,
                transmit=self.bottleneck.enqueue,
                stats=stats,
                start_time=spec.start_time,
                max_bytes=spec.max_bytes,
                obs=obs,
                check=check,
            )
            ack_path = DelayLine(self.loop, rtt / 2.0, sender.on_ack)
            receiver = Receiver(self.loop, stats, ack_path.send)
            self._data_paths.append(
                DelayLine(self.loop, rtt / 2.0, receiver.on_packet)
            )
            self.senders.append(sender)
            self.stats.append(stats)

        if obs is not None and obs.sample_interval is not None:
            from repro.sim.trace import CwndTracer

            self.tracer: Optional[CwndTracer] = CwndTracer(
                self, obs.sample_interval, obs=obs
            )
        else:
            self.tracer = None

    def _route_data(self, packet: Packet) -> None:
        self._data_paths[packet.flow_id].send(packet)

    def run(self, duration: float, warmup: float = 0.0) -> SimulationResult:
        """Run for ``duration`` seconds; measure over ``[warmup, duration]``.

        The paper's experiments average over the full 2-minute flow
        lifetime, which corresponds to ``warmup=0``; passing a positive
        warm-up excludes the startup transient instead.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if not 0 <= warmup < duration:
            raise ValueError(
                f"warmup must lie in [0, duration), got {warmup}"
            )
        self.loop.run_until(duration)
        flows = []
        for spec, stats in zip(self.flow_specs, self.stats):
            flows.append(
                FlowResult(
                    flow_id=stats.flow_id,
                    cc=spec.cc.lower(),
                    throughput=stats.throughput(warmup, duration),
                    mean_rtt=stats.mean_rtt,
                    min_rtt=stats.min_rtt,
                    loss_rate=stats.loss_rate,
                    delivered_bytes=stats.delivered_bytes,
                    retransmits=stats.retransmits,
                )
            )
        link_stats = self.bottleneck.stats
        mean_queue = link_stats.mean_occupancy(duration)
        if self.obs is not None:
            self.obs.count(
                "link.forwarded_packets", link_stats.forwarded_packets
            )
            self.obs.gauge("link.mean_queue_bytes", mean_queue)
        return SimulationResult(
            flows=flows,
            duration=duration,
            warmup=warmup,
            mean_queue_bytes=mean_queue,
            mean_queuing_delay=mean_queue / self.link_config.capacity,
            drop_rate=link_stats.drop_rate,
            events_processed=self.loop.events_processed,
        )


def run_dumbbell(
    link: LinkConfig,
    flows: Sequence[FlowSpec],
    duration: float,
    warmup: float = 0.0,
    mss: Optional[int] = None,
    red: Optional["REDConfig"] = None,
    codel: Optional["CoDelConfig"] = None,
    obs: Optional["Telemetry"] = None,
    check: Optional["Checker"] = None,
) -> SimulationResult:
    """Convenience one-shot: build a dumbbell, run it, return the result.

    ``obs`` defaults to the process-wide telemetry bus (usually None,
    i.e. disabled); pass one explicitly to instrument a single run.
    ``check`` likewise defaults to the process-wide invariant checker
    (see :mod:`repro.check`).
    """
    from repro.obs.bus import resolve

    return DumbbellNetwork(
        link,
        flows,
        mss=mss,
        red=red,
        codel=codel,
        obs=resolve(obs),
        check=check,
    ).run(duration, warmup)
