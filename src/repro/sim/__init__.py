"""Packet-level discrete-event network simulator.

This subpackage is the substrate replacing the paper's emulated-link
testbed: a deterministic event loop (:mod:`repro.sim.engine`), a drop-tail
bottleneck link (:mod:`repro.sim.link`), bulk senders/receivers with
Linux-style delivery-rate sampling (:mod:`repro.sim.endpoints`), and a
dumbbell topology builder (:mod:`repro.sim.network`).
"""

from repro.sim.aqm import RED, CoDel, make_aqm
from repro.sim.engine import EventLoop
from repro.sim.link import DelayLine, Link, LinkStats
from repro.sim.network import (
    DumbbellNetwork,
    FlowResult,
    FlowSpec,
    SimulationResult,
    run_dumbbell,
)
from repro.sim.packet import Ack, LossEvent, Packet, RateSample
from repro.sim.stats import FlowStats
from repro.sim.trace import CwndTracer, TraceSample

__all__ = [
    "RED",
    "CoDel",
    "make_aqm",
    "CwndTracer",
    "TraceSample",
    "EventLoop",
    "DelayLine",
    "Link",
    "LinkStats",
    "DumbbellNetwork",
    "FlowResult",
    "FlowSpec",
    "SimulationResult",
    "run_dumbbell",
    "Ack",
    "LossEvent",
    "Packet",
    "RateSample",
    "FlowStats",
]
