"""Campaign specs for the benchmark workloads, generated from a seed.

Each workload is a campaign spec (the JSON authoring shape that
``repro.campaign.load_spec`` reads) plus the engine settings it runs
under.  The benchmark seed picks the simulation seeds; the scenario
grid itself is fixed.  The packet simulator draws no random numbers,
so every seed of ``packet-aqm`` simulates the same work (and writes the
same results).  See ``RATIONALE.md`` for why each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: Shape shared by the two NE workloads.  At 10 flows, 2 BDP and the
#: paper's 110 s, bisection evaluates exactly 7 splits whatever the
#: seed, so every seed does the same work (see RATIONALE.md).
NE_BUFFERS = (2.0,)
NE_FLOWS = 10
NE_DURATION = 110.0

AQM_KINDS = ("droptail", "red", "codel")
AQM_BUFFERS = (2.0, 8.0)


@dataclass(frozen=True)
class Workload:
    """One named workload: its spec and how the campaign runs it."""

    name: str
    spec: Dict[str, Any]
    jobs: int

    def spec_bytes(self) -> bytes:
        """The spec as canonical JSON bytes (stable for a seed)."""
        text = json.dumps(self.spec, indent=1, sort_keys=True)
        return (text + "\n").encode("utf-8")


def ne_bisect(seed: int) -> Workload:
    """Figure-9 adaptive stage: one bisection per buffer depth."""
    spec = {
        "name": "bench-ne-bisect",
        "description": f"NE bisection, {NE_FLOWS} flows, 100 Mbps / 40 ms",
        "expand": "grid",
        "link": {"bandwidth_mbps": 100.0, "rtt_ms": 40.0},
        "defaults": {
            "duration": NE_DURATION,
            "backend": "fluid",
            "trials": 1,
            "seed": seed,
        },
        "axes": [{"name": "buffer_bdp", "values": list(NE_BUFFERS)}],
        "stages": [
            {
                "name": "ne",
                "type": "adaptive",
                "flows": NE_FLOWS,
                "challenger": "bbr",
                "incumbent": "cubic",
                "searches": 1,
            }
        ],
    }
    return Workload("ne-bisect", spec, jobs=1)


def ne_grid(seed: int) -> Workload:
    """Every CUBIC/BBR split of ``ne_bisect`` as one zipped sweep.

    Split ``k`` runs with the seed bisection gives it
    (``spaced_seed(seed, k)``), so each point equals the point the
    bisection would simulate for that split.
    """
    from repro.experiments.runner import spaced_seed

    buffers: List[float] = []
    mixes: List[str] = []
    seeds: List[int] = []
    for buffer in NE_BUFFERS:
        for k in range(NE_FLOWS + 1):
            buffers.append(buffer)
            mixes.append(f"cubic:{NE_FLOWS - k},bbr:{k}")
            seeds.append(spaced_seed(seed, k))
    spec = {
        "name": "bench-ne-grid",
        "description": f"Exhaustive NE grid, {NE_FLOWS} flows, "
        "100 Mbps / 40 ms",
        "expand": "zip",
        "link": {"bandwidth_mbps": 100.0, "rtt_ms": 40.0},
        "defaults": {
            "duration": NE_DURATION,
            "backend": "fluid-vec",
            "trials": 1,
        },
        "axes": [
            {"name": "buffer_bdp", "values": buffers},
            {"name": "mix", "values": mixes},
            {"name": "seed", "values": seeds},
        ],
        "stages": [{"name": "grid", "type": "sweep"}],
        "metrics": ["per_flow_mbps:cubic", "per_flow_mbps:bbr"],
    }
    return Workload("ne-grid", spec, jobs=2)


def packet_aqm(seed: int) -> Workload:
    """Packet backend over AQM kind x buffer depth.

    The seed only names the points: the packet simulator draws no
    random numbers, so every seed does the same work.
    """
    spec = {
        "name": "bench-packet-aqm",
        "description": "2 CUBIC + 2 BBR, 50 Mbps, packet backend",
        "expand": "grid",
        "link": {"bandwidth_mbps": 50.0, "rtt_ms": 40.0},
        "defaults": {
            "duration": 10.0,
            "backend": "packet",
            "trials": 1,
            "seed": seed,
            "mix": "cubic:2,bbr:2",
        },
        "axes": [
            {"name": "aqm", "values": list(AQM_KINDS)},
            {"name": "buffer_bdp", "values": list(AQM_BUFFERS)},
        ],
        "stages": [{"name": "aqm", "type": "sweep"}],
    }
    return Workload("packet-aqm", spec, jobs=1)


BUILDERS = {
    "ne-bisect": ne_bisect,
    "ne-grid": ne_grid,
    "packet-aqm": packet_aqm,
}

NAMES: Tuple[str, ...] = tuple(BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; KeyError for unknown names."""
    return BUILDERS[name](seed)
