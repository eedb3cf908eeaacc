"""Golden digests of packet-simulator outputs.

Each case runs a short dumbbell and hashes everything a result carries:
every :class:`FlowResult` field (as ``repr``), the mean queue, the drop
rate and each flow's per-bin delivery record.  The digests were recorded
before the event path was optimised, so a change to event order, float
arithmetic or bookkeeping in ``repro.sim`` that reaches the results
shows up here as a mismatch.  The ``dyadic-ties`` case makes many events
tie exactly; ``tests/test_link.py`` checks tie order event by event.

To re-record after an *intentional* behaviour change::

    PYTHONPATH=src python tests/test_packet_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Tuple

import pytest

from repro.sim.network import DumbbellNetwork, FlowSpec
from repro.util.config import LinkConfig

DURATION = 3.0

#: The shared flow set: 2 CUBIC + 2 BBR at the link's RTT.
MIX = ("cubic", "cubic", "bbr", "bbr")


def _cases() -> Dict[str, Tuple[LinkConfig, List[FlowSpec]]]:
    cases: Dict[str, Tuple[LinkConfig, List[FlowSpec]]] = {}
    mix = [FlowSpec(cc) for cc in MIX]
    for aqm, ecn in (
        ("droptail", None),
        ("red", None),
        ("codel", None),
        ("red", True),
    ):
        for bdp in (2.0, 8.0):
            link = LinkConfig.from_mbps_ms(50, 40, bdp, aqm=aqm, ecn=ecn)
            name = f"{aqm}{'+ecn' if ecn else ''}-{bdp:g}bdp"
            cases[name] = (link, mix)
    cases["mixed-rtt"] = (
        LinkConfig.from_mbps_ms(50, 40, 2.0),
        [
            FlowSpec("cubic", rtt=0.020),
            FlowSpec("cubic", rtt=0.080),
            FlowSpec("bbr", rtt=0.030, start_time=0.25),
            FlowSpec("bbr", rtt=0.060),
        ],
    )
    cases["capacity-trace"] = (
        LinkConfig.from_mbps_ms(
            50, 40, 2.0, capacity_trace="steps:1@0.5,2@1.0,2.5@0.75"
        ),
        mix,
    )
    # Dyadic service time (2**-12 s) and RTTs: many events tie exactly.
    cases["dyadic-ties"] = (
        LinkConfig(
            capacity=1500 * 4096.0, rtt=0.03125, buffer_bdp=2.0, aqm="codel"
        ),
        [
            FlowSpec("cubic"),
            FlowSpec("bbr", rtt=0.0625),
            FlowSpec("reno", rtt=0.015625),
            FlowSpec("bbr"),
        ],
    )
    for cc in ("bbr2", "copa", "vivace"):
        cases[cc] = (
            LinkConfig.from_mbps_ms(50, 40, 2.0),
            [FlowSpec(cc), FlowSpec(cc), FlowSpec("cubic")],
        )
    return cases


CASES = _cases()

GOLDEN: Dict[str, str] = {
    "bbr2": (
        "673035d7b876e6696f8517f28e2b4c1bf35386aabfbda408cecabd827b8ca663"
    ),
    "capacity-trace": (
        "63b771030b02b3fadee29026db9e086d16ee22178fd3cb32f59ab6155529ac6c"
    ),
    "codel-2bdp": (
        "1e10ebca9dc571a456a0cdc5779e4cb809fbd911580b694b3bb0bbb85c411482"
    ),
    "codel-8bdp": (
        "4b01fc2aa93f3c8ac5d1593dd087bda2d3800bf357b7324f846910f6c0620879"
    ),
    "copa": (
        "69038e95ed28897d86dc121e641e6a168e29c8d5fcc0c8e5a113275b4d94d6d3"
    ),
    "dyadic-ties": (
        "6c32056fd6b8dd43d3e86d5135be682e64e078910ba9393fc2c3685c3b4bc5c9"
    ),
    "droptail-2bdp": (
        "873be9250ce188bff8ca0ed6b1f620acae5b984286559d56ea32de40f8050061"
    ),
    "droptail-8bdp": (
        "60f3b7623cd5e204fe1ef2917e5eb37cbc3fa4f4052dc9772947e0bb379f662b"
    ),
    "mixed-rtt": (
        "4341da0ec9ba5326283f39f8ea5f7cfeae8304815d821ae69bc0af8e613d8143"
    ),
    "red+ecn-2bdp": (
        "d704f47084f6edc108336b6b5f3d62840d2f42b15290ea0aeee426e41e1eb019"
    ),
    "red+ecn-8bdp": (
        "0574f3cd5f5f8dea89cced21c2e0141b70f6ee4a30de99441b6ce75f97aba117"
    ),
    "red-2bdp": (
        "d9f9c377ba14e0dfd57b5a0f5bfd60a2fc90205e5c258991383b335eb17778de"
    ),
    "red-8bdp": (
        "186aaf614cc4e76a557acd7e47c2019fc40cf0ca08df2b5f86d67dbd5d472e00"
    ),
    "vivace": (
        "35ad596051784c18a70e6696d2a2df68a4b27b8108c99a88d8423a677983f816"
    ),
}


def digest(link: LinkConfig, flows: List[FlowSpec]) -> str:
    """sha256 over one run's results and per-bin delivery records."""
    net = DumbbellNetwork(link, flows)
    result = net.run(DURATION)
    h = hashlib.sha256()
    for flow in result.flows:
        for f in dataclasses.fields(flow):
            h.update(f"{f.name}={getattr(flow, f.name)!r};".encode())
    h.update(f"q={result.mean_queue_bytes!r};".encode())
    h.update(f"d={result.drop_rate!r};".encode())
    for stats in net.stats:
        bins = sorted(stats._bins.items())
        h.update(f"bins{stats.flow_id}={bins!r};".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_packet_outputs_match_golden(name):
    assert digest(*CASES[name]) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    for case in sorted(CASES):
        print(f'    "{case}": (\n        "{digest(*CASES[case])}"\n    ),')
