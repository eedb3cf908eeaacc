"""CoDel AQM (RFC 8289, simplified)."""

import pytest

from repro.sim.aqm import CoDel, make_aqm
from repro.sim.network import FlowSpec, run_dumbbell
from repro.util.config import LinkConfig


class TestCoDelStateMachine:
    def test_rfc_8289_defaults(self):
        codel = make_aqm(LinkConfig.from_mbps_ms(10, 20, 10, aqm="codel"))
        assert isinstance(codel, CoDel)
        assert codel.spec.target == pytest.approx(0.005)
        assert codel.spec.interval == pytest.approx(0.100)
        assert CoDel().spec == codel.spec

    def test_never_drops_below_target(self):
        codel = CoDel()
        now = 0.0
        for _ in range(1000):
            now += 0.001
            assert not codel.on_dequeue(now, sojourn=0.001)

    def test_no_drop_until_interval_elapses(self):
        codel = CoDel()
        # Sojourn above target, but for less than one interval.
        assert not codel.on_dequeue(0.00, 0.02)
        assert not codel.on_dequeue(0.05, 0.02)

    def test_drops_after_sustained_high_sojourn(self):
        codel = CoDel()
        now = 0.0
        dropped = 0
        for _ in range(1000):
            now += 0.001
            if codel.on_dequeue(now, sojourn=0.05):
                dropped += 1
        assert dropped > 0

    def test_drop_rate_escalates(self):
        """Drops come faster over time (interval/√count spacing)."""
        codel = CoDel()
        now = 0.0
        drop_times = []
        for _ in range(4000):
            now += 0.001
            if codel.on_dequeue(now, sojourn=0.05):
                drop_times.append(now)
        assert len(drop_times) >= 4
        gaps = [b - a for a, b in zip(drop_times, drop_times[1:])]
        assert gaps[-1] < gaps[0]

    def test_recovers_when_queue_drains(self):
        codel = CoDel()
        now = 0.0
        for _ in range(500):
            now += 0.001
            codel.on_dequeue(now, sojourn=0.05)
        assert codel._dropping
        # Sojourn back under target: dropping state clears.
        now += 0.001
        codel.on_dequeue(now, sojourn=0.001)
        now += 0.3
        assert not codel.on_dequeue(now, sojourn=0.001)
        assert not codel._dropping

    def test_enqueue_never_drops(self):
        assert not CoDel().on_enqueue(1e9)


class TestCoDelEndToEnd:
    def test_codel_holds_delay_near_target(self):
        link = LinkConfig.from_mbps_ms(10, 20, 10)
        plain = run_dumbbell(
            link, [FlowSpec("cubic")], duration=30, warmup=10
        )
        codel = run_dumbbell(
            LinkConfig.from_mbps_ms(10, 20, 10, aqm="codel"),
            [FlowSpec("cubic")],
            duration=30,
            warmup=10,
        )
        # Drop-tail CUBIC bloats the 200 ms buffer; CoDel holds the
        # standing queue within a small multiple of its 5 ms target.
        assert plain.mean_queuing_delay > 0.05
        assert codel.mean_queuing_delay < 0.03

    def test_codel_preserves_reasonable_utilization(self):
        link = LinkConfig.from_mbps_ms(10, 20, 10, aqm="codel")
        result = run_dumbbell(
            link,
            [FlowSpec("cubic")],
            duration=30,
            warmup=10,
        )
        assert result.flows[0].throughput_mbps > 7.0

    def test_bbr_wins_harder_under_codel(self):
        """CoDel removes CUBIC's buffer-filling advantage: BBR's share
        against CUBIC rises versus drop-tail."""
        link = LinkConfig.from_mbps_ms(10, 20, 10)
        flows = [FlowSpec("cubic"), FlowSpec("bbr")]
        plain = run_dumbbell(link, flows, duration=60, warmup=10)
        codel = run_dumbbell(
            LinkConfig.from_mbps_ms(10, 20, 10, aqm="codel"),
            flows,
            duration=60,
            warmup=10,
        )
        assert codel.flows[1].throughput > plain.flows[1].throughput
