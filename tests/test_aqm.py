"""RED active queue management."""

import pytest

from repro.scenario import REDSpec
from repro.sim.aqm import RED, make_aqm
from repro.sim.network import FlowSpec, run_dumbbell
from repro.util.config import LinkConfig


class TestMakeAqm:
    def test_red_thresholds_rule_of_thumb(self):
        # 10 Mbps x 20 ms = 25 kB BDP, so 24 BDP is a 600 kB buffer.
        link = LinkConfig.from_mbps_ms(10, 20, 24, aqm="red")
        assert link.buffer_bytes == pytest.approx(600_000)
        red = make_aqm(link)
        assert isinstance(red, RED)
        assert red.min_th == pytest.approx(100_000)
        assert red.max_th == pytest.approx(300_000)


class TestREDBehaviour:
    def make(self, **kwargs):
        # Thresholds at 10 kB / 30 kB of a 40 kB buffer.
        defaults = dict(
            min_frac=0.25,
            max_frac=0.75,
            max_p=0.1,
            weight=0.5,  # Fast-moving average for unit tests.
            seed=1,
        )
        defaults.update(kwargs)
        return RED(REDSpec(**defaults), buffer_bytes=40_000)

    def test_no_drops_below_min_threshold(self):
        red = self.make()
        assert not any(red.should_drop(5_000) for _ in range(100))

    def test_always_drops_above_max_threshold(self):
        red = self.make()
        for _ in range(20):
            red.should_drop(100_000)  # Pump the average up.
        assert red.should_drop(100_000)

    def test_probabilistic_region_drops_some(self):
        red = self.make()
        decisions = [red.should_drop(20_000) for _ in range(500)]
        assert any(decisions)
        assert not all(decisions)

    def test_average_is_smoothed(self):
        red = self.make(weight=0.002)
        red.should_drop(1_000_000)
        assert red.avg < 10_000  # One sample barely moves the EWMA.

    def test_deterministic_per_seed(self):
        a = self.make(seed=7)
        b = self.make(seed=7)
        queue = [15_000, 20_000, 25_000] * 50
        assert [a.should_drop(q) for q in queue] == [
            b.should_drop(q) for q in queue
        ]


class TestREDEndToEnd:
    def test_red_keeps_queue_below_droptail(self):
        link = LinkConfig.from_mbps_ms(10, 20, 8)
        flows = [FlowSpec("cubic"), FlowSpec("cubic")]
        plain = run_dumbbell(link, flows, duration=30, warmup=5)
        red = run_dumbbell(
            LinkConfig.from_mbps_ms(10, 20, 8, aqm="red"),
            flows,
            duration=30,
            warmup=5,
        )
        assert red.mean_queuing_delay < plain.mean_queuing_delay
        # Early drops happen while the physical buffer still has room.
        assert red.drop_rate > 0

    def test_red_sustains_utilization(self):
        link = LinkConfig.from_mbps_ms(10, 20, 8, aqm="red")
        result = run_dumbbell(
            link,
            [FlowSpec("cubic"), FlowSpec("cubic")],
            duration=30,
            warmup=5,
        )
        total = result.aggregate_throughput() * 8 / 1e6
        assert total > 8.0

    def test_bbr_vs_cubic_under_red(self):
        """BBR (loss-agnostic) shrugs off RED's early drops while CUBIC
        backs off on each — BBR's edge grows under RED."""
        link = LinkConfig.from_mbps_ms(10, 20, 8)
        flows = [FlowSpec("cubic"), FlowSpec("bbr")]
        plain = run_dumbbell(link, flows, duration=60, warmup=10)
        red = run_dumbbell(
            LinkConfig.from_mbps_ms(10, 20, 8, aqm="red"),
            flows,
            duration=60,
            warmup=10,
        )
        bbr_share_plain = plain.flows[1].throughput
        bbr_share_red = red.flows[1].throughput
        assert bbr_share_red > bbr_share_plain
