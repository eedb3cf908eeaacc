"""Congestion-control hot path: per-ACK ``on_ack`` throughput.

The laws refactor put every control-law kernel behind
:mod:`repro.cc.laws` with the ``repro.cc`` classes as thin per-ACK
adapters; this benchmark guards the cost of that indirection.  Each
algorithm's controller is driven with a synthetic ACK stream (the same
shape the packet simulator produces) and the achieved ACKs/second per
algorithm is appended to ``BENCH_cc.json`` at the repo root (through
:mod:`ledger`).  When the file already holds records from the same
machine, the run must stay within ``ledger.REGRESSION_SLACK`` of the
recorded median rate — a >5% slowdown of the hot path fails the suite
on a like-for-like machine.
"""

import time

import pytest

from ledger import Ledger, guard_regression
from repro.cc import make_controller
from repro.cc.laws import canonical_names
from repro.cc.signals import LossEvent, RateSample

LEDGER = Ledger("BENCH_cc.json")

#: Any machine should push at least this many ACKs/s through one
#: controller; an order-of-magnitude collapse means an accidental
#: allocation or import landed on the hot path.
ABSOLUTE_FLOOR_ACKS_PER_S = 20_000

ACKS = 5_000
MSS = 1500


def _drive(cc, acks=ACKS):
    """Feed a controller a synthetic bulk-transfer ACK stream."""
    rtt = 0.04
    delivered = 0
    now = 0.0
    for i in range(acks):
        delivered += MSS
        now += rtt / 10.0
        cc.on_ack(
            RateSample(
                rtt=rtt + 0.002 * (i % 7),
                delivery_rate=2e6,
                delivered=delivered,
                delivered_at_send=max(delivered - 10 * MSS, 0),
                acked_bytes=MSS,
                in_flight=10 * MSS,
                is_app_limited=False,
                now=now,
            )
        )
        if i % 500 == 499:  # Sporadic loss exercises on_loss too.
            cc.on_loss(
                LossEvent(lost_bytes=MSS, in_flight=9 * MSS, now=now)
            )
    return cc


@pytest.mark.parametrize("name", canonical_names())
def test_perf_on_ack(benchmark, name):
    benchmark(lambda: _drive(make_controller(name)))


def _measure_rate(name):
    """Best-of-5 CPU-time rate for one controller, in ACKs/second.

    ``process_time`` (not wall clock) so co-tenant load on a shared
    runner cannot masquerade as a hot-path regression; best-of so
    one-sided scheduler noise is discarded.
    """
    cc = make_controller(name)
    _drive(cc, acks=500)  # Warm up caches and filter state.
    best_elapsed = float("inf")
    for _ in range(5):
        start = time.process_time()
        _drive(cc)
        best_elapsed = min(best_elapsed, time.process_time() - start)
    return round(ACKS / best_elapsed)


def test_on_ack_throughput_trajectory():
    """Record per-algorithm ACKs/second and guard against regression.

    The measured rate is compared against the *median* of this
    machine's prior records (one fast historical outlier cannot fail
    healthy code), and a below-threshold reading is re-measured before
    it counts: a genuine structural slowdown fails every remeasure,
    while a noise spike clears on retry.
    """
    rates = {name: _measure_rate(name) for name in canonical_names()}

    prior = LEDGER.same_machine()
    LEDGER.append(acks=ACKS, acks_per_s=rates)

    assert min(rates.values()) > ABSOLUTE_FLOOR_ACKS_PER_S, rates
    for name, rate in rates.items():
        history = [
            record["acks_per_s"][name]
            for record in prior
            if name in record.get("acks_per_s", {})
        ]
        guard_regression(
            rate,
            history,
            lambda name=name: _measure_rate(name),
            "acks/s",
            label=name,
        )
