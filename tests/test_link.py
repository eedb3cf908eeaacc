"""Drop-tail bottleneck link: serialization, queuing, drops, delay."""

import random

import pytest

from repro.sim.engine import EventLoop
from repro.sim.link import DelayLine, Link
from repro.sim.packet import Packet


def make_packet(seq=0, size=1000, flow_id=0):
    return Packet(
        flow_id=flow_id,
        seq=seq,
        size=size,
        sent_time=0.0,
        delivered_at_send=0,
        delivered_time_at_send=0.0,
        app_limited=False,
        is_retransmit=False,
    )


def make_link(
    loop, delivered, capacity=1e6, delay=0.0, buffer_bytes=5000, on_drop=None
):
    return Link(
        loop=loop,
        capacity=capacity,
        delay=delay,
        buffer_bytes=buffer_bytes,
        deliver=delivered.append,
        on_drop=on_drop,
    )


def test_single_packet_serialization_time():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, capacity=1e6, delay=0.0)
    link.enqueue(make_packet(size=1000))
    loop.run_until(0.0009)
    assert delivered == []
    loop.run_until(0.0011)
    assert len(delivered) == 1


def test_propagation_delay_added_after_serialization():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, capacity=1e6, delay=0.05)
    link.enqueue(make_packet(size=1000))
    loop.run_until(0.0509)
    assert delivered == []
    loop.run_until(0.0511)
    assert len(delivered) == 1


def test_fifo_order_preserved():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered)
    for seq in range(5):
        link.enqueue(make_packet(seq=seq))
    loop.run_until(1.0)
    assert [p.seq for p in delivered] == [0, 1, 2, 3, 4]


def test_back_to_back_packets_serialize_sequentially():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, capacity=1e6)
    times = []
    link.deliver = lambda p: times.append(loop.now)
    for seq in range(3):
        link.enqueue(make_packet(seq=seq, size=1000))
    loop.run_until(1.0)
    assert times == pytest.approx([0.001, 0.002, 0.003])


def test_drop_when_buffer_full():
    loop = EventLoop()
    delivered = []
    dropped = []
    # Buffer of 2500B: the first packet goes into service (not buffered),
    # two more fit the queue, the fourth is dropped.
    link = make_link(
        loop, delivered, buffer_bytes=2500, on_drop=dropped.append
    )
    results = [link.enqueue(make_packet(seq=s, size=1000)) for s in range(4)]
    assert results == [True, True, True, False]
    assert [p.seq for p in dropped] == [3]
    loop.run_until(1.0)
    assert len(delivered) == 3
    assert link.stats.dropped_packets == 1
    assert link.stats.forwarded_packets == 3


def test_queue_drains_and_accepts_again():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, buffer_bytes=1000)
    assert link.enqueue(make_packet(seq=0))
    assert link.enqueue(make_packet(seq=1))
    assert not link.enqueue(make_packet(seq=2))  # Full.
    loop.run_until(1.0)
    assert link.enqueue(make_packet(seq=3))  # Space again.
    loop.run_until(2.0)
    assert [p.seq for p in delivered] == [0, 1, 3]


def test_queuing_delay_reflects_backlog():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, capacity=1e6, buffer_bytes=10_000)
    link.enqueue(make_packet(size=1000))  # In service.
    assert link.queuing_delay() == 0.0
    link.enqueue(make_packet(size=1000))
    assert link.queuing_delay() == pytest.approx(0.001)
    assert link.queued_packets == 1
    assert link.queued_bytes == 1000


def test_link_rate_enforced_over_many_packets():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, capacity=1e6, buffer_bytes=1e9)
    n = 100
    for seq in range(n):
        link.enqueue(make_packet(seq=seq, size=1000))
    loop.run_until(1000.0)
    # 100 packets × 1000 B at 1 MB/s = 0.1 s of serialization.
    assert loop.peek_time() is None
    assert len(delivered) == n
    assert link.stats.forwarded_bytes == n * 1000


def test_drop_rate_statistic():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, buffer_bytes=1000)
    link.enqueue(make_packet(seq=0))
    link.enqueue(make_packet(seq=1))
    link.enqueue(make_packet(seq=2))  # Dropped.
    loop.run_until(1.0)  # Forwarded counters update at service end.
    assert link.stats.drop_rate == pytest.approx(1 / 3)


def test_mean_occupancy_zero_when_unused():
    loop = EventLoop()
    link = make_link(loop, [])
    assert link.stats.mean_occupancy(10.0) == 0.0


def test_invalid_parameters():
    loop = EventLoop()
    with pytest.raises(ValueError):
        Link(loop, capacity=0, delay=0, buffer_bytes=1, deliver=print)
    with pytest.raises(ValueError):
        Link(loop, capacity=1, delay=-1, buffer_bytes=1, deliver=print)
    with pytest.raises(ValueError):
        Link(loop, capacity=1, delay=0, buffer_bytes=0, deliver=print)


def test_delay_line_delivers_after_delay():
    loop = EventLoop()
    got = []
    line = DelayLine(loop, 0.02, got.append)
    line.send("x")
    loop.run_until(0.019)
    assert got == []
    loop.run_until(0.021)
    assert got == ["x"]


def test_delay_line_preserves_order():
    loop = EventLoop()
    got = []
    line = DelayLine(loop, 0.01, got.append)
    for i in range(5):
        line.send(i)
    loop.run_until(1.0)
    assert got == [0, 1, 2, 3, 4]


def test_delay_line_rejects_negative_delay():
    with pytest.raises(ValueError):
        DelayLine(EventLoop(), -0.1, print)


class PerItemLine:
    """Reference delay line: one ``call_later`` (heap entry) per item."""

    def __init__(self, loop, delay, deliver):
        self.loop = loop
        self.delay = delay
        self.deliver = deliver

    def send(self, item):
        self.loop.call_later(self.delay, lambda: self.deliver(item))


def run_tie_script(line_cls):
    """Interleave line sends with ``call_at`` events on tying float times.

    Delays and event times are dyadic, so sums tie exactly.  Returns the
    dispatch log and, per dispatch, ``(pending, expected)`` where
    ``expected`` counts one heap entry per plain event and per non-empty
    line.
    """
    rng = random.Random(7)
    loop = EventLoop()
    log = []
    counts = []
    in_line = {}
    plain = [0]
    lines = {}

    def note():
        counts.append(
            (loop.pending(), plain[0] + sum(1 for n in in_line.values() if n))
        )

    def act(depth):
        for _ in range(rng.randrange(4)):
            name = rng.choice(sorted(lines))
            in_line[name] += 1
            lines[name].send((name, depth, len(log)))
        for _ in range(rng.randrange(3)):
            if depth < 6:
                event(loop.now + 0.125 * rng.randrange(5), depth + 1)

    def event(when, depth):
        plain[0] += 1

        def fire():
            plain[0] -= 1
            log.append((loop.now, "event", depth))
            act(depth)
            note()

        loop.call_at(when, fire)

    for name, delay in (("a", 0.5), ("b", 0.25), ("c", 0.125), ("z", 0.0)):

        def deliver(item, name=name):
            in_line[name] -= 1
            log.append((loop.now, name, item))
            if item[1] < 6:
                act(item[1] + 1)
            note()

        lines[name] = line_cls(loop, delay, deliver)
        in_line[name] = 0
    for t in range(8):
        event(0.125 * t, 0)
    loop.run_until(100.0)
    return log, counts


def test_delay_line_dispatch_matches_per_item_scheduling():
    """A line that schedules only its head dispatches every item at the
    (time, seq) place that one heap entry per item gives it."""
    log, counts = run_tie_script(DelayLine)
    reference, _ = run_tie_script(PerItemLine)
    assert len(log) > 200
    times = [t for t, *_ in log]
    assert len(times) - len(set(times)) > 100  # Plenty of exact ties.
    assert log == reference
    assert all(pending == expected for pending, expected in counts)


def test_zero_delay_output_keeps_tie_order():
    """A packet leaving a zero-delay link is delivered where a separate
    zero-delay event scheduled at service completion would run."""
    loop = EventLoop()
    log = []
    link = Link(
        loop,
        capacity=1e6,
        delay=0.0,
        buffer_bytes=5000,
        deliver=lambda p: log.append(p.seq),
    )
    link.enqueue(make_packet(seq=0, size=1000))  # Done at t = 0.001.

    def tie():
        log.append("tie")
        loop.call_later(0.0, lambda: log.append("later"))

    loop.call_at(0.001, tie)
    link.enqueue(make_packet(seq=1, size=1000))  # Done at t = 0.002.
    loop.run_until(1.0)
    assert log == ["tie", 0, "later", 1]
