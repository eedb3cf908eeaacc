"""Property-based tests for the simulators (hypothesis).

Shorter horizons than the scenario tests — the point is invariants under
*randomized* configurations, not steady-state accuracy.
"""

from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fluidsim import FluidSpec, run_fluid
from repro.fluidsim.aqmfluid import make_fluid_aqm
from repro.scenario import CoDelSpec, REDSpec
from repro.sim.aqm import make_aqm
from repro.sim.engine import EventLoop
from repro.util.config import LinkConfig

CC_NAMES = ("cubic", "reno", "bbr", "bbr2", "copa", "vivace", "vegas")


@st.composite
def flow_mixes(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return [
        FluidSpec(draw(st.sampled_from(CC_NAMES)))
        for _ in range(n)
    ]


@st.composite
def links(draw):
    return LinkConfig.from_mbps_ms(
        draw(st.floats(min_value=5, max_value=200)),
        draw(st.floats(min_value=5, max_value=100)),
        draw(st.floats(min_value=1.2, max_value=20)),
    )


@st.composite
def aqm_specs(draw):
    """Any RED or CoDel spec the scenario schema accepts."""
    unit = st.floats(min_value=0.0, max_value=1.0)
    seconds = st.floats(min_value=0.0, max_value=1.0)
    try:
        if draw(st.booleans()):
            return REDSpec(
                min_frac=draw(unit),
                max_frac=draw(unit),
                max_p=draw(unit),
                weight=draw(unit),
                ecn=draw(st.booleans()),
                seed=draw(st.integers(min_value=0, max_value=2**31)),
            )
        return CoDelSpec(
            target=draw(seconds),
            interval=draw(seconds),
            ecn=draw(st.booleans()),
        )
    except ValueError:
        assume(False)


@given(links(), aqm_specs())
@settings(max_examples=50, deadline=None)
def test_every_accepted_aqm_spec_builds_on_both_substrates(link, aqm):
    """The schema is the only AQM validation: whatever it accepts, the
    packet and fluid substrates construct (and can decide) without
    raising, so the two can never drift apart again."""
    link = replace(link, aqm=aqm)
    dt = link.rtt / 4.0
    packet = make_aqm(link)
    fluid = make_fluid_aqm(link, dt)
    assert packet is not None and fluid is not None
    packet.on_enqueue(link.buffer_bytes)
    packet.on_dequeue(1.0, link.max_queuing_delay)
    assert fluid.tick(1.0, link.buffer_bytes, link.capacity, dt) >= 0.0


@given(links(), flow_mixes(), st.integers(min_value=0, max_value=100))
@settings(max_examples=25, deadline=None)
def test_fluid_conservation_and_bounds(link, specs, seed):
    """For any mix of any CCAs on any link: throughput never exceeds
    capacity, the queue respects the buffer, per-flow rates are
    non-negative, and delivered bytes are finite."""
    result = run_fluid(
        link, specs, duration=15, seed=seed, start_jitter=0.5
    )
    assert result.aggregate_throughput() <= link.capacity * 1.001
    assert 0 <= result.mean_queuing_delay <= link.max_queuing_delay * 1.001
    for flow in result.flows:
        assert flow.throughput >= 0
        assert flow.delivered_bytes >= 0
        assert 0 <= flow.loss_rate <= 1


@given(links(), flow_mixes(), st.integers(min_value=0, max_value=100))
@settings(max_examples=10, deadline=None)
def test_fluid_determinism(link, specs, seed):
    """Same seed → bit-identical outcome (the reproducibility contract
    behind the paper's multi-trial methodology)."""
    a = run_fluid(link, specs, duration=10, seed=seed, start_jitter=0.5)
    b = run_fluid(link, specs, duration=10, seed=seed, start_jitter=0.5)
    assert [f.throughput for f in a.flows] == [
        f.throughput for f in b.flows
    ]


@given(
    st.lists(
        st.floats(min_value=0, max_value=100),
        min_size=1,
        max_size=100,
    )
)
def test_event_loop_runs_any_schedule_in_order(times):
    loop = EventLoop()
    fired = []
    for t in times:
        loop.call_at(t, lambda t=t: fired.append(t))
    loop.run_until(101.0)
    assert fired == sorted(times)
    assert len(fired) == len(times)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=5.0),  # delay
            st.integers(min_value=0, max_value=1000),  # payload id
        ),
        min_size=1,
        max_size=50,
    )
)
def test_delay_line_is_order_preserving(items):
    """A FIFO delay line delivers everything, in send order, each after
    exactly its delay."""
    from repro.sim.link import DelayLine

    loop = EventLoop()
    got = []
    line = DelayLine(loop, 0.5, got.append)
    for gap, payload in items:
        loop.call_at(gap, lambda p=payload: line.send(p))
    loop.run_until(100.0)
    assert len(got) == len(items)
