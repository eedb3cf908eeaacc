"""Population-dynamics hot path: oracle-served ticks per second.

The adoption loop's cost model is "tier 0 is nearly free": a tick asks
the tiered oracle for payoffs, and on the model tier the answer is an
in-process memo hit or one closed-form evaluation routed through
``Engine.cached_payload``.  This benchmark drives a paper-scale cell
(100 flows) under replicator dynamics with the oracle pinned to tier 0
and appends the achieved ticks/second — plus the engine-level tier-0
hit rate of a warm-cache rerun — to ``BENCH_population.json`` at the
repo root through :mod:`ledger`.  When the file already holds records
from the same machine, the run must stay within
``ledger.REGRESSION_SLACK`` of the recorded median;
a collapse means a simulation or an uncached model evaluation landed
on the per-tick path.
"""

import tempfile
import time

from ledger import Ledger, guard_regression
from repro.exec import Engine, ResultCache
from repro.population import (
    CellSpec,
    DynamicsConfig,
    TieredOracle,
    run_population,
)
from repro.util.config import LinkConfig

LEDGER = Ledger("BENCH_population.json")

#: Any machine should clear this many tier-0 ticks/s on one cell; an
#: order-of-magnitude collapse means per-tick work stopped being a
#: memo lookup.
ABSOLUTE_FLOOR_TICKS_PER_S = 20

TICKS = 60
FLOWS = 100


def _cell():
    return CellSpec(
        link=LinkConfig.from_mbps_ms(100, 40, 10),
        n_flows=FLOWS,
        label="bench",
    )


def _run(engine=None, seed=0):
    return run_population(
        [_cell()],
        dynamics=DynamicsConfig(name="replicator", step=0.5),
        ticks=TICKS,
        seed=seed,
        oracle=TieredOracle(engine=engine, force_tier=0),
    )


def _measure_ticks_per_s():
    """Best-of-5 CPU-time rate, in oracle-served ticks per second.

    ``process_time`` (not wall clock) so co-tenant load on a shared
    runner cannot masquerade as a regression; best-of so one-sided
    scheduler noise is discarded.
    """
    _run()  # Warm numpy and the model's import-time caches.
    best_elapsed = float("inf")
    for _ in range(5):
        start = time.process_time()
        _run()
        best_elapsed = min(best_elapsed, time.process_time() - start)
    return round(TICKS / best_elapsed, 1)


def _tier0_hit_rate():
    """Engine-level hit rate of a warm-cache rerun with a fresh memo.

    The second run's oracle has an empty in-process memo, so every
    distinct mix goes to ``Engine.cached_payload`` — and must come
    back from the content-addressed cache, not recomputation.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        _run(engine=Engine(jobs=1, cache=cache))
        warm = Engine(jobs=1, cache=cache)
        _run(engine=warm)
        stats = warm.stats
        return stats["cache_hits"] / max(stats["submitted"], 1)


def test_population_tick_rate_trajectory():
    """Record ticks/s + tier-0 hit rate and guard against regression.

    The measured rate is compared against the *median* of this
    machine's prior records, and a below-threshold reading is
    re-measured before it counts: a genuine structural slowdown fails
    every remeasure, while a noise spike clears on retry.
    """
    rate = _measure_ticks_per_s()
    hit_rate = _tier0_hit_rate()

    prior = LEDGER.same_machine()
    LEDGER.append(
        ticks=TICKS,
        flows=FLOWS,
        ticks_per_s=rate,
        tier0_hit_rate=round(hit_rate, 4),
    )

    assert rate > ABSOLUTE_FLOOR_TICKS_PER_S, rate
    assert hit_rate >= 0.9, (
        f"warm rerun answered only {hit_rate:.0%} of tier-0 payloads "
        "from the result cache"
    )
    history = [
        record["ticks_per_s"]
        for record in prior
        if "ticks_per_s" in record
    ]
    guard_regression(rate, history, _measure_ticks_per_s, "ticks/s")


def test_deterministic_across_engines():
    """The benchmark scenario itself honors the determinism contract."""
    cold = _run(seed=7)
    warm = _run(engine=Engine(jobs=4), seed=7)
    assert cold.final_shares == warm.final_shares
