"""Scenario runner: one interface over both simulator substrates.

The experiment harness asks one question over and over: *given a link and
a mix of flows, what per-flow throughput does each CCA class get?*  This
module answers it against any substrate — ``backend="packet"`` for the
high-fidelity discrete-event simulator (1–2 flow validation figures),
``backend="fluid"`` for the fluid simulator (large NE sweeps), or
``backend="fluid-vec"`` for the vectorized fluid substrate (bitwise the
same trajectories as ``fluid``, with all trials of a scenario advanced
as one numpy batch) — with multi-trial averaging and seeded per-trial
jitter, mirroring the paper's 10-trial methodology.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import mean
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.fluidsim.core import FluidSpec, run_fluid
from repro.fluidsim.vec import (
    BatchPoint,
    run_fluid_vec,
    run_fluid_vec_batch,
)
from repro.scenario import BACKENDS, expand_mix
from repro.sim.network import FlowSpec, run_dumbbell
from repro.util.config import LinkConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.engine import Engine
    from repro.obs.bus import Telemetry

__all__ = [
    "BACKENDS",
    "FLUID_SUBSTRATE_ENV",
    "ScenarioResult",
    "distribution_throughput_fn",
    "distribution_utility_fn",
    "expand_mix",
    "fluid_substrate",
    "group_payoff_fn",
    "run_mix",
    "run_mix_batch",
    "set_fluid_substrate",
    "spaced_seed",
    "use_fluid_substrate",
]

#: Env var redirecting ``backend="fluid"`` requests to another fluid
#: substrate ("fluid-vec").  The vectorized substrate reproduces the
#: scalar trajectories bit for bit, so the redirect changes wall time
#: only — results (and therefore cache fingerprints, which key the
#: *declared* backend) are unchanged.  Read, never written.
FLUID_SUBSTRATE_ENV = "REPRO_FLUID_SUBSTRATE"

_FLUID_SUBSTRATES = ("fluid", "fluid-vec")

#: The in-process redirect; None defers to :data:`FLUID_SUBSTRATE_ENV`.
_substrate: Optional[str] = None


def fluid_substrate(backend: str) -> str:
    """The substrate that actually serves ``backend``.

    ``"fluid"`` may be redirected to ``"fluid-vec"`` in-process (the
    CLI's ``--backend fluid-vec`` on figures and campaigns) or through
    :data:`FLUID_SUBSTRATE_ENV`; every other backend maps to itself.
    """
    if backend != "fluid":
        return backend
    override = _substrate or os.environ.get(FLUID_SUBSTRATE_ENV, "")
    override = override.strip().lower()
    if not override:
        return backend
    if override not in _FLUID_SUBSTRATES:
        raise ValueError(
            f"{FLUID_SUBSTRATE_ENV} must be one of "
            f"{_FLUID_SUBSTRATES}, got {override!r}"
        )
    return override


def set_fluid_substrate(backend: Optional[str]) -> None:
    """Serve ``backend="fluid"`` via ``backend`` (None: the env var)."""
    global _substrate
    if backend is not None and backend not in _FLUID_SUBSTRATES:
        raise ValueError(
            f"fluid substrate must be one of {_FLUID_SUBSTRATES}, "
            f"got {backend!r}"
        )
    _substrate = backend


@contextmanager
def use_fluid_substrate(backend: Optional[str]) -> Iterator[None]:
    """Temporarily serve ``backend="fluid"`` requests via ``backend``.

    ``None`` or ``"fluid"`` is a no-op.  Engine pool workers follow
    the redirect: the engine hands it over with each task.
    """
    if backend in (None, "fluid"):
        yield
        return
    previous = _substrate
    set_fluid_substrate(backend)
    try:
        yield
    finally:
        set_fluid_substrate(previous)


def spaced_seed(seed: int, k: int) -> int:
    """A collision-free per-point base seed for distribution sweeps.

    Trial ``t`` of point ``k`` runs with ``spaced_seed(seed, k) + t``.
    The old ``seed + 1000 * k`` spacing collided with the per-trial
    offsets whenever ``trials > 1000`` (or when adjacent ``k`` grids
    were combined), silently reusing jitter between points.  Hashing
    into a 2**56 space keeps any realistic trial count disjoint while
    remaining deterministic in ``(seed, k)``.
    """
    digest = hashlib.sha256(f"{seed}:{k}".encode("ascii")).digest()
    return int.from_bytes(digest[:7], "big")


@dataclass(frozen=True)
class ScenarioResult:
    """Per-CCA scenario aggregates, averaged over trials.

    Attributes:
        per_flow: Mean per-flow throughput by CCA (bytes/second).
        aggregate: Total throughput by CCA (bytes/second).
        mean_queuing_delay: Mean bottleneck queuing delay (seconds).
        loss_rate: Mean per-flow loss rate by CCA (fraction of sent
            data lost; bytes for the fluid backend, packets for the
            packet backend).
        retransmits: Mean per-flow retransmission count by CCA.
        drop_rate: Bottleneck drop rate (shared by all flows).
    """

    per_flow: Dict[str, float]
    aggregate: Dict[str, float]
    mean_queuing_delay: float
    loss_rate: Dict[str, float] = field(default_factory=dict)
    retransmits: Dict[str, float] = field(default_factory=dict)
    drop_rate: float = 0.0

    def per_flow_mbps(self, cc: str) -> float:
        """Per-flow mean throughput of class ``cc`` in Mbps."""
        return self.per_flow.get(cc, 0.0) * 8.0 / 1e6

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable form (the result-cache payload)."""
        return {
            "per_flow": dict(self.per_flow),
            "aggregate": dict(self.aggregate),
            "mean_queuing_delay": self.mean_queuing_delay,
            "loss_rate": dict(self.loss_rate),
            "retransmits": dict(self.retransmits),
            "drop_rate": self.drop_rate,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output (exact floats)."""
        return cls(
            per_flow=dict(data["per_flow"]),
            aggregate=dict(data["aggregate"]),
            mean_queuing_delay=data["mean_queuing_delay"],
            loss_rate=dict(data.get("loss_rate", {})),
            retransmits=dict(data.get("retransmits", {})),
            drop_rate=data.get("drop_rate", 0.0),
        )


def run_mix(
    link: LinkConfig,
    mix: Sequence[Tuple[str, int]],
    duration: float = 60.0,
    warmup: Optional[float] = None,
    backend: str = "fluid",
    trials: int = 1,
    seed: int = 0,
    rtts: Optional[Dict[str, float]] = None,
    loss_mode: str = "proportional",
    obs: Optional["Telemetry"] = None,
) -> ScenarioResult:
    """Run a flow mix and return per-CCA mean throughputs.

    Args:
        link: Bottleneck configuration.
        mix: Pairs of (cc name, flow count), e.g. ``[("cubic", 5),
            ("bbr", 5)]``.  Zero counts are allowed and skipped.
        duration: Flow lifetime per trial (the paper uses 120 s).
        warmup: Measurement exclusion window; defaults to ``duration/6``
            to skip the startup transient.
        backend: ``"packet"``, ``"fluid"``, or ``"fluid-vec"``.
        trials: Trials to average; trial ``t`` uses seed ``seed + t``.
        seed: Base RNG seed (fluid backend jitter / loss lottery).
        rtts: Optional per-CCA base RTT override in seconds.
        loss_mode: Fluid-backend CUBIC synchronization mode.
        obs: Optional telemetry bus threaded into the substrate;
            defaults to the process-wide bus (usually disabled).
    """
    warmup = _validate_mix_args(backend, trials, duration, warmup)
    backend = fluid_substrate(backend)

    from repro.check import resolve as resolve_check
    from repro.obs.bus import resolve

    obs = resolve(obs)
    check = resolve_check(None)
    if check is not None:
        check.set_context(
            backend=backend,
            mix=[[cc, count] for cc, count in mix],
            duration=duration,
            warmup=warmup,
            seed=seed,
        )

    if backend == "fluid-vec":
        trial_results = run_fluid_vec_batch(
            _vec_trial_points(
                link, mix, duration, warmup, trials, seed, rtts, loss_mode
            ),
            obs=obs,
            check=check,
        )
    else:
        trial_results = [
            _run_once(
                link,
                mix,
                duration,
                warmup,
                backend,
                seed + trial,
                rtts,
                loss_mode,
                obs,
            )
            for trial in range(trials)
        ]
    return _aggregate_trials(mix, trial_results)


def run_mix_batch(
    requests: Sequence[Dict[str, Any]],
    obs: Optional["Telemetry"] = None,
) -> List[ScenarioResult]:
    """Run several :func:`run_mix` requests, batching fluid-vec work.

    Each request is a mapping of :func:`run_mix` keyword arguments
    (minus ``obs``); results come back in request order.  Every trial
    of every ``backend="fluid-vec"`` request is pooled into a *single*
    vectorized simulation — the execution engine's chunked dispatch
    relies on this to amortize tick overhead across whole sweeps.
    Other backends fall back to sequential :func:`run_mix` calls.  The
    vectorized substrate is batch-invariant bit for bit, so the
    returned results are identical to per-request calls.
    """
    from repro.check import resolve as resolve_check
    from repro.obs.bus import resolve

    obs = resolve(obs)
    results: List[Optional[ScenarioResult]] = [None] * len(requests)
    vec_points: List[BatchPoint] = []
    vec_slots: List[Tuple[int, Sequence[Tuple[str, int]], int]] = []
    for index, request in enumerate(requests):
        declared = request.get("backend", "fluid")
        if fluid_substrate(declared) == "fluid-vec":
            warmup = _validate_mix_args(
                declared,
                request.get("trials", 1),
                request.get("duration", 60.0),
                request.get("warmup"),
            )
            points = _vec_trial_points(
                request["link"],
                request["mix"],
                request.get("duration", 60.0),
                warmup,
                request.get("trials", 1),
                request.get("seed", 0),
                request.get("rtts"),
                request.get("loss_mode", "proportional"),
            )
            vec_slots.append((index, request["mix"], len(points)))
            vec_points.extend(points)
        else:
            results[index] = run_mix(obs=obs, **request)
    if vec_points:
        check = resolve_check(None)
        if check is not None:
            check.set_context(
                backend="fluid-vec", batched_points=len(vec_points)
            )
        sims = run_fluid_vec_batch(vec_points, obs=obs, check=check)
        cursor = 0
        for index, mix, count in vec_slots:
            results[index] = _aggregate_trials(
                mix, sims[cursor:cursor + count]
            )
            cursor += count
    return results  # type: ignore[return-value]


def _validate_mix_args(
    backend: str,
    trials: int,
    duration: float,
    warmup: Optional[float],
) -> float:
    """Shared run_mix argument validation; returns the resolved warmup."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if warmup is None:
        warmup = duration / 6.0
    if not 0 <= warmup < duration:
        raise ValueError(
            f"warmup must lie in [0, duration), got warmup={warmup} "
            f"with duration={duration}"
        )
    return warmup


def _vec_trial_points(
    link: LinkConfig,
    mix: Sequence[Tuple[str, int]],
    duration: float,
    warmup: float,
    trials: int,
    seed: int,
    rtts: Optional[Dict[str, float]],
    loss_mode: str,
) -> List[BatchPoint]:
    """One :class:`BatchPoint` per trial, seeded exactly like the
    sequential trial loop (trial ``t`` runs with ``seed + t``)."""
    flows = tuple(
        FluidSpec(cc=cc, rtt=rtt) for cc, rtt in expand_mix(mix, rtts)
    )
    return [
        BatchPoint(
            link=link,
            flows=flows,
            duration=duration,
            warmup=warmup,
            loss_mode=loss_mode,
            seed=seed + trial,
            start_jitter=min(1.0, duration / 30.0),
        )
        for trial in range(trials)
    ]


def _aggregate_trials(
    mix: Sequence[Tuple[str, int]],
    trial_results: Sequence[Any],
) -> ScenarioResult:
    """Average per-trial simulation results into a ScenarioResult."""
    per_flow_samples: Dict[str, List[float]] = {}
    aggregate_samples: Dict[str, List[float]] = {}
    loss_samples: Dict[str, List[float]] = {}
    retx_samples: Dict[str, List[float]] = {}
    delay_samples: List[float] = []
    drop_samples: List[float] = []
    for result in trial_results:
        delay_samples.append(result.mean_queuing_delay)
        drop_samples.append(result.drop_rate)
        for cc, _count in mix:
            cc = cc.lower()
            flows = result.by_cc(cc)
            if not flows:
                continue
            per_flow_samples.setdefault(cc, []).append(
                result.mean_throughput(cc)
            )
            aggregate_samples.setdefault(cc, []).append(
                result.aggregate_throughput(cc)
            )
            loss_samples.setdefault(cc, []).append(
                mean(f.loss_rate for f in flows)
            )
            retx_samples.setdefault(cc, []).append(
                mean(f.retransmits for f in flows)
            )

    return ScenarioResult(
        per_flow={cc: mean(v) for cc, v in per_flow_samples.items()},
        aggregate={cc: mean(v) for cc, v in aggregate_samples.items()},
        mean_queuing_delay=mean(delay_samples),
        loss_rate={cc: mean(v) for cc, v in loss_samples.items()},
        retransmits={cc: mean(v) for cc, v in retx_samples.items()},
        drop_rate=mean(drop_samples),
    )


def _run_once(
    link: LinkConfig,
    mix: Sequence[Tuple[str, int]],
    duration: float,
    warmup: float,
    backend: str,
    seed: int,
    rtts: Optional[Dict[str, float]],
    loss_mode: str,
    obs: Optional["Telemetry"] = None,
):
    flows = expand_mix(mix, rtts)
    if backend == "packet":
        specs = [FlowSpec(cc=cc, rtt=rtt) for cc, rtt in flows]
        return run_dumbbell(
            link, specs, duration=duration, warmup=warmup, obs=obs
        )
    fluid_specs = [FluidSpec(cc=cc, rtt=rtt) for cc, rtt in flows]
    run = run_fluid_vec if backend == "fluid-vec" else run_fluid
    return run(
        link,
        fluid_specs,
        duration=duration,
        warmup=warmup,
        seed=seed,
        start_jitter=min(1.0, duration / 30.0),
        loss_mode=loss_mode,
        obs=obs,
    )


def distribution_throughput_fn(
    link: LinkConfig,
    n_flows: int,
    challenger: str = "bbr",
    incumbent: str = "cubic",
    duration: float = 60.0,
    backend: str = "fluid",
    trials: int = 1,
    seed: int = 0,
    engine: Optional["Engine"] = None,
):
    """Build a §4.4-style throughput function over distributions.

    Returns ``fn(k) -> (per-flow incumbent λ, per-flow challenger λ)`` for
    ``k`` challenger flows out of ``n_flows`` — the shape
    :class:`repro.core.game.ThroughputTable` and
    :func:`repro.core.game.bisect_nash` consume.  Evaluations route
    through the execution engine (explicit, installed default, or the
    sequential fallback), so identical distribution points are reused
    across sweeps when a result cache is configured.
    """

    def fn(k: int) -> Tuple[float, float]:
        if not 0 <= k <= n_flows:
            raise ValueError(f"k must be in [0, {n_flows}], got {k}")
        from repro.exec.engine import resolve as resolve_engine

        result = resolve_engine(engine).run_mix(
            link,
            [(incumbent, n_flows - k), (challenger, k)],
            duration=duration,
            backend=backend,
            trials=trials,
            seed=spaced_seed(seed, k),
        )
        return (
            result.per_flow.get(incumbent, 0.0),
            result.per_flow.get(challenger, 0.0),
        )

    return fn


def distribution_utility_fn(
    link: LinkConfig,
    n_flows: int,
    delay_weight: float,
    challenger: str = "bbr",
    incumbent: str = "cubic",
    duration: float = 60.0,
    backend: str = "fluid",
    trials: int = 1,
    seed: int = 0,
    engine: Optional["Engine"] = None,
):
    """A §4.3-style utility game: ``U = throughput − w·delay``.

    The utility is a linear combination of per-flow throughput
    (bytes/second) and the *shared* queuing delay (seconds), scaled so
    ``delay_weight`` is in "Mbps of throughput a user would trade for
    100 ms of delay".  Because the delay term is common to both CCAs at
    any distribution, the paper conjectures the NE structure is
    throughput-driven; feed this into
    :class:`repro.core.game.ThroughputTable` (whose machinery is
    payoff-agnostic) to test that.
    """
    if delay_weight < 0:
        raise ValueError(
            f"delay_weight must be non-negative, got {delay_weight}"
        )
    # Mbps-per-100ms → (bytes/s) per second-of-delay.
    weight = delay_weight * (1e6 / 8.0) / 0.1

    def fn(k: int) -> Tuple[float, float]:
        if not 0 <= k <= n_flows:
            raise ValueError(f"k must be in [0, {n_flows}], got {k}")
        from repro.exec.engine import resolve as resolve_engine

        result = resolve_engine(engine).run_mix(
            link,
            [(incumbent, n_flows - k), (challenger, k)],
            duration=duration,
            backend=backend,
            trials=trials,
            seed=spaced_seed(seed, k),
        )
        penalty = weight * result.mean_queuing_delay
        u_incumbent = result.per_flow.get(incumbent, 0.0) - penalty
        u_challenger = result.per_flow.get(challenger, 0.0) - penalty
        return (u_incumbent, u_challenger)

    return fn


def group_payoff_fn(
    link: LinkConfig,
    group_rtts: Sequence[float],
    group_sizes: Sequence[int],
    challenger: str = "bbr",
    incumbent: str = "cubic",
    duration: float = 60.0,
    trials: int = 1,
    seed: int = 0,
    engine: Optional["Engine"] = None,
):
    """Payoff function for the multi-RTT :class:`repro.core.game.GroupGame`.

    The returned callable maps a tuple of per-group challenger counts to
    per-group ``(incumbent per-flow λ, challenger per-flow λ)`` pairs,
    measured with the fluid backend (per-flow RTTs differ, so the packet
    backend also works but is far slower).  Evaluations are memoized in
    the execution engine's result cache (when one is configured) under a
    ``group_payoff`` descriptor, so best-response walks that revisit a
    state — and repeated figure sweeps — reuse the measurement.
    """
    if len(group_rtts) != len(group_sizes):
        raise ValueError("group_rtts and group_sizes must align")

    def measure(state: Sequence[int]) -> List[Tuple[float, float]]:
        specs = []
        membership = []  # (group, is_challenger)
        for g, (rtt, size) in enumerate(zip(group_rtts, group_sizes)):
            k = state[g]
            for i in range(size):
                cc = challenger if i < k else incumbent
                specs.append(FluidSpec(cc=cc, rtt=rtt))
                membership.append((g, i < k))

        totals: Dict[Tuple[int, bool], List[float]] = {}
        for trial in range(trials):
            result = run_fluid(
                link,
                specs,
                duration=duration,
                warmup=duration / 6.0,
                seed=seed + trial,
                start_jitter=min(1.0, duration / 30.0),
            )
            for flow, (g, is_challenger) in zip(
                result.flows, membership
            ):
                totals.setdefault((g, is_challenger), []).append(
                    flow.throughput
                )
        payoffs = []
        for g in range(len(group_sizes)):
            inc = totals.get((g, False), [])
            cha = totals.get((g, True), [])
            payoffs.append(
                (mean(inc) if inc else 0.0, mean(cha) if cha else 0.0)
            )
        return payoffs

    def payoff(state: Sequence[int]):
        for g, size in enumerate(group_sizes):
            if not 0 <= state[g] <= size:
                raise ValueError(
                    f"group {g}: count {state[g]} outside [0, {size}]"
                )
        from repro.exec.engine import resolve as resolve_engine
        from repro.exec.fingerprint import link_params

        params = {
            "link": link_params(link),
            "rtts": [float(r) for r in group_rtts],
            "sizes": [int(s) for s in group_sizes],
            "state": [int(k) for k in state],
            "challenger": challenger.lower(),
            "incumbent": incumbent.lower(),
            "duration": duration,
            "trials": trials,
            "seed": seed,
        }
        payload = resolve_engine(engine).cached_payload(
            "group_payoff",
            params,
            lambda: {"payoffs": [list(p) for p in measure(state)]},
        )
        return [(p[0], p[1]) for p in payload["payoffs"]]

    return payoff
