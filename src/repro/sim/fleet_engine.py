"""Mega-fleet engine: one scenario, two interchangeable execution paths.

:func:`run_fleet` simulates a whole TPMS fleet either **per-node** (every
PicoCube stepped individually through the shared discrete-event engine,
the reference path) or **cohort-vectorized** (nodes batched struct-of-
arrays style and advanced in lockstep through
:mod:`repro.net.cohort`).  The two paths are bit-identical by contract —
same :class:`~repro.net.fleet.FleetStats`, same air-time records, same
per-node :class:`~repro.core.energy_audit.EnergyAudit`s — for any cohort
partitioning; the cohort path merely gets there orders of magnitude
faster at city scale.  Scenarios the vectorized chain cannot reproduce
exactly (time-varying harvest, brownout risk, probe/chain divergence)
automatically fall back to per-node stepping, recorded on the result's
``fallback_reason``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Tuple

from ..core.energy_audit import EnergyAudit, audit_node
from ..errors import ConfigurationError
from ..net.cohort import CohortFallback, CohortRun, CohortSpec, advance_cohort
from ..net.fleet import (
    AirTimes,
    FleetChannel,
    FleetStats,
    RetryPolicy,
    check_finite,
    check_lane_degradation,
    check_noise_windows,
    fleet_offsets,
    resolve_channel,
    uniform_phases,
)

__all__ = [
    "FleetRun",
    "FleetScenario",
    "HarvestSpec",
    "run_fleet",
    "scenario_offsets",
]


@dataclasses.dataclass(frozen=True)
class HarvestSpec:
    """Constant-vibration harvesting with optional dropout windows.

    ``current_a`` is the average rectified charging current each node's
    trickle charger receives every ``period_s``; during any ``dropouts``
    window the harvester is fully derated (shock-mount failure, the
    paper's worst case).  Any harvest at all keeps the scenario on the
    per-node path — charge arriving between wakes is exactly what the
    cohort chain does not model.
    """

    current_a: float
    period_s: float = 60.0
    dropouts: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        check_finite("current_a", self.current_a)
        check_finite("period_s", self.period_s)
        for window in self.dropouts:
            check_finite("dropouts", *window)
        if self.current_a < 0.0:
            raise ConfigurationError("harvest current must be >= 0")
        if self.period_s <= 0.0:
            raise ConfigurationError("harvest period must be positive")
        for lo, hi in self.dropouts:
            if hi <= lo or lo < 0.0:
                raise ConfigurationError(
                    f"bad dropout window ({lo}, {hi})"
                )


@dataclasses.dataclass(frozen=True)
class FleetScenario:
    """A complete, hashable description of one fleet simulation.

    Wake phasing comes from exactly one of ``phases`` (explicit),
    ``phase_seed`` (random phases from
    :func:`repro.net.fleet.uniform_phases`, seeded per node count), or
    ``stagger_s`` (even spacing; ``None`` means one beacon period spread
    across the fleet).  The per-node degradation tuples mirror the
    scalar fault knobs and must list one multiplier per node.
    """

    node_count: int
    duration_s: float
    stagger_s: Optional[float] = None
    phases: Optional[Tuple[float, ...]] = None
    phase_seed: Optional[int] = None
    power_train: str = "cots"
    line_code: str = "nrz"
    noise_windows: Tuple[Tuple[float, float], ...] = ()
    retry: Optional[RetryPolicy] = None
    retry_seed: int = 2008
    harvest: Optional[HarvestSpec] = None
    esr_multipliers: Optional[Tuple[float, ...]] = None
    self_discharge_multipliers: Optional[Tuple[float, ...]] = None
    loss_factors: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigurationError("need at least one node")
        check_finite("duration_s", self.duration_s)
        if self.stagger_s is not None:
            check_finite("stagger_s", self.stagger_s)
        if self.phases is not None:
            check_finite("phases", *self.phases)
        if self.duration_s <= 0.0:
            raise ConfigurationError("duration must be positive")
        if self.phases is not None and self.phase_seed is not None:
            raise ConfigurationError(
                "give explicit phases or a phase_seed, not both"
            )
        if self.phases is not None and len(self.phases) != self.node_count:
            raise ConfigurationError("need one phase per node")
        for name in ("esr_multipliers", "self_discharge_multipliers",
                     "loss_factors"):
            values = getattr(self, name)
            if values is not None and len(values) != self.node_count:
                raise ConfigurationError(
                    f"{name} must have one entry per node"
                )
        check_lane_degradation(
            self.power_train, self.esr_multipliers,
            self.self_discharge_multipliers, self.loss_factors,
        )
        check_noise_windows(self.noise_windows)

    def lane_slice(self, name: str, lo: int, hi: int) -> Optional[Tuple[float, ...]]:
        """Slice one per-node multiplier tuple for a cohort, if set."""
        values = getattr(self, name)
        if values is None:
            return None
        return tuple(values[lo:hi])


def scenario_offsets(scenario: FleetScenario) -> List[float]:
    """Resolve the scenario's wake offsets, one per node.

    ``phase_seed`` draws uniform phases from
    ``random.Random(f"{seed}:{node_count}")``, so a seeded fleet is a
    pure function of ``(seed, node_count)``.
    """
    if scenario.phase_seed is not None:
        rng = random.Random(f"{scenario.phase_seed}:{scenario.node_count}")
        phases = uniform_phases(scenario.node_count, rng)
        return fleet_offsets(scenario.node_count, phases=phases)
    return fleet_offsets(
        scenario.node_count,
        scenario.stagger_s,
        list(scenario.phases) if scenario.phases is not None else None,
    )


@dataclasses.dataclass
class FleetRun:
    """Result of :func:`run_fleet`: channel stats plus per-node access.

    ``engine_used`` records which path actually ran (``"cohort"`` or
    ``"per-node"``); when a cohort request fell back, ``fallback_reason``
    says why.  :meth:`audit` and :meth:`battery_charge` address nodes by
    their global fleet index on either path.
    """

    scenario: FleetScenario
    stats: FleetStats
    records: AirTimes
    engine_used: str
    fallback_reason: Optional[str] = None
    _channel: Optional[FleetChannel] = dataclasses.field(
        default=None, repr=False
    )
    _cohorts: List[CohortRun] = dataclasses.field(
        default_factory=list, repr=False
    )

    @property
    def node_count(self) -> int:
        """Number of nodes simulated."""
        return self.scenario.node_count

    def _locate(self, index: int) -> Tuple[CohortRun, int]:
        for run in self._cohorts:
            base = run.spec.node_indices[0]
            if base <= index < base + run.node_count:
                return run, index - base
        raise ConfigurationError(f"node {index} outside fleet")

    def audit(self, index: int) -> EnergyAudit:
        """Per-node energy audit, by global fleet index (0-based)."""
        if not 0 <= index < self.node_count:
            raise ConfigurationError(f"node {index} outside fleet")
        if self._channel is not None:
            return audit_node(self._channel.nodes[index])
        run, position = self._locate(index)
        return run.audit(position)

    def battery_charge(self, index: int) -> float:
        """Final battery charge (coulombs) for one node."""
        if not 0 <= index < self.node_count:
            raise ConfigurationError(f"node {index} outside fleet")
        if self._channel is not None:
            return self._channel.nodes[index].battery.charge
        run, position = self._locate(index)
        return float(run.charge[position])

    def packets_sent(self, index: int) -> int:
        """Number of packets one node committed to the air."""
        if not 0 <= index < self.node_count:
            raise ConfigurationError(f"node {index} outside fleet")
        if self._channel is not None:
            return len(self._channel.nodes[index].packets_sent)
        run, position = self._locate(index)
        return int(run.packets[position])


def run_fleet(
    scenario: FleetScenario,
    engine: str = "cohort",
    cohort_size: Optional[int] = None,
    store=None,
    checkpoint_every: Optional[int] = None,
) -> FleetRun:
    """Simulate a fleet scenario on the requested engine.

    ``engine="cohort"`` batches nodes into cohorts of ``cohort_size``
    (default: the whole fleet) and advances each through the vectorized
    chain; results are bit-identical to ``engine="per-node"`` for any
    partitioning.  If the scenario is ineligible for the fast path, the
    whole run transparently falls back to per-node stepping.

    With a :class:`~repro.runner.store.ResultStore` in ``store``, each
    cohort's result is persisted as it completes, keyed on its exact
    spec — a killed run restarted with the same arguments replays only
    the cohorts that never finished, and (by the partitioning-invariance
    contract) the merged result is bit-identical either way.
    ``checkpoint_every`` sets the durability granularity in *nodes per
    cohort* when ``cohort_size`` is not given explicitly.
    """
    if engine not in ("cohort", "per-node"):
        raise ConfigurationError(
            f"unknown engine {engine!r}: pick 'cohort' or 'per-node'"
        )
    if cohort_size is not None and cohort_size < 1:
        raise ConfigurationError("cohort_size must be positive")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be positive")
    if cohort_size is None and checkpoint_every is not None:
        cohort_size = checkpoint_every
    offsets = scenario_offsets(scenario)
    if engine == "cohort":
        try:
            return _run_cohorts(scenario, offsets, cohort_size, store)
        except CohortFallback as exc:
            return _run_per_node(scenario, offsets, fallback=str(exc))
    return _run_per_node(scenario, offsets)


def _run_cohorts(
    scenario: FleetScenario,
    offsets: List[float],
    cohort_size: Optional[int],
    store=None,
) -> FleetRun:
    if scenario.harvest is not None:
        raise CohortFallback(
            "harvest charging between wakes needs per-node stepping"
        )
    n = scenario.node_count
    size = n if cohort_size is None else cohort_size
    cohorts: List[CohortRun] = []
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        spec = CohortSpec(
            node_indices=tuple(range(lo, hi)),
            offsets=tuple(offsets[lo:hi]),
            duration_s=scenario.duration_s,
            power_train=scenario.power_train,
            line_code=scenario.line_code,
            esr_multipliers=scenario.lane_slice("esr_multipliers", lo, hi),
            self_discharge_multipliers=scenario.lane_slice(
                "self_discharge_multipliers", lo, hi
            ),
            loss_factors=scenario.lane_slice("loss_factors", lo, hi),
        )
        if store is not None:
            key = store.key(("fleet-cohort", spec))
            run = store.get_or_compute(key, lambda s=spec: advance_cohort(s))
        else:
            run = advance_cohort(spec)
        cohorts.append(run)
    # Cohorts are contiguous slices, so concatenation is already in node
    # order; the same stable sort FleetChannel uses makes ties identical.
    records = AirTimes.concat([run.records for run in cohorts]).sorted()
    stats = resolve_channel(
        records,
        noise_windows=scenario.noise_windows,
        retry=scenario.retry,
        retry_seed=scenario.retry_seed,
    )
    return FleetRun(
        scenario=scenario,
        stats=stats,
        records=records,
        engine_used="cohort",
        _cohorts=cohorts,
    )


def _build_channel(
    scenario: FleetScenario, offsets: List[float]
) -> FleetChannel:
    """Construct the per-node fleet with every scenario knob applied.

    Shared by the reference path and the cohort fallback so both step
    the *same* simulation: offsets are passed as explicit phases
    (already reduced modulo the beacon period, so the modulo in
    :func:`~repro.net.fleet.fleet_offsets` is a bit-exact no-op), and
    degradation lands post-construction exactly like the fault injector
    applies it.
    """
    channel = FleetChannel(
        scenario.node_count,
        phases=list(offsets),
        power_train=scenario.power_train,
        line_code=scenario.line_code,
    )
    for index, node in enumerate(channel.nodes):
        if scenario.esr_multipliers is not None:
            node.battery.set_esr_multiplier(scenario.esr_multipliers[index])
        if scenario.self_discharge_multipliers is not None:
            node.battery.set_self_discharge_multiplier(
                scenario.self_discharge_multipliers[index]
            )
        if scenario.loss_factors is not None:
            node.train.set_degradation(scenario.loss_factors[index])
    harvest = scenario.harvest
    if harvest is not None:
        for node in channel.nodes:
            node.attach_charger(
                lambda _t, amps=harvest.current_a: amps,
                update_period_s=harvest.period_s,
                time_invariant=not harvest.dropouts,
            )
        for lo, hi in harvest.dropouts:
            for node in channel.nodes:
                channel.engine.schedule_at(
                    lo, lambda n=node: n.set_harvest_derating(0.0),
                    name="harvest-dropout",
                )
                channel.engine.schedule_at(
                    hi, lambda n=node: n.set_harvest_derating(1.0),
                    name="harvest-recover",
                )
    return channel


def _run_per_node(
    scenario: FleetScenario,
    offsets: List[float],
    fallback: Optional[str] = None,
) -> FleetRun:
    channel = _build_channel(scenario, offsets)
    channel.advance(scenario.duration_s)
    records = channel.air_time_records()
    return FleetRun(
        scenario=scenario,
        stats=resolve_channel(
            records,
            noise_windows=scenario.noise_windows,
            retry=scenario.retry,
            retry_seed=scenario.retry_seed,
        ),
        records=records,
        engine_used="per-node",
        fallback_reason=fallback,
        _channel=channel,
    )
