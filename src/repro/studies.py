"""Design studies: the sweep-heavy experiments as grids of pure tasks.

The benchmarks E16 (topology tables), E20 (Monte-Carlo assembly yield),
E21 (fleet density) and E23 (temperature sweep), the rail-topology
sweep, and the ``fleet_density`` and ``energy_neutral_design`` examples
are all grids of pure tasks.  This module defines those tasks at module
level (the :mod:`repro.runner` pickling contract: workers import them by
qualified name) and wraps each grid in a campaign function that fans it
out over a process pool and returns the regenerated rows plus
:class:`~repro.runner.metrics.CampaignStats`.  The chaos campaign lives
apart, in :mod:`repro.campaigns`, so a fault-storm run loads none of
these studies' modules.

Determinism contract: every campaign's output is a pure function of its
parameters and ``base_seed`` — bit-identical for any ``workers`` value —
because stochastic tasks get per-task seeds derived from the task index,
never from worker identity or completion order.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Tuple

from .board.pcb import PadRing
from .board.tolerances import (
    PadAlignmentModel,
    YieldReport,
    merge_yield_reports,
    monte_carlo_yield,
)
from .core.builder import build_tpms_node
from .errors import ConfigurationError
from .harvest.bicycle import BicycleWheelHarvester
from .harvest.shaker import ElectromagneticShaker
from .harvest.solar import SolarCladding
from .harvest.tire import TireHarvester
from .harvest.vibration import ResonantVibrationHarvester
from .net.fleet import FleetStats, aloha_prediction, uniform_phases
from .power.optimizer import compare_step_up_topologies
from .power.rail_topologies import rail_topology_names
from .power.rectifier import BoostRectifier, SynchronousRectifier
from .power.topologies import all_step_up_families
from .runner.metrics import CampaignStats
from .runner.pool import Sweep
from .runner.store import ResultStore
from .sensors.environment import TireEnvironment
from .sim.fleet_engine import FleetScenario, run_fleet
from .storage.nimh import NiMHCell
from .units import milli


# ---------------------------------------------------------------------------
# E16 — step-up topology comparison tables
# ---------------------------------------------------------------------------


def topology_table_task(ratio: int) -> list:
    """One E16 table: all step-up families analysed at one ratio."""
    return compare_step_up_topologies(ratio, all_step_up_families())


def topology_campaign(
    ratios: Sequence[int] = (2, 3, 5, 8),
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Tuple[Dict[int, list], CampaignStats]:
    """The Seeman-Sanders comparison tables, one task per ratio."""
    sweep = Sweep(
        topology_table_task, name="e16-topologies", workers=workers,
        store=store,
    )
    result = sweep.run(list(ratios))
    return dict(zip(ratios, result.values())), result.stats


# ---------------------------------------------------------------------------
# E20 — Monte-Carlo assembly yield vs SLA fit tolerance
# ---------------------------------------------------------------------------

RING_KINDS = ("18-pad", "30-pad")


def alignment_model(kind: str) -> PadAlignmentModel:
    """Rebuild a pad-ring model from its kind label (worker-side)."""
    if kind == "18-pad":
        return PadAlignmentModel()
    if kind == "30-pad":
        return PadAlignmentModel(
            ring=PadRing(pads_total=30, pad_length_m=milli(0.7)), pad_gap_m=milli(0.35)
        )
    raise ConfigurationError(f"unknown ring kind {kind!r}")


def yield_chunk_task(params: Tuple[str, float, int], seed: int) -> YieldReport:
    """One seed-independent chunk of the yield Monte-Carlo."""
    kind, tolerance_m, samples = params
    return monte_carlo_yield(
        alignment_model(kind), tolerance_m, samples=samples, seed=seed
    )


def _chunk_sizes(samples: int, chunks: int) -> List[int]:
    if not 1 <= chunks <= samples:
        raise ConfigurationError(
            f"need 1 <= chunks <= samples, got {chunks} chunks "
            f"for {samples} samples"
        )
    base, extra = divmod(samples, chunks)
    return [base + (1 if k < extra else 0) for k in range(chunks)]


def alignment_yield_campaign(
    kind: str,
    tolerance_m: float,
    samples: int = 1500,
    chunks: int = 6,
    base_seed: int = 2008,
    workers: Optional[int] = None,
) -> Tuple[YieldReport, CampaignStats]:
    """Assembly yield at one tolerance, fanned out in seeded chunks.

    The chunk split and per-chunk seeds depend only on ``(samples,
    chunks, base_seed)``, so the merged report is bit-identical for any
    worker count.
    """
    sweep = Sweep(
        yield_chunk_task,
        name=f"e20-{kind}",
        workers=workers,
        base_seed=base_seed,
        seed_salt=f"{kind}:{tolerance_m}",
    )
    grid = [(kind, tolerance_m, n) for n in _chunk_sizes(samples, chunks)]
    result = sweep.run(grid)
    return merge_yield_reports(result.values()), result.stats


def yield_table_campaign(
    tolerances_m: Sequence[float],
    samples: int = 1500,
    chunks: int = 6,
    base_seed: int = 2008,
    workers: Optional[int] = None,
) -> Tuple[List[Tuple[float, YieldReport, YieldReport]], CampaignStats]:
    """The full E20 table: both rings at every tolerance, one flat grid."""
    sweep = Sweep(
        yield_chunk_task,
        name="e20-table",
        workers=workers,
        base_seed=base_seed,
    )
    sizes = _chunk_sizes(samples, chunks)
    grid = [
        (kind, tolerance, n)
        for tolerance in tolerances_m
        for kind in RING_KINDS
        for n in sizes
    ]
    result = sweep.run(grid)
    by_key: Dict[Tuple[str, float], List[YieldReport]] = {}
    for record in result.records:
        kind, tolerance, _ = record.params
        by_key.setdefault((kind, tolerance), []).append(record.value)
    rows = [
        (
            tolerance,
            merge_yield_reports(by_key[("18-pad", tolerance)]),
            merge_yield_reports(by_key[("30-pad", tolerance)]),
        )
        for tolerance in tolerances_m
    ]
    return rows, result.stats


def parallel_tolerance_for_yield(
    kind: str,
    target_yield: float = 0.99,
    samples: int = 800,
    chunks: int = 4,
    base_seed: int = 2008,
    workers: Optional[int] = None,
    iterations: int = 30,
) -> float:
    """Bisect the loosest tolerance meeting a yield target.

    The bisection itself is sequential (each step depends on the last),
    but each step's Monte-Carlo fans out over the pool.
    """
    import math

    if not 0.0 < target_yield < 1.0:
        raise ConfigurationError("target yield must be in (0, 1)")
    lo, hi = 1e-6, 2e-3
    for _ in range(iterations):
        mid = math.sqrt(lo * hi)
        report, _ = alignment_yield_campaign(
            kind, mid, samples=samples, chunks=chunks,
            base_seed=base_seed, workers=workers,
        )
        if report.yield_fraction >= target_yield:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# E21 — fleet density on one OOK channel
# ---------------------------------------------------------------------------


def fleet_task(
    params: Tuple[int, Optional[Tuple[float, ...]], Optional[float], float]
) -> FleetStats:
    """Simulate one fleet configuration on the shared channel.

    ``params = (node_count, phases, stagger_s, duration_s)`` — or the
    same with a fifth ``engine`` element (``"per-node"`` or
    ``"cohort"``); the two engines are bit-identical, so the choice only
    affects wall-clock time.  Both go through
    :func:`~repro.sim.fleet_engine.run_fleet`, so a bad input raises the
    same error on either.  Phases (a tuple, for hashability) win over
    stagger when given.  The whole simulation runs inside the worker;
    only the summary statistics cross the process boundary.
    """
    count, phases, stagger_s, duration = params[:4]
    engine = params[4] if len(params) > 4 else "per-node"
    scenario = FleetScenario(
        node_count=count,
        duration_s=duration,
        stagger_s=stagger_s,
        phases=tuple(phases) if phases is not None else None,
    )
    return run_fleet(scenario, engine=engine).stats


def fleet_density_campaign(
    counts: Sequence[int],
    duration_s: float = 300.0,
    burst_s: float = 3.2e-4,
    base_seed: int = 2008,
    workers: Optional[int] = None,
    engine: str = "per-node",
    store: Optional[ResultStore] = None,
) -> Tuple[List[Tuple[int, FleetStats, FleetStats, float]], CampaignStats]:
    """Staggered + random-phase fleets at each density, in parallel.

    Returns ``(count, staggered, scattered, predicted_loss)`` rows.  The
    random phases are drawn up-front from one seeded RNG (in ascending
    ``counts`` order), so the grid — and therefore every worker's task —
    is fixed before any simulation starts.  ``engine="cohort"`` routes
    each fleet through the vectorized cohort engine
    (:mod:`repro.sim.fleet_engine`), bit-identical to per-node stepping
    but fast enough for city-scale densities.
    """
    rng = random.Random(base_seed)
    grid: List[Tuple] = []
    for count in counts:
        grid.append((count, None, None, duration_s, engine))
        grid.append((count, tuple(uniform_phases(count, rng)), None,
                     duration_s, engine))
    sweep = Sweep(
        fleet_task,
        name="e21-fleet",
        workers=workers,
        simulated_s_of=lambda stats: duration_s,
        store=store,
    )
    result = sweep.run(grid)
    values = result.values()
    rows = []
    for k, count in enumerate(counts):
        staggered, scattered = values[2 * k], values[2 * k + 1]
        predicted = 1.0 - aloha_prediction(count, burst_s)
        rows.append((count, staggered, scattered, predicted))
    return rows, result.stats


# ---------------------------------------------------------------------------
# E23 — the node across the automotive temperature range
# ---------------------------------------------------------------------------


def temperature_task(
    params: Tuple[str, float, float]
) -> Tuple[str, float, float, float]:
    """One operating point: warmed tire, 1 h node run, cell self-discharge."""
    label, ambient_c, speed_kmh = params
    env = TireEnvironment(ambient_c=ambient_c)
    env.set_speed_kmh(speed_kmh)
    for _ in range(100):
        env.advance(60.0)  # reach thermal equilibrium
    node = build_tpms_node(environment=env)
    node.environment.set_speed_kmh(speed_kmh)
    node.run(3600.0)
    cell = NiMHCell()
    cell.set_soc(0.6)
    cell.set_temperature(env.temperature_c)
    lost = cell.apply_self_discharge(3600.0)
    self_discharge_w = lost * cell.open_circuit_voltage() / 3600.0
    return (label, env.temperature_c, node.average_power(), self_discharge_w)


def temperature_campaign(
    conditions: Sequence[Tuple[str, float, float]],
    workers: Optional[int] = None,
) -> Tuple[List[Tuple[str, float, float, float]], CampaignStats]:
    """The E23 sweep: one task per (label, ambient, speed) condition."""
    sweep = Sweep(
        temperature_task,
        name="e23-temperature",
        workers=workers,
        simulated_s_of=lambda row: 3600.0,
    )
    result = sweep.run(list(conditions))
    return result.values(), result.stats


# ---------------------------------------------------------------------------
# Energy-neutral design study (examples/energy_neutral_design.py)
# ---------------------------------------------------------------------------


def harvest_source_task(
    params: Tuple[str, Tuple, float]
) -> Tuple[str, float]:
    """Average harvested power for one (source, rectifier) combination.

    ``params = (label, spec, v_batt)`` where ``spec`` names the harvester
    and rectifier so the worker can rebuild them: the objects themselves
    never cross the process boundary.
    """
    label, spec, v_batt = params
    kind = spec[0]
    if kind == "tire":
        harvester = TireHarvester()
        harvester.set_speed_kmh(spec[1])
    elif kind == "bicycle":
        harvester = BicycleWheelHarvester()
        harvester.set_speed_kmh(spec[1])
    elif kind == "shaker":
        harvester = ElectromagneticShaker()
    elif kind == "solar":
        solar = SolarCladding()
        solar.set_irradiance(spec[1])
        return (label, solar.output_power())
    elif kind == "vibration":
        harvester = ResonantVibrationHarvester()
    else:
        raise ConfigurationError(f"unknown harvest source {kind!r}")
    rectifier = BoostRectifier() if spec[-1] == "boost" else SynchronousRectifier()
    waveform = harvester.waveform(harvester.characteristic_duration())
    result = rectifier.rectify(
        waveform.t, waveform.v_oc, waveform.r_source, v_batt
    )
    return (label, result.power_out)


def energy_neutral_catalogue(v_batt: float) -> List[Tuple[str, Tuple, float]]:
    """The harvester catalogue of the energy-neutrality study, as a grid."""
    grid: List[Tuple[str, Tuple, float]] = []
    for speed in (20.0, 30.0, 50.0, 80.0, 120.0):
        grid.append((f"tire @ {speed:.0f} km/h", ("tire", speed, "sync"), v_batt))
    for speed in (10.0, 15.0, 25.0):
        grid.append(
            (f"bicycle @ {speed:.0f} km/h", ("bicycle", speed, "sync"), v_batt)
        )
    grid.append(("hand shaker @ 5 Hz", ("shaker", "sync"), v_batt))
    for name, lux in (
        ("office light", 1.0),
        ("bright indoor", 5.0),
        ("overcast sky", 100.0),
    ):
        grid.append((f"solar, {name}", ("solar", lux), v_batt))
    grid.append(
        ("MEMS vibration + plain rectifier", ("vibration", "sync"), v_batt)
    )
    grid.append(
        ("MEMS vibration + boost rectifier", ("vibration", "boost"), v_batt)
    )
    return grid


def energy_neutral_campaign(
    v_batt: float,
    workers: Optional[int] = None,
) -> Tuple[List[Tuple[str, float]], CampaignStats]:
    """Every harvester/rectifier combination of the study, in parallel."""
    sweep = Sweep(harvest_source_task, name="energy-neutral", workers=workers)
    result = sweep.run(energy_neutral_catalogue(v_batt))
    return result.values(), result.stats


# ---------------------------------------------------------------------------
# Rail-topology sweep — every registered power train through a real node
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TopologyOutcome:
    """One rail topology's node-level scorecard (picklable)."""

    kind: str
    cycles: int
    average_power_w: float
    sleep_power_w: float
    management_share: float


def rail_topology_task(params: Tuple[str, float]) -> TopologyOutcome:
    """Run one registered power train through a TPMS node.

    ``params = (kind, duration_s)``.  Deterministic: the node simulation
    is seed-free and the train registry builds bit-identical graphs for
    a given kind, so the outcome is a pure function of the cell.
    """
    kind, duration_s = params
    node = build_tpms_node(power_train=kind)
    sleep_batch = node.train.solve_graph_batch(
        node.battery.open_circuit_voltage(),
        {"mcu": 0.7e-6, "sensor": 0.3e-6},
    )
    node.run(duration_s)
    average_power_w = node.average_power()
    management_j = node.recorder.energy("power-management")
    total_j = average_power_w * duration_s
    return TopologyOutcome(
        kind=kind,
        cycles=node.cycles_completed,
        average_power_w=average_power_w,
        sleep_power_w=float(sleep_batch.p_source[0]),
        management_share=(management_j / total_j) if total_j > 0.0 else 0.0,
    )


def topology_sweep_campaign(
    kinds: Optional[Sequence[str]] = None,
    duration_s: float = 3600.0,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Tuple[List[TopologyOutcome], CampaignStats]:
    """Every registered rail topology (or a subset) through a node run.

    Bit-identical for any ``workers`` value: each cell is a pure
    function of ``(kind, duration_s)`` and results return in grid order.
    """
    if kinds is None:
        kinds = rail_topology_names()
    sweep = Sweep(
        rail_topology_task, name="rail-topology-sweep", workers=workers,
        store=store,
    )
    result = sweep.run([(kind, float(duration_s)) for kind in kinds])
    return list(result.values()), result.stats


# ---------------------------------------------------------------------------
# Node-simulation task (runner throughput benchmark)
# ---------------------------------------------------------------------------


def node_hours_task(params: Tuple[float, str]) -> Tuple[int, float]:
    """Simulate one TPMS node for a duration; return (cycles, avg power).

    The unit of work for runner-throughput measurements: CPU-bound,
    allocation-heavy, and representative of real campaign tasks.
    """
    duration_s, fidelity = params
    node = build_tpms_node(fidelity=fidelity)
    node.run(duration_s)
    return (node.cycles_completed, node.average_power())
