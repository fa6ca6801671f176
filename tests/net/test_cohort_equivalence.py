"""Cohort-engine bit-identity across every axis the contract names.

The acceptance bar for the cohort engine: identical ``FleetStats``,
air-time records, and per-node ``EnergyAudit``s versus per-node stepping
across every registered rail topology, any cohort partitioning, any
``repro.runner`` worker count, both line codes, and per-node
degradation.  All comparisons go through the shared harness in
``tests.net.equivalence``.
"""

import pytest

from repro.net.fleet import RetryPolicy
from repro.power.rail_topologies import rail_topology_names
from repro.sim.fleet_engine import FleetScenario, run_fleet

from .equivalence import (
    assert_engines_equivalent,
    assert_partitioning_invariant,
)

DURATION = 45.0  # seven beacon periods; partial final cycles included


@pytest.mark.parametrize("train", rail_topology_names())
def test_every_registered_topology_is_bit_identical(train):
    scenario = FleetScenario(
        node_count=4, duration_s=DURATION, stagger_s=1.3, power_train=train
    )
    assert_engines_equivalent(scenario)


@pytest.mark.parametrize("line_code", ["nrz", "manchester"])
def test_line_codes_are_bit_identical(line_code):
    scenario = FleetScenario(
        node_count=4, duration_s=DURATION, stagger_s=0.9, line_code=line_code
    )
    assert_engines_equivalent(scenario)


def test_any_cohort_partitioning_matches_per_node():
    scenario = FleetScenario(node_count=7, duration_s=DURATION, phase_seed=11)
    assert_partitioning_invariant(
        scenario, sizes=[None, 1, 2, 3, 7, 100], audit_indices=[0, 3, 6]
    )


def test_colliding_phases_and_retries_are_bit_identical():
    """Near-coincident wakes collide; noise + seeded retries on top."""
    scenario = FleetScenario(
        node_count=5,
        duration_s=62.0,
        phases=(0.0, 0.00005, 3.0, 3.00005, 1.0),
        noise_windows=((10.0, 20.0),),
        retry=RetryPolicy(),
    )
    assert_engines_equivalent(scenario, cohort_size=2)


def test_degraded_lanes_are_bit_identical():
    """Per-node ESR / self-discharge / converter-loss multipliers."""
    scenario = FleetScenario(
        node_count=6,
        duration_s=70.0,
        stagger_s=1.0,
        esr_multipliers=(1.0, 1.4, 2.0, 1.0, 3.5, 1.0),
        self_discharge_multipliers=(1.0, 2.0, 1.0, 8.0, 1.0, 1.5),
        loss_factors=(1.0, 1.03, 1.0, 1.1, 1.15, 1.0),
    )
    assert_engines_equivalent(scenario, cohort_size=4)


def test_node_id_wrap_past_255_is_bit_identical():
    """On-air ids wrap at one byte; logical record ids must not."""
    scenario = FleetScenario(
        node_count=260, duration_s=19.0, stagger_s=6.0 / 260
    )
    _, candidate = assert_engines_equivalent(
        scenario, cohort_size=128, audit_indices=[0, 255, 259]
    )
    assert max(record.node_id for record in candidate.records) == 260


def test_worker_count_does_not_change_campaign_results():
    """The E21 campaign is bit-identical serial vs parallel, per engine."""
    from repro.studies import fleet_density_campaign

    rows = {}
    for engine in ("per-node", "cohort"):
        for workers in (1, 2):
            row, _ = fleet_density_campaign(
                (2, 4), duration_s=30.0, workers=workers, engine=engine
            )
            rows[(engine, workers)] = row
    assert rows[("cohort", 1)] == rows[("cohort", 2)]
    assert rows[("per-node", 1)] == rows[("per-node", 2)]
    assert rows[("cohort", 1)] == rows[("per-node", 1)]


def test_too_short_run_falls_back_and_still_matches():
    """Under two probe cycles the chain cannot template; fallback path."""
    scenario = FleetScenario(
        node_count=3, duration_s=6.0, phases=(0.0, 1.0, 5.5)
    )
    _, candidate = assert_engines_equivalent(
        scenario, expect_engine="per-node"
    )
    assert "two probe cycles" in candidate.fallback_reason


def test_profile_fidelity_would_fall_back():
    """The chain only models the fast RF fidelity; per-segment OOK
    stepping (fidelity='profile') is not batchable."""
    from repro.net.cohort import CohortFallback, _CohortMachine

    class _Probe:
        class config:
            sensor_kind = "tpms"
            fidelity = "profile"
            fast_forward = False
            brownout_recovery = False

    with pytest.raises(CohortFallback):
        _CohortMachine._check_eligibility(_Probe())


def test_cohort_engine_is_actually_used_at_scale():
    scenario = FleetScenario(node_count=64, duration_s=30.0, phase_seed=3)
    run = run_fleet(scenario, engine="cohort")
    assert run.engine_used == "cohort"
    assert run.fallback_reason is None
