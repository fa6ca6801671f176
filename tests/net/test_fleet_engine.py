"""Behavioral tests for the fleet engine layer (repro.sim.fleet_engine)."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.net.cohort import CohortSpec
from repro.net.fleet import BEACON_PERIOD_S, fleet_offsets
from repro.sim.fleet_engine import (
    FleetScenario,
    HarvestSpec,
    run_fleet,
    scenario_offsets,
)

from .equivalence import assert_engines_equivalent


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        FleetScenario(node_count=0, duration_s=10.0)
    with pytest.raises(ConfigurationError):
        FleetScenario(node_count=2, duration_s=0.0)
    with pytest.raises(ConfigurationError):
        FleetScenario(node_count=2, duration_s=10.0,
                      phases=(0.0, 1.0), phase_seed=3)
    with pytest.raises(ConfigurationError):
        FleetScenario(node_count=3, duration_s=10.0, phases=(0.0, 1.0))
    with pytest.raises(ConfigurationError):
        FleetScenario(node_count=3, duration_s=10.0,
                      esr_multipliers=(1.0, 1.0))


NAN, INF = math.nan, math.inf

NON_FINITE_INPUTS = [
    (dict(duration_s=NAN), "duration_s must be finite, got nan"),
    (dict(duration_s=INF), "duration_s must be finite, got inf"),
    (dict(stagger_s=NAN), "stagger_s must be finite, got nan"),
    (dict(stagger_s=-INF), "stagger_s must be finite, got -inf"),
    (dict(phases=(0.0, NAN, 1.0, 2.0)), "phases must be finite, got nan"),
    (dict(phases=(0.0, 1.0, INF, 2.0)), "phases must be finite, got inf"),
    (dict(harvest=dict(current_a=NAN)), "current_a must be finite, got nan"),
    (dict(harvest=dict(current_a=1e-6, period_s=INF)),
     "period_s must be finite, got inf"),
    (dict(harvest=dict(current_a=1e-6, dropouts=((NAN, 10.0),))),
     "dropouts must be finite, got nan"),
    (dict(harvest=dict(current_a=1e-6, dropouts=((5.0, INF),))),
     "dropouts must be finite, got inf"),
]


@pytest.mark.parametrize("engine", ["cohort", "per-node"])
@pytest.mark.parametrize("inputs, message", NON_FINITE_INPUTS)
def test_non_finite_fleet_inputs_raise_one_error_on_both_engines(
        engine, inputs, message):
    """Rejected while the scenario is built, before either engine runs.
    Unchecked, a NaN phase never wakes on the cohort engine but raises
    SchedulingError per node, and a NaN or infinite duration hangs."""
    fields = dict(node_count=4, duration_s=30.0)
    fields.update(inputs)
    with pytest.raises(ConfigurationError) as raised:
        if "harvest" in fields:
            fields["harvest"] = HarvestSpec(**fields["harvest"])
        scenario = FleetScenario(**fields)
        # An accepted non-finite horizon would never end.
        if math.isfinite(scenario.duration_s):
            run_fleet(scenario, engine=engine)
    assert str(raised.value) == message


def test_fleet_offsets_and_cohort_spec_reject_non_finite_inputs():
    with pytest.raises(ConfigurationError, match="phases must be finite"):
        fleet_offsets(2, phases=[0.0, NAN])
    with pytest.raises(ConfigurationError, match="stagger_s must be finite"):
        fleet_offsets(2, stagger_s=INF)
    with pytest.raises(ConfigurationError, match="duration_s must be finite"):
        CohortSpec(node_indices=(0, 1), offsets=(0.0, 1.0), duration_s=NAN)
    with pytest.raises(ConfigurationError, match="offsets must be finite"):
        CohortSpec(node_indices=(0, 1), offsets=(0.0, INF), duration_s=30.0)


def test_harvest_spec_validation():
    with pytest.raises(ConfigurationError):
        HarvestSpec(current_a=-1e-6)
    with pytest.raises(ConfigurationError):
        HarvestSpec(current_a=1e-6, period_s=0.0)
    with pytest.raises(ConfigurationError):
        HarvestSpec(current_a=1e-6, dropouts=((5.0, 5.0),))


def test_engine_argument_validation():
    scenario = FleetScenario(node_count=1, duration_s=10.0)
    with pytest.raises(ConfigurationError):
        run_fleet(scenario, engine="warp")
    with pytest.raises(ConfigurationError):
        run_fleet(scenario, cohort_size=0)


def test_phase_seed_offsets_match_density_sweep_stream():
    """scenario_offsets draws uniform phases from the per-count stream
    ``Random(f"{seed}:{count}")``, so a seeded fleet is reproducible."""
    scenario = FleetScenario(node_count=5, duration_s=10.0, phase_seed=77)
    rng = random.Random("77:5")
    expected = fleet_offsets(
        5, phases=[rng.uniform(0.0, BEACON_PERIOD_S) for _ in range(5)]
    )
    assert scenario_offsets(scenario) == expected


def test_stagger_offsets_match_fleet_channel_default():
    scenario = FleetScenario(node_count=4, duration_s=10.0)
    assert scenario_offsets(scenario) == fleet_offsets(4)


def test_harvest_scenario_falls_back_but_matches():
    """Any harvest at all forces (and is correct on) the per-node path."""
    scenario = FleetScenario(
        node_count=3,
        duration_s=45.0,
        stagger_s=1.5,
        harvest=HarvestSpec(current_a=50e-6, dropouts=((10.0, 20.0),)),
    )
    _, candidate = assert_engines_equivalent(
        scenario, expect_engine="per-node"
    )
    assert "harvest" in candidate.fallback_reason


def test_harvest_dropout_costs_charge():
    """The dropout window visibly reduces harvested charge."""
    base = dict(node_count=1, duration_s=600.0, stagger_s=1.0)
    healthy = run_fleet(
        FleetScenario(harvest=HarvestSpec(current_a=100e-6), **base)
    )
    dropped = run_fleet(
        FleetScenario(
            harvest=HarvestSpec(current_a=100e-6, dropouts=((0.0, 300.0),)),
            **base,
        )
    )
    assert dropped.battery_charge(0) < healthy.battery_charge(0)


def test_fleet_run_index_bounds():
    run = run_fleet(FleetScenario(node_count=2, duration_s=30.0))
    for index in (-1, 2):
        with pytest.raises(ConfigurationError):
            run.audit(index)
        with pytest.raises(ConfigurationError):
            run.battery_charge(index)
        with pytest.raises(ConfigurationError):
            run.packets_sent(index)


def test_per_node_request_never_reports_fallback():
    run = run_fleet(
        FleetScenario(node_count=2, duration_s=30.0), engine="per-node"
    )
    assert run.engine_used == "per-node"
    assert run.fallback_reason is None


def test_record_count_matches_packet_counts():
    run = run_fleet(FleetScenario(node_count=3, duration_s=45.0))
    total = sum(run.packets_sent(k) for k in range(3))
    assert len(run.records) == total
    assert run.node_count == 3


def test_per_node_run_builds_its_air_time_records_once(monkeypatch):
    from repro.net.fleet import FleetChannel

    calls = []
    build = FleetChannel.air_time_records

    def counted(channel):
        calls.append(channel)
        return build(channel)

    monkeypatch.setattr(FleetChannel, "air_time_records", counted)
    run = run_fleet(
        FleetScenario(node_count=3, duration_s=45.0), engine="per-node"
    )
    assert len(calls) == 1
    assert run.stats.transmitted == len(run.records)
