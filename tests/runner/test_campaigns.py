"""Tests for the campaign layer: determinism across worker counts.

The ISSUE's acceptance bar: E20 (Monte-Carlo yield) and E21 (fleet
density) campaigns must be bit-identical with >= 2 workers vs serial.
"""

import pytest

from repro.errors import ConfigurationError
from repro.studies import (
    alignment_model,
    alignment_yield_campaign,
    energy_neutral_campaign,
    fleet_density_campaign,
    fleet_task,
    temperature_campaign,
    topology_campaign,
    yield_table_campaign,
)


def test_alignment_model_kinds():
    assert alignment_model("18-pad").ring.pads_total != 30
    assert alignment_model("30-pad").ring.pads_total == 30
    with pytest.raises(ConfigurationError):
        alignment_model("27-pad")


def test_e20_yield_parallel_is_bit_identical_to_serial():
    serial, _ = alignment_yield_campaign(
        "18-pad", 0.5e-3, samples=300, chunks=4, workers=1
    )
    parallel, stats = alignment_yield_campaign(
        "18-pad", 0.5e-3, samples=300, chunks=4, workers=2
    )
    assert parallel == serial  # YieldReport is a frozen dataclass: == is exact
    assert parallel.samples == 300
    assert stats.workers == 2


def test_e20_yield_independent_of_chunk_count_boundaries():
    # Same total samples, different chunking: counts legitimately differ
    # (different seed streams) but sample accounting must stay exact.
    a, _ = alignment_yield_campaign("18-pad", 0.5e-3, samples=301, chunks=3, workers=1)
    b, _ = alignment_yield_campaign("18-pad", 0.5e-3, samples=301, chunks=7, workers=1)
    assert a.samples == b.samples == 301
    assert a.ok + a.opens + a.shorts == 301
    assert b.ok + b.opens + b.shorts == 301


def test_e20_table_parallel_is_bit_identical_to_serial():
    tolerances = [0.3e-3, 0.7e-3]
    serial, _ = yield_table_campaign(tolerances, samples=200, chunks=4, workers=1)
    parallel, _ = yield_table_campaign(tolerances, samples=200, chunks=4, workers=2)
    assert parallel == serial


def test_e20_table_cells_equal_the_single_cell_campaign():
    tolerances = [0.3e-3, 0.5e-3]
    rows, _ = yield_table_campaign(tolerances, samples=200, chunks=4, workers=1)
    for tolerance, built, shrunk in rows:
        for kind, report in (("18-pad", built), ("30-pad", shrunk)):
            single, _ = alignment_yield_campaign(kind, tolerance, samples=200,
                                                 chunks=4, workers=1)
            assert report == single


def test_e21_fleet_parallel_is_bit_identical_to_serial():
    counts = (2, 5)
    serial, _ = fleet_density_campaign(counts, duration_s=60.0, workers=1)
    parallel, stats = fleet_density_campaign(counts, duration_s=60.0, workers=2)
    assert parallel == serial  # FleetStats dataclasses compare field-exact
    assert stats.workers == 2
    assert stats.simulated_s == pytest.approx(60.0 * len(serial) * 2)


@pytest.mark.parametrize("duration", [0.0, -5.0])
@pytest.mark.parametrize("engine", ["per-node", "cohort"])
def test_e21_fleet_task_rejects_bad_duration_on_both_engines(engine, duration):
    with pytest.raises(ConfigurationError, match="duration must be positive"):
        fleet_task((3, None, None, duration, engine))


@pytest.mark.parametrize("samples, chunks", [(300, 0), (3, 6), (10, -1)])
def test_e20_chunking_is_validated_before_any_task(samples, chunks):
    with pytest.raises(ConfigurationError, match="chunks"):
        alignment_yield_campaign("18-pad", 0.5e-3, samples=samples,
                                 chunks=chunks, workers=1)
    with pytest.raises(ConfigurationError, match="chunks"):
        yield_table_campaign([0.5e-3], samples=samples, chunks=chunks,
                             workers=1)


def test_e16_topology_campaign_matches_direct_call():
    from repro.power.optimizer import compare_step_up_topologies
    from repro.power.topologies import all_step_up_families

    tables, stats = topology_campaign(ratios=(2, 3), workers=1)
    assert set(tables) == {2, 3}
    direct = compare_step_up_topologies(3, all_step_up_families())
    assert tables[3] == direct
    assert stats.tasks_ok == 2


def test_e23_temperature_campaign_rows():
    rows, _ = temperature_campaign(
        [("spring", 20.0, 0.0)], workers=1
    )
    label, temp, power, self_discharge = rows[0]
    assert label == "spring"
    assert temp == pytest.approx(20.0, abs=1.0)
    assert 5e-6 < power < 8e-6  # the paper's ~6 uW bench number
    assert self_discharge > 0.0


def test_energy_neutral_campaign_catalogue():
    rows, stats = energy_neutral_campaign(1.2, workers=1)
    names = [name for name, _ in rows]
    assert any("tire @ 120" in n for n in names)
    assert any("boost rectifier" in n for n in names)
    by_name = dict(rows)
    # The section 7.1 punchline: boost rectification rescues the MEMS source.
    assert by_name["MEMS vibration + plain rectifier"] == 0.0
    assert by_name["MEMS vibration + boost rectifier"] > 0.0
    assert stats.tasks_failed == 0
