"""The cohort chain's fast paths pinned to the general paths they replace.

``_scalar_pow`` peels a few distinct exponents off with masks before it
sorts; the cell read runs the cell's formulas on one OCV segment's
scalars when every lane sits in that segment; the compiled kernels reuse
workspace buffers.  Each is
an exact rewrite, so each is compared here bit for bit with the plain
computation — plus a fleet whose lanes cross the knees where the fast
paths hand over, and the degradation checks both engines share.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.power_train import make_power_train
from repro.errors import ConfigurationError, StorageError
from repro.net.cohort import (
    _POW_PEEL_LIMIT,
    CohortSpec,
    _CohortMachine,
    _Lanes,
    _scalar_pow,
)
from repro.power.compile import kernel_metrics
from repro.sim.fleet_engine import FleetScenario, run_fleet
from repro.storage.nimh import LOW_SOC, NiMHCell, cold_factor

from .equivalence import assert_engines_equivalent

# -- _scalar_pow == one CPython pow per element ------------------------------

SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0]
exponent = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


def _reference_pow(base, exponents):
    return [(base ** float(x)).hex() for x in exponents]


def _assert_pow_matches(base, exponents):
    exponents = np.array(exponents, dtype=float)
    assert [x.hex() for x in _scalar_pow(base, exponents)] == \
        _reference_pow(base, exponents)
    out = np.full(exponents.shape, 7.0)
    _scalar_pow(base, exponents, out=out)
    assert [x.hex() for x in out] == _reference_pow(base, exponents)


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from([0.75, 0.5, 1.0, 0.999999, 0.01]),
    values=st.lists(exponent, min_size=1, max_size=3 * _POW_PEEL_LIMIT,
                    unique_by=lambda x: float(x).hex()),
    picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=80),
)
def test_scalar_pow_matches_cpython_pow(base, values, picks):
    """One, a few, or many distinct values, repeated in any order."""
    _assert_pow_matches(base, [values[k % len(values)] for k in picks])


@pytest.mark.parametrize("distinct", [
    1, _POW_PEEL_LIMIT - 1, _POW_PEEL_LIMIT, _POW_PEEL_LIMIT + 1,
    3 * _POW_PEEL_LIMIT,
])
def test_scalar_pow_at_the_peel_limit(distinct):
    values = [0.25 * k - 1.0 for k in range(distinct)]
    exponents = [values[(7 * k) % distinct] for k in range(4 * distinct + 3)]
    _assert_pow_matches(0.75, exponents)


def test_scalar_pow_signed_zeros_nan_and_empty():
    _assert_pow_matches(0.75, [0.0, -0.0, -0.0, 0.0])
    _assert_pow_matches(0.75, [math.nan, 1.0, math.nan, 2.0])
    _assert_pow_matches(1.0, [math.nan, math.nan])
    assert _scalar_pow(0.75, np.array([])).shape == (0,)


# -- one-segment cell read == per-lane read ----------------------------------


@pytest.fixture(scope="module")
def machine():
    spec = CohortSpec(node_indices=(0, 1), offsets=(0.0, 1.0),
                      duration_s=30.0)
    return _CohortMachine(spec)


def _knee_charges(machine):
    """Charges on, one ulp around, and just around each OCV knee and
    soc 0.2, plus the ends of the curve."""
    charges = []
    knees = [s0 for _, s0, _, _, _ in machine.segments]
    for soc in knees + [machine.segments[-1][0], LOW_SOC]:
        charge = soc * machine.capacity
        for value in (charge, math.nextafter(charge, -math.inf),
                      math.nextafter(charge, math.inf),
                      charge * (1 - 1e-9), charge * (1 + 1e-9)):
            if 0.0 <= value <= machine.capacity:
                charges.append(value)
    return np.array(charges)


def _cell_read(machine, charges, esr):
    lanes = _Lanes(len(charges), 0.0, 0.0)
    lanes.charge[:] = charges
    machine._read_cell(lanes, esr)
    return lanes.ocv.copy(), lanes.resistance.copy()


@pytest.mark.parametrize("cold", [None, 1.3])
def test_one_segment_read_matches_per_lane_read(machine, cold, monkeypatch):
    """The mixed batch spans every segment (per-lane search and soc<0.2
    resistance); each single lane takes the one-segment path.  ``cold``
    is the cell's cold factor: a warm cell, or one at 10 C."""
    temperature_c = 25.0 if cold is None else 10.0
    assert cold is None or cold_factor(temperature_c) == pytest.approx(cold)
    monkeypatch.setattr(machine, "temperature_c", temperature_c)
    charges = _knee_charges(machine)
    esr = np.linspace(0.5, 3.0, len(charges))
    ocv, resistance = _cell_read(machine, charges, esr)
    for k, charge in enumerate(charges):
        one_ocv, one_res = _cell_read(machine, np.array([charge]), esr[k:k + 1])
        assert one_ocv[0].hex() == ocv[k].hex(), charge
        assert one_res[0].hex() == resistance[k].hex(), charge


def test_one_segment_read_matches_the_scalar_cell(machine):
    cell = NiMHCell()
    cell.set_temperature(machine.probe.battery.temperature_c)
    cell.set_esr_multiplier(1.7)
    for charge in _knee_charges(machine):
        ocv, resistance = _cell_read(machine, np.array([charge]),
                                     np.array([1.7]))
        cell._charge = float(charge)
        assert ocv[0].hex() == cell.open_circuit_voltage().hex()
        assert resistance[0].hex() == cell.internal_resistance().hex()


def test_lanes_crossing_the_knees_stay_bit_identical():
    """Leaky lanes cross the 0.5 knee and soc 0.2 mid-run, so the chain
    switches between the one-segment and per-lane reads."""
    scenario = FleetScenario(
        node_count=4, duration_s=30.0, phase_seed=3,
        self_discharge_multipliers=(1.0, 2e5, 6e5, 3e5),
    )
    _, cohort = assert_engines_equivalent(scenario)
    socs = [cohort.battery_charge(k) / NiMHCell().capacity_coulombs
            for k in range(4)]
    assert socs[0] > 0.5 and socs[2] < 0.2 and 0.2 < socs[1] < 0.5


# -- kernel workspaces never leak into returned arrays -----------------------


def _snapshot(solution):
    return {name: amps.copy() for name, amps in
            [("i_source", solution.i_source),
             *solution.component_i_in.items()]}


def _assert_unchanged(solution, snapshot):
    current = _snapshot(solution)
    assert list(current) == list(snapshot)
    for name, amps in snapshot.items():
        assert current[name].tobytes() == amps.tobytes(), name


def test_successive_solves_leave_earlier_results_unchanged():
    train = make_power_train("cots")
    n = 4096
    v = np.linspace(1.15, 1.35, n)
    loads = {"mcu": 1e-6, "sensor": np.linspace(0.0, 2e-6, n)}
    train.solve_graph_batch(v, loads)  # first use: verified
    first = train.solve_graph_batch(v, loads)
    kept = _snapshot(first)
    second = train.solve_graph_batch(v[::-1].copy(), loads)
    _assert_unchanged(first, kept)
    # Another shape, and the other gate variant sharing the workspace.
    train.solve_graph_batch(v[:100].copy(), {"mcu": 2e-6})
    train.enable_radio()
    radio = {"mcu": 1e-6, "radio-digital": 1e-5, "radio-rf": 1e-4}
    train.solve_graph_batch(v, radio)
    opened = train.solve_graph_batch(v, radio)
    _assert_unchanged(first, kept)
    for later in (second, opened):
        assert not np.shares_memory(first.i_source, later.i_source)
    assert kernel_metrics().fallbacks == 0


# -- per-lane degradation: both engines reject the same values ---------------

BAD_LANES = [
    (dict(esr_multipliers=(1.0, -1.0)), StorageError,
     "nimh-15mah: ESR multiplier must be > 0"),
    (dict(esr_multipliers=(1.0, math.nan)), StorageError,
     "nimh-15mah: ESR multiplier must be finite, got nan"),
    (dict(self_discharge_multipliers=(1.0, -2.0)), StorageError,
     "nimh-15mah: self-discharge multiplier must be >= 0"),
    (dict(self_discharge_multipliers=(math.inf, 1.0)), StorageError,
     "nimh-15mah: self-discharge multiplier must be finite, got inf"),
    (dict(loss_factors=(1.0, 0.5)), ConfigurationError,
     "cots-power-train: degradation loss factor must be >= 1, got 0.5"),
    (dict(loss_factors=(math.nan, 1.0)), ConfigurationError,
     "cots-power-train: degradation loss factor must be finite, got nan"),
]


@pytest.mark.parametrize("engine", ["cohort", "per-node"])
@pytest.mark.parametrize("lanes, error, message", BAD_LANES)
def test_invalid_lane_degradation_raises_on_both_engines(engine, lanes,
                                                         error, message):
    with pytest.raises(error) as raised:
        run_fleet(FleetScenario(node_count=2, duration_s=30.0,
                                phase_seed=3, **lanes), engine=engine)
    assert str(raised.value) == message


@pytest.mark.parametrize("lanes, error, message", BAD_LANES)
def test_invalid_lane_degradation_rejected_by_cohort_spec(lanes, error,
                                                          message):
    with pytest.raises(error) as raised:
        CohortSpec(node_indices=(0, 1), offsets=(0.0, 1.0), duration_s=30.0,
                   **lanes)
    assert str(raised.value) == message


def test_first_failing_node_is_reported_in_per_node_order():
    """Node 1's bad ESR comes before node 2's bad loss factor."""
    with pytest.raises(StorageError, match="ESR"):
        FleetScenario(node_count=3, duration_s=30.0,
                      esr_multipliers=(1.0, 0.0, 1.0),
                      loss_factors=(1.0, 1.0, 0.1))
    with pytest.raises(ConfigurationError, match="loss factor"):
        FleetScenario(node_count=3, duration_s=30.0,
                      esr_multipliers=(1.0, 1.0, 0.0),
                      loss_factors=(1.0, 0.1, 1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_fault_setters_reject_non_finite_values(value):
    cell = NiMHCell()
    with pytest.raises(StorageError, match="finite"):
        cell.set_esr_multiplier(value)
    with pytest.raises(StorageError, match="finite"):
        cell.set_self_discharge_multiplier(value)
    with pytest.raises(ConfigurationError, match="finite"):
        make_power_train("cots").set_degradation(value)


# -- p_management is the left fold on every interpreter ----------------------


def test_p_management_is_the_left_fold():
    """The IC radio-setup point, where Python 3.12's compensated sum()
    differs from the left fold the node and the cohort capture record."""
    powers = [float.fromhex(x) for x in (
        "0x1.06bd62575b443p-11", "0x1.523a8a6a7ca09p-21",
        "0x1.a36e2eb1c432dp-15", "0x0.0p+0")]
    # The IC taps are 2.1 / 2.1 / 1.0 / 0.65 V; these currents give the
    # four powers above exactly.
    solution = make_power_train("ic").solution(
        1.25, 5e-4, 0.00023863636363636364, 3e-07, 5e-05, 0.0)
    assert [watts.hex() for watts in solution.subsystem_power.values()] \
        == [watts.hex() for watts in powers]
    delivered = ((powers[0] + powers[1]) + powers[2]) + powers[3]
    expected = max(1.25 * 5e-4 - delivered, 0.0)
    assert solution.p_management.hex() == expected.hex()


def test_ic_fleet_stays_on_the_cohort_path():
    scenario = FleetScenario(node_count=3, duration_s=30.0, phase_seed=5,
                             power_train="ic")
    assert_engines_equivalent(scenario)
