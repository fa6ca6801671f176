"""``GraphPowerTrain.solve`` as the node's whole electrical step.

With a non-zero ``resistance`` one call runs the fixed-point pass on the
terminal voltage that ``PicoCube._update`` once spelled as two train
calls: the battery current alone at ``ocv - i_previous * r``, then a full
solve at ``ocv - i1 * r``.  That old sequence is kept here, on the
reference walk, as the reference; every result must match it to the
last bit and every error in type and message.  With ``resistance ==
0.0`` the call is the one-point solve the 440 float-hex goldens pin.
"""

import json
import pathlib

import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, given, settings, strategies as st

from repro.core.power_train import LoadState, make_power_train
from repro.errors import ElectricalError
from repro.power.graph import CHANNELS
from repro.power.rail_topologies import rail_topology_names

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_train_solutions.json"
GOLDEN_CASES = json.loads(GOLDEN_PATH.read_text())["cases"]


def reference_current(train, v_battery, loads):
    """The retired ``battery_current``: one point solve's battery current
    with the train-wide loss factor applied, errors included."""
    if not train.radio_enabled and (
        loads.i_radio_digital > 0.0 or loads.i_radio_rf > 0.0
    ):
        raise ElectricalError(
            f"{train.name}: radio load with its supplies gated off"
        )
    i_battery = train.graph.solve_reference(
        v_battery, dict(zip(CHANNELS, loads)), train._open_gates,
        train.component_degradations(),
    ).i_source
    if train.loss_factor != 1.0:
        i_battery = i_battery * train.loss_factor
    return i_battery


def reference_step(train, ocv, loads, resistance, i_previous):
    """The two-call update: ``(pass that raised or None, fields)``."""
    try:
        i1 = reference_current(train, ocv - i_previous * resistance, loads)
    except ElectricalError as exc:
        return 1, exc
    v_battery = ocv - i1 * resistance
    try:
        i_battery = reference_current(train, v_battery, loads)
    except ElectricalError as exc:
        return 2, exc
    powers = {channel: train.graph.tap_voltage(channel) * amps
              for channel, amps in zip(CHANNELS, loads)}
    delivered = 0.0
    for watts in powers.values():
        delivered += watts
    return None, (v_battery, i_battery, train.mcu_rail_voltage(), powers,
                  max(v_battery * i_battery - delivered, 0.0))


def hexed(fields):
    v_battery, i_battery, v_mcu_rail, powers, p_management = fields
    return (v_battery.hex(), i_battery.hex(), v_mcu_rail.hex(),
            {channel: watts.hex() for channel, watts in powers.items()},
            p_management.hex())


def assert_same_step(train, ocv, loads, resistance, i_previous):
    """Compare the one-call step with the reference; return which pass
    raised (``None`` when both solved)."""
    raised, expected = reference_step(train, ocv, loads, resistance,
                                      i_previous)
    if raised is not None:
        with pytest.raises(type(expected)) as excinfo:
            train.solve(ocv, loads, resistance, i_previous)
        assert str(excinfo.value) == str(expected)
        return raised
    solution = train.solve(ocv, loads, resistance, i_previous)
    assert hexed(solution) == hexed(expected)
    assert list(solution.subsystem_power) == list(CHANNELS)
    return None


def make_train(kind, radio, loss, degradations, warm):
    train = make_power_train(kind)
    if radio:
        train.enable_radio()
    if loss != 1.0:
        train.set_degradation(loss)
    for name, factor in degradations.items():
        train.set_component_degradation(name, factor)
    if warm:
        # Promote the gate state's float kernel, so the step answers
        # from it rather than from the compiler's slow path.
        try:
            train.solve(1.3, LoadState())
        except ElectricalError:
            pass
    return train


currents = st.floats(0.0, 2e-3)
radio_currents = st.one_of(st.just(0.0), st.floats(0.0, 6e-3))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(rail_topology_names()),
    radio=st.sampled_from([True, True, True, False]),
    warm=st.booleans(),
    loss=st.one_of(st.just(1.0), st.floats(1.0, 2.0)),
    loads=st.builds(LoadState, currents, currents, radio_currents,
                    radio_currents),
    ocv=st.floats(0.9, 2.0),
    resistance=st.one_of(st.just(0.0), st.floats(0.0, 20.0),
                         st.floats(20.0, 400.0)),
    i_previous=st.floats(0.0, 5e-3),
)
def test_one_call_step_matches_the_two_call_reference(
        data, kind, radio, warm, loss, loads, ocv, resistance, i_previous):
    names = make_power_train(kind).graph.component_names()
    degradations = data.draw(st.dictionaries(
        st.sampled_from(names), st.floats(1.0, 3.0), max_size=2))
    train = make_train(kind, radio, loss, degradations, warm)
    raised = assert_same_step(train, ocv, loads, resistance, i_previous)
    event(f"raised on pass {raised}" if raised else "solved")


TX = LoadState(i_mcu=250e-6, i_sensor=0.3e-6, i_radio_digital=50e-6,
               i_radio_rf=4e-3)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("kind", rail_topology_names())
@pytest.mark.parametrize("ocv, resistance, i_previous, raised", [
    (1.3, 2.0, 1e-3, None),
    (0.9, 2.0, 0.0, 1),      # below every envelope at the open circuit
    (1.3, 2.0, 0.2, 1),      # the start current's sag leaves it
    (1.3, 100.0, 0.0, 2),    # only the solved current's sag leaves it
], ids=["solved", "pass-1-ocv", "pass-1-sag", "pass-2-sag"])
def test_each_pass_raises_as_the_reference(kind, warm, ocv, resistance,
                                           i_previous, raised):
    train = make_train(kind, True, 1.1, {}, warm)
    assert assert_same_step(train, ocv, TX, resistance, i_previous) \
        == raised


def test_gated_radio_load_raises_before_any_pass():
    train = make_power_train("cots")
    with pytest.raises(ElectricalError, match="gated off"):
        train.solve(1.3, TX, 2.0, 1e-3)


@pytest.mark.parametrize(
    "case", GOLDEN_CASES,
    ids=[f"{c['kind']}-{c['case']}-{c['v_battery']:g}V"
         for c in GOLDEN_CASES])
def test_zero_resistance_is_the_golden_point_solve(case):
    """``resistance=0.0`` ignores ``i_previous`` and reproduces the 440
    float-hex goldens."""
    train = make_power_train(case["kind"])
    if case["loss_factor"] != 1.0:
        train.set_degradation(case["loss_factor"])
    if case["radio"]:
        train.enable_radio()
    loads = LoadState(**case["loads"])
    expected = case["result"]
    if "error" in expected:
        with pytest.raises(ElectricalError) as excinfo:
            train.solve(case["v_battery"], loads, 0.0, 1e-3)
        assert type(excinfo.value).__name__ == expected["error"]
        assert str(excinfo.value) == expected["message"]
        return
    solution = train.solve(case["v_battery"], loads, 0.0, 1e-3)
    assert solution.v_battery.hex() == case["v_battery"].hex()
    assert solution.i_battery.hex() == expected["i_battery"]
    assert solution.v_mcu_rail.hex() == expected["v_mcu_rail"]
    assert {
        channel: watts.hex()
        for channel, watts in solution.subsystem_power.items()
    } == expected["subsystem_power"]
