"""Batched rail-graph solving: bitwise equality with a scalar loop,
degradation, error parity, one gate form on every path, and batch
ergonomics.

The scalar :meth:`RailGraph.solve` is the bit-exact reference (see the
440-case golden suite in ``tests/core/test_graph_equivalence.py``);
these tests pin :meth:`RailGraph.solve_batch` to a loop of it, bit for
bit, at every point.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.errors import ConfigurationError, ElectricalError
from repro.power.compile import kernel_metrics
from repro.power.graph import (
    CHANNELS,
    FrozenMapping,
    GraphSolution,
    GraphSolutionBatch,
    RailGraph,
)
from repro.power.rail_topologies import (
    RADIO_GATE,
    get_rail_spec,
    rail_topology_names,
)

ALL_KINDS = sorted(rail_topology_names())

# Voltage window valid for every registered topology (the COTS pump
# needs 2.0 * v >= v_out + headroom, so stay above ~1.13 V).
V_GRID = np.linspace(1.15, 1.40, 9)

SLEEP_LOADS = {"mcu": 0.7e-6, "sensor": 0.3e-6}
TX_LOADS = {
    "mcu": 250e-6,
    "sensor": 450e-6,
    "radio-digital": 50e-6,
    "radio-rf": 4e-3,
}


def assert_bitwise(batch_values, scalar_values):
    """Batch and scalar values are the same doubles, bit for bit."""
    batch_values = np.asarray(batch_values, dtype=np.float64)
    scalar_values = np.asarray(scalar_values, dtype=np.float64)
    assert batch_values.shape == scalar_values.shape
    diverged = batch_values.view(np.int64) != scalar_values.view(np.int64)
    assert not diverged.any(), (
        f"batch diverged from scalar at points "
        f"{np.flatnonzero(diverged).tolist()}: "
        f"{[float(x).hex() for x in batch_values[diverged]]} vs "
        f"{[float(x).hex() for x in scalar_values[diverged]]}"
    )


def scalar_reference(graph, v_grid, loads, open_gates=frozenset(),
                     degradation=None):
    """Loop the scalar solver over the grid; returns (i_source, currents)."""
    solutions = [
        graph.solve(float(v), loads, open_gates=open_gates,
                    degradation=degradation)
        for v in v_grid
    ]
    i_source = np.array([s.i_source for s in solutions])
    currents = {
        name: np.array([s.component_i_in[name] for s in solutions])
        for name in solutions[0].component_i_in
    }
    return i_source, currents


# ---------------------------------------------------------------------------
# Scalar equivalence over every registered topology
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize(
    "loads,open_gates",
    [
        (SLEEP_LOADS, frozenset()),
        (TX_LOADS, frozenset({RADIO_GATE})),
    ],
    ids=["sleep", "tx"],
)
def test_batch_matches_scalar_loop(kind, loads, open_gates):
    graph = RailGraph(get_rail_spec(kind))
    batch = graph.solve_batch(V_GRID, loads, open_gates=open_gates)
    ref_i, ref_currents = scalar_reference(graph, V_GRID, loads,
                                           open_gates=open_gates)
    assert batch.i_source.shape == V_GRID.shape
    assert_bitwise(batch.i_source, ref_i)
    assert set(batch.component_i_in) == set(ref_currents)
    for name, expected in ref_currents.items():
        assert_bitwise(batch.component_i_in[name], expected)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_matches_scalar_with_degradation(kind):
    graph = RailGraph(get_rail_spec(kind))
    victim = graph.component_names()[1]
    degradation = {victim: 1.07}
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS, degradation=degradation)
    ref_i, _ = scalar_reference(graph, V_GRID, SLEEP_LOADS,
                                degradation=degradation)
    assert_bitwise(batch.i_source, ref_i)


def test_ic_radio_point_where_pow_and_multiply_disagree():
    """Regression: at this input CPython's ``v**2`` (libm ``pow``) and
    numpy's ``v * v`` round differently, which used to leave the batch
    ``ic-sc-3to2`` current one ulp off the scalar solve."""
    graph = RailGraph(get_rail_spec("ic"))
    v = float.fromhex("0x1.73282b3320068p+0")
    loads = {"radio-rf": 5.537855567414945e-3}
    radio_on = frozenset({RADIO_GATE})
    batch = graph.solve_batch(np.array([v]), loads, open_gates=radio_on)
    scalar = graph.solve(v, loads, open_gates=radio_on)
    assert_bitwise(batch.component_i_in["ic-sc-3to2"],
                   [scalar.component_i_in["ic-sc-3to2"]])
    assert_bitwise(batch.i_source, [scalar.i_source])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_loads_axis_matches_scalar(kind):
    """Sweep the load axis (fixed voltage) instead of the voltage axis."""
    graph = RailGraph(get_rail_spec(kind))
    mcu = np.linspace(0.0, 400e-6, 8)
    loads = {"mcu": mcu, "sensor": 0.3e-6}
    batch = graph.solve_batch(1.25, loads)
    expected = np.array([
        graph.solve(1.25, {"mcu": float(amps), "sensor": 0.3e-6}).i_source
        for amps in mcu
    ])
    assert batch.i_source.shape == mcu.shape
    assert_bitwise(batch.i_source, expected)


# ---------------------------------------------------------------------------
# Property: every topology x gate signature x degradation
# ---------------------------------------------------------------------------

_POINTS = st.fixed_dictionaries({
    "v": st.floats(1.0, 1.7),
    "mcu": st.floats(0.0, 600e-6),
    "sensor": st.floats(0.0, 600e-6),
    "radio-digital": st.floats(0.0, 150e-6),
    "radio-rf": st.floats(0.0, 6.5e-3),
})
_FACTORS = st.floats(0.5, 2.0)


# No shrink phase: shrinking a failure over these nested draws took
# minutes; the first failing example is reported as found.
@settings(
    max_examples=150, deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
@given(data=st.data())
def test_batch_equals_scalar_loop_at_every_in_envelope_point(data):
    """Random points under each gate open or closed and scalar
    degradation factors: after dropping the points where scalar
    ``solve`` raises, ``solve_batch`` must equal the scalar loop bit for
    bit — ``i_source`` and every component current."""
    kind = data.draw(st.sampled_from(ALL_KINDS), label="kind")
    graph = RailGraph(get_rail_spec(kind))
    points = data.draw(st.lists(_POINTS, min_size=1, max_size=12),
                       label="points")
    open_gates = frozenset(
        gate for gate in graph.spec.gate_names()
        if data.draw(st.booleans(), label=f"{gate} open")
    )
    degraded = data.draw(
        st.lists(st.sampled_from(graph.component_names()[1:]),
                 unique=True, max_size=3),
        label="degraded",
    )
    degradation = {name: data.draw(_FACTORS, label=name)
                   for name in degraded}

    kept, expected = [], []
    for point in points:
        try:
            expected.append(graph.solve(
                point["v"],
                {channel: point[channel] for channel in CHANNELS},
                open_gates=open_gates, degradation=degradation,
            ))
        except ElectricalError:
            continue
        kept.append(point)
    if not kept:
        return

    before = kernel_metrics()
    batch = graph.solve_batch(
        np.array([point["v"] for point in kept]),
        {channel: np.array([point[channel] for point in kept])
         for channel in CHANNELS},
        open_gates=open_gates, degradation=degradation,
    )
    after = kernel_metrics()
    assert after.kernel_solves == before.kernel_solves + 1
    assert after.fallbacks == before.fallbacks
    assert_bitwise(batch.i_source, [s.i_source for s in expected])
    assert list(batch.component_i_in) == list(expected[0].component_i_in)
    for name, amps in batch.component_i_in.items():
        assert_bitwise(amps, [s.component_i_in[name] for s in expected])


# ---------------------------------------------------------------------------
# Degradation
# ---------------------------------------------------------------------------


def test_degradation_applies_to_gated_off_leak():
    """Scalar parity: the factor multiplies even a closed gate's leak."""
    spec = get_rail_spec("cots")
    graph = RailGraph(spec)
    gated = [
        comp.name for comp in spec.components[1:]
        if getattr(comp, "gate", None) == RADIO_GATE
    ]
    assert gated, "cots topology should gate its radio components"
    victim = gated[0]
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS,
                              degradation={victim: 3.0})
    ref_i, ref_currents = scalar_reference(graph, V_GRID, SLEEP_LOADS,
                                           degradation={victim: 3.0})
    assert_bitwise(batch.component_i_in[victim], ref_currents[victim])
    assert_bitwise(batch.i_source, ref_i)


# ---------------------------------------------------------------------------
# Error parity with the scalar solver
# ---------------------------------------------------------------------------


def scalar_error_message(graph, v, loads, open_gates=frozenset()):
    with pytest.raises(ElectricalError) as excinfo:
        graph.solve(v, loads, open_gates=open_gates)
    return str(excinfo.value)


def test_out_of_envelope_point_raises_the_scalar_error():
    graph = RailGraph(get_rail_spec("cots"))
    v = np.array([1.25, 0.9, 1.25])  # pump cannot start from 0.9 V
    expected = scalar_error_message(graph, 0.9, SLEEP_LOADS)
    with pytest.raises(ElectricalError) as excinfo:
        graph.solve_batch(v, SLEEP_LOADS)
    assert str(excinfo.value) == expected


def test_overload_point_raises_the_scalar_error():
    graph = RailGraph(get_rail_spec("cots"))
    radio_on = frozenset({RADIO_GATE})
    loads = dict(TX_LOADS, **{"radio-rf": np.array([4e-3, 0.5])})
    expected = scalar_error_message(
        graph, 1.25, dict(TX_LOADS, **{"radio-rf": 0.5}),
        open_gates=radio_on,
    )
    with pytest.raises(ElectricalError) as excinfo:
        graph.solve_batch(1.25, loads, open_gates=radio_on)
    assert str(excinfo.value) == expected


def test_batch_raises_the_scalar_loops_first_error():
    """Point 0 fails late in walk order (the pump, after its children);
    point 1 fails early (the radio shunt starves).  A scalar loop stops
    at point 0, so the batch must raise the pump's error, not the error
    of the component that fails first in walk order."""
    graph = RailGraph(get_rail_spec("cots"))
    radio_on = frozenset({RADIO_GATE})
    v = np.array([0.6, 1.25])
    loads = {"mcu": 1e-6, "radio-digital": np.array([0.0, 5e-3])}
    with pytest.raises(ElectricalError) as first:
        for index in range(len(v)):
            graph.solve(float(v[index]),
                        {"mcu": 1e-6,
                         "radio-digital": float(loads["radio-digital"][index])},
                        open_gates=radio_on)
    assert "tps60313" in str(first.value)
    with pytest.raises(ElectricalError) as excinfo:
        graph.solve_batch(v, loads, open_gates=radio_on)
    assert str(excinfo.value) == str(first.value)


def test_gated_off_points_skip_envelope_checks():
    """A bad operating point behind a closed gate must not raise."""
    graph = RailGraph(get_rail_spec("cots"))
    loads = {
        "mcu": 0.7e-6,
        "sensor": 0.3e-6,
        # An RF load that overloads the LDO at point 0 — but the radio
        # gate is closed, so the walk never reaches it.
        "radio-rf": np.array([0.5, 4e-3]),
    }
    batch = graph.solve_batch(np.array([1.18, 1.25]), loads)
    sleep = [graph.solve(v, {"mcu": 0.7e-6, "sensor": 0.3e-6}).i_source
             for v in (1.18, 1.25)]
    assert_bitwise(batch.i_source, sleep)


def test_negative_batched_load_reports_the_point_index():
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="batch point 2"):
        graph.solve_batch(1.25, {"mcu": np.array([1e-6, 1e-6, -1e-6])})


def test_untapped_channel_rejected_in_batch():
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="untapped channel"):
        graph.solve_batch(1.25, {"laser": np.array([1e-3])})


def test_mismatched_batch_shapes_rejected():
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="do not broadcast"):
        graph.solve_batch(np.array([1.2, 1.25]),
                          {"mcu": np.array([1e-6, 1e-6, 1e-6])})


def _mismatched_shape_error(graph):
    with pytest.raises(ConfigurationError) as excinfo:
        graph.solve_batch(np.array([1.2, 1.25]),
                          {"mcu": np.array([1e-6, 1e-6, 1e-6])})
    return str(excinfo.value)


@pytest.mark.parametrize("scalar_fallback", [True, False])
def test_mismatched_shapes_raise_same_error_on_both_paths(scalar_fallback):
    """Shape validation happens once up front, before the batch is routed
    to a compiled kernel or to the scalar-loop fallback (a disabled
    converter forces the latter), so both paths raise the same error."""
    kernel_graph = RailGraph(get_rail_spec("cots"))
    graph = RailGraph(get_rail_spec("cots"))
    if scalar_fallback:
        graph.component("tps60313").disable()
    message = _mismatched_shape_error(graph)
    assert "do not broadcast" in message
    # Both paths must agree on the full message, not just the prefix.
    assert message == _mismatched_shape_error(kernel_graph)


def test_2d_batch_inputs_rejected():
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="1-D"):
        graph.solve_batch(np.ones((2, 2)), SLEEP_LOADS)
    with pytest.raises(ConfigurationError, match="1-D"):
        graph.solve_batch(1.25, {"mcu": np.ones((2, 2)) * 1e-6})


_GATES_NOT_NAMES = "cots-power-train: open_gates must be a collection " \
    "of gate names, got "
_FACTOR = "cots-power-train: degradation factor for "


@pytest.mark.parametrize("gates, factors, message", [
    pytest.param("radio", None, _GATES_NOT_NAMES + "str", id="str-gates"),
    pytest.param(b"radio", None, _GATES_NOT_NAMES + "bytes",
                 id="bytes-gates"),
    pytest.param({RADIO_GATE: False}, None, _GATES_NOT_NAMES + "dict",
                 id="mapping-false"),
    pytest.param({RADIO_GATE: True}, None, _GATES_NOT_NAMES + "dict",
                 id="mapping-true"),
    pytest.param(FrozenMapping({RADIO_GATE: np.array([True])}), None,
                 _GATES_NOT_NAMES + "FrozenMapping", id="mapping-mask"),
    *[pytest.param(frozenset({RADIO_GATE}), {"tps60313": factor},
                   _FACTOR + f"'tps60313' must be finite, got {factor!r}",
                   id=f"{factor}-factor")
      for factor in (math.nan, math.inf, -math.inf)],
    *[pytest.param(frozenset({RADIO_GATE}), {"mcu-tap": factor},
                   _FACTOR + "'mcu-tap' must be a number, got "
                   + type(factor).__name__, id=label)
      for label, factor in (("array-factor", np.array([1.1, 1.2])),
                            ("list-factor", [1.1, 1.2]),
                            ("0d-array-factor", np.array(1.1)))],
])
def test_bad_gate_or_factor_input_raises_one_error_on_every_path(
        gates, factors, message):
    """A ``str`` gate input reads as its characters and a mapping as its
    keys, so one input meant different gates to different paths, and a
    non-finite factor solved to a NaN or inf current.  ``solve``,
    ``solve_reference`` and ``solve_batch`` refuse each with one
    message, before any kernel is looked up or counted."""
    graph = RailGraph(get_rail_spec("cots"))
    for solve in (graph.solve, graph.solve_reference, graph.solve_batch):
        before = kernel_metrics()
        with pytest.raises(ConfigurationError) as raised:
            solve(1.25, TX_LOADS, gates, factors)
        assert str(raised.value) == message
        assert kernel_metrics() == before
    table = graph._kernels
    assert not (table.floats or table.batches or table.workspaces)


def test_unknown_degradation_key_rejected_in_batch():
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="no component 'bogus'"):
        graph.solve_batch(1.25, SLEEP_LOADS, degradation={"bogus": 1.1})


def test_unknown_degradation_key_rejected_in_scalar_solve():
    """Regression: scalar solve used to silently ignore typo'd keys."""
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="no component 'bogus'"):
        graph.solve(1.25, SLEEP_LOADS, degradation={"bogus": 1.1})


# ---------------------------------------------------------------------------
# Batch ergonomics
# ---------------------------------------------------------------------------


def test_scalar_inputs_produce_a_one_point_batch():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(1.25, SLEEP_LOADS)
    assert isinstance(batch, GraphSolutionBatch)
    assert len(batch) == 1
    assert batch.v_source.shape == (1,)
    scalar = graph.solve(1.25, SLEEP_LOADS)
    assert_bitwise(batch.i_source, [scalar.i_source])


def test_point_extracts_a_scalar_solution():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS)
    point = batch.point(3)
    assert isinstance(point, GraphSolution)
    assert point.v_source == float(V_GRID[3])
    assert point.i_source == float(batch.i_source[3])
    assert point.component_i_in["tps60313"] == float(
        batch.component_i_in["tps60313"][3]
    )


def test_point_supports_negative_indices():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS)
    last = batch.point(-1)
    assert last.v_source == float(V_GRID[-1])
    assert last.i_source == float(batch.i_source[-1])
    assert batch.point(-len(batch)).v_source == float(V_GRID[0])


def test_point_out_of_range_raises_index_error():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS)
    with pytest.raises(IndexError):
        batch.point(len(batch))
    with pytest.raises(IndexError):
        batch.point(-len(batch) - 1)


def test_point_solution_is_immutable():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS)
    point = batch.point(0)
    assert isinstance(point.component_i_in, FrozenMapping)
    with pytest.raises(TypeError):
        point.component_i_in["tps60313"] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.i_source = 0.0
    # Extracting a point must not have mutated the batch arrays.
    assert batch.i_source[0] == point.i_source


def test_p_source_is_elementwise_product():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS)
    np.testing.assert_array_equal(batch.p_source,
                                  batch.v_source * batch.i_source)


# ---------------------------------------------------------------------------
# Immutable component_i_in (regression: used to be a plain mutable dict)
# ---------------------------------------------------------------------------


def test_scalar_solution_currents_are_immutable():
    graph = RailGraph(get_rail_spec("cots"))
    solution = graph.solve(1.25, SLEEP_LOADS)
    assert isinstance(solution.component_i_in, FrozenMapping)
    with pytest.raises(TypeError):
        solution.component_i_in["tps60313"] = 0.0
    with pytest.raises(TypeError):
        del solution.component_i_in["tps60313"]


def test_batch_solution_currents_are_immutable():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(1.25, SLEEP_LOADS)
    with pytest.raises(TypeError):
        batch.component_i_in["tps60313"] = np.zeros(1)


def test_frozen_mapping_round_trips_through_pickle():
    import pickle

    mapping = FrozenMapping({"a": 1.0, "b": 2.0})
    clone = pickle.loads(pickle.dumps(mapping))
    assert isinstance(clone, FrozenMapping)
    assert clone == mapping
    assert list(clone) == ["a", "b"]


def test_frozen_mapping_equality_and_lookup():
    mapping = FrozenMapping({"a": 1.0})
    assert mapping == {"a": 1.0}
    assert mapping != {"a": 2.0}
    assert mapping["a"] == 1.0
    assert "a" in mapping and len(mapping) == 1
    with pytest.raises(KeyError):
        mapping["missing"]
