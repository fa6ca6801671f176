"""Float-dialect kernels behind scalar ``RailGraph.solve``.

The reference walk (:meth:`RailGraph.solve_reference`) is the one
definition of a solve.  Scalar ``solve`` and the node's
``GraphPowerTrain.solve`` are served by float kernels written by the
same emitters as the batch kernels; each kernel's first call is
compared bitwise with the walk before it is promoted.  These tests pin
the kernels to the walk bit for bit, and the walk's errors to ``solve``.
"""

import dataclasses
import math
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

import repro.campaigns  # noqa: F401  (registers the 'chaos' scenario)
from repro.core.power_train import LoadState, make_power_train
from repro.errors import ConfigurationError, ElectricalError
from repro.power import compile as compiler
from repro.power.charge_pump import RegulatedChargePump
from repro.power.compile import clear_kernel_cache, kernel_metrics
from repro.power.graph import CHANNELS, RailGraph
from repro.power.linear_regulator import LinearRegulator
from repro.power.rail_topologies import (
    RADIO_GATE,
    get_rail_spec,
    rail_topology_names,
)
from repro.power.sc_converter import SwitchedCapacitorConverter
from repro.power.shunt_regulator import ShuntRegulator
from repro.sim import checkpoint as cp

ALL_KINDS = sorted(rail_topology_names())
GRAPHS = {kind: RailGraph(get_rail_spec(kind)) for kind in ALL_KINDS}
TX_LOADS = {"mcu": 250e-6, "sensor": 0.3e-6,
            "radio-digital": 50e-6, "radio-rf": 4.0e-3}
RADIO = frozenset({RADIO_GATE})


@pytest.fixture(autouse=True)
def _no_scalar_kernel_retired(request):
    """A retired kernel is answered by the walk, so equality alone would
    not notice it: no test may retire one unless it declares how many
    (``test.retires``)."""
    before = kernel_metrics().scalar_mismatches
    yield
    expected = before + getattr(request.function, "retires", 0)
    assert kernel_metrics().scalar_mismatches == expected, (
        "a float kernel disagreed with the reference walk"
    )


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def walk_values(graph, v, loads, open_gates, degradation):
    solution = graph.solve_reference(v, loads, open_gates, degradation)
    return (solution.i_source, *solution.component_i_in.values())


def kernel_args(v, loads, degradation):
    return (v, *(loads.get(channel, 0.0) for channel in CHANNELS),
            degradation or None)


def envelope_edges(graph):
    """Source voltages where some converter's envelope test flips."""
    edges = {0.0}
    for name in graph.component_names():
        conv = graph.component(name)
        if isinstance(conv, RegulatedChargePump):
            edges |= {conv.input_range.minimum, conv.input_range.maximum}
            edges |= {(conv.v_out + conv.headroom) / g for g in conv.gains}
        elif isinstance(conv, LinearRegulator):
            edges.add(conv.minimum_input_voltage())
        elif isinstance(conv, SwitchedCapacitorConverter):
            edges.add(conv.v_target / conv.ratio)
        elif isinstance(conv, ShuntRegulator):
            edges.add(conv.v_out)
    near = set()
    for edge in edges:
        near |= {edge, math.nextafter(edge, -math.inf),
                 math.nextafter(edge, math.inf)}
    return sorted(near)


EDGE_VOLTAGES = sorted({v for g in GRAPHS.values()
                        for v in envelope_edges(g)})
LOAD_VALUES = st.one_of(
    st.sampled_from([0.0, 1e-6, 50e-6, 136e-6, 2e-3, 4e-3, 6e-3, 10e-3,
                     0.0100000001, 20e-3]),
    st.floats(0.0, 20e-3, allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_kernel_equals_walk_or_returns_none_where_walk_raises(data):
    kind = data.draw(st.sampled_from(ALL_KINDS), label="kind")
    graph = GRAPHS[kind]
    open_gates = data.draw(st.sampled_from([frozenset(), RADIO]),
                           label="gates")
    v = data.draw(st.one_of(st.sampled_from(EDGE_VOLTAGES),
                            st.floats(0.0, 2.5, allow_nan=False)),
                  label="v")
    loads = {channel: data.draw(LOAD_VALUES, label=channel)
             for channel in CHANNELS}
    degraded = data.draw(st.lists(
        st.sampled_from(graph.component_names()[1:]), unique=True,
        max_size=3), label="degraded")
    degradation = {name: data.draw(st.sampled_from([1.0, 1.0000001, 1.5,
                                                    2.0, 0.5]), label=name)
                   for name in degraded}
    entry = compiler._float_entry(graph, open_gates)
    assert not entry.failed
    result = entry.fn(*kernel_args(v, loads, degradation))
    try:
        reference = walk_values(graph, v, loads, open_gates, degradation)
    except ElectricalError as exc:
        assert result is None
        with pytest.raises(type(exc)) as raised:
            graph.solve(v, loads, open_gates, degradation)
        assert str(raised.value) == str(exc)
        return
    assert result is not None
    assert bits(result) == bits(reference)
    solution = graph.solve(v, loads, open_gates, degradation)
    expected = graph.solve_reference(v, loads, open_gates, degradation)
    assert list(solution.component_i_in) == list(expected.component_i_in)
    assert bits((solution.i_source, *solution.component_i_in.values())) \
        == bits(reference)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_first_call_verifies_then_promotes(kind):
    clear_kernel_cache()
    before = kernel_metrics()
    graph = RailGraph(get_rail_spec(kind))
    first = graph.solve(1.25, TX_LOADS, RADIO)
    assert graph.solve(1.25, TX_LOADS, RADIO) == first
    after = kernel_metrics()

    def delta(field):
        return getattr(after, field) - getattr(before, field)

    assert delta("scalar_compiles") == 1
    assert delta("scalar_verifications") == 1
    assert delta("scalar_fallbacks") == 0
    # Batch counters keep meaning batch kernels only.
    assert delta("compiles") == delta("fallbacks") == 0
    assert delta("kernel_solves") == 0


def test_envelope_error_is_the_walks_and_keeps_the_kernel():
    graph = RailGraph(get_rail_spec("cots"))
    graph.solve(1.25, TX_LOADS, RADIO)
    entry = compiler._float_entry(graph, RADIO)
    before = kernel_metrics().scalar_fallbacks
    with pytest.raises(ElectricalError) as raised:
        graph.solve(0.7, TX_LOADS, RADIO)
    with pytest.raises(ElectricalError) as walked:
        graph.solve_reference(0.7, TX_LOADS, RADIO)
    assert str(raised.value) == str(walked.value)
    assert not entry.failed and entry.verified
    assert kernel_metrics().scalar_fallbacks == before + 1


def test_disabled_converter_is_served_by_the_walk_and_counted():
    graph = RailGraph(get_rail_spec("cots"))
    graph.solve(1.25, TX_LOADS, RADIO)
    converter = graph.component("tps60313")
    converter.disable()
    try:
        before = kernel_metrics().scalar_fallbacks
        got = graph.solve(1.25, TX_LOADS, RADIO)
        assert got == graph.solve_reference(1.25, TX_LOADS, RADIO)
        assert got.component_i_in["tps60313"] == 0.0
        assert kernel_metrics().scalar_fallbacks == before + 1
    finally:
        converter.enable()


def test_diverging_kernel_is_retired_and_the_walk_answers():
    clear_kernel_cache()
    graph = RailGraph(get_rail_spec("cots"))
    entry = compiler._float_entry(graph, RADIO)
    real = entry.fn
    entry.fn = lambda *args: (real(*args)[0] + 1e-12, *real(*args)[1:])
    got = graph.solve(1.25, TX_LOADS, RADIO)
    assert got == graph.solve_reference(1.25, TX_LOADS, RADIO)
    assert entry.failed and "diverged bitwise" in entry.failure
    clear_kernel_cache()


test_diverging_kernel_is_retired_and_the_walk_answers.retires = 1


def test_kernel_rejecting_a_point_the_walk_accepts_is_retired():
    clear_kernel_cache()
    graph = RailGraph(get_rail_spec("cots"))
    graph.solve(1.25, TX_LOADS, RADIO)
    entry = compiler._float_entry(graph, RADIO)
    entry.fn = lambda *args: None
    got = graph.solve(1.25, TX_LOADS, RADIO)
    assert got == graph.solve_reference(1.25, TX_LOADS, RADIO)
    assert entry.failed and "accepts" in entry.failure
    clear_kernel_cache()


test_kernel_rejecting_a_point_the_walk_accepts_is_retired.retires = 1


def test_kernel_missing_an_envelope_violation_is_retired_on_first_call():
    clear_kernel_cache()
    graph = RailGraph(get_rail_spec("cots"))
    entry = compiler._float_entry(graph, RADIO)
    entry.fn = lambda *args: (1.0,)
    with pytest.raises(ElectricalError):
        graph.solve(0.7, TX_LOADS, RADIO)
    assert entry.failed and "rejects" in entry.failure
    clear_kernel_cache()


test_kernel_missing_an_envelope_violation_is_retired_on_first_call\
    .retires = 1


def test_unsupported_plan_falls_back_to_the_walk(monkeypatch):
    graph = RailGraph(get_rail_spec("cots"))

    def refuse(*args, **kwargs):
        raise compiler.KernelUnsupported("no emitter")

    clear_kernel_cache()
    monkeypatch.setattr(compiler, "generate_kernel_source", refuse)
    before = kernel_metrics()
    got = graph.solve(1.25, TX_LOADS, RADIO)
    assert got == graph.solve_reference(1.25, TX_LOADS, RADIO)
    after = kernel_metrics()
    assert after.scalar_fallbacks == before.scalar_fallbacks + 1
    assert after.scalar_compiles == before.scalar_compiles
    assert after.unsupported == before.unsupported  # batch field
    monkeypatch.undo()
    clear_kernel_cache()


def test_gate_collections_and_junk_gate_names_behave_like_the_walk():
    graph = RailGraph(get_rail_spec("cots"))
    for gates in ({RADIO_GATE}, ["radio"], frozenset({"radio", "junk"}),
                  frozenset({"junk"}), {RADIO_GATE: False}):
        assert graph.solve(1.25, TX_LOADS, gates) == \
            graph.solve_reference(1.25, TX_LOADS, gates)


def test_clear_kernel_cache_empties_per_graph_caches():
    graph = RailGraph(get_rail_spec("cots"))
    graph.solve(1.25, TX_LOADS, RADIO)
    graph.solve_batch([1.25] * 4, TX_LOADS, RADIO)
    table = graph._kernels
    assert table.floats and table.batches and table.loads \
        and table.workspaces
    clear_kernel_cache()
    assert not (table.floats or table.batches or table.loads
                or table.workspaces)


# ---------------------------------------------------------------------------
# The node's train: lean solve, pickling, checkpoint restore
# ---------------------------------------------------------------------------


def train_reference(train, v, loads):
    """The train's battery current by the reference walk."""
    solution = train.graph.solve_reference(
        v,
        {"mcu": loads.i_mcu, "sensor": loads.i_sensor,
         "radio-digital": loads.i_radio_digital,
         "radio-rf": loads.i_radio_rf},
        train._open_gates, train._component_degradations,
    )
    i_battery = solution.i_source
    if train.loss_factor != 1.0:
        i_battery = i_battery * train.loss_factor
    return i_battery


TRAIN_LOADS = [
    LoadState(i_mcu=0.7e-6, i_sensor=0.3e-6),
    LoadState(i_mcu=250e-6, i_sensor=450e-6),
    LoadState(i_mcu=250e-6, i_sensor=0.3e-6, i_radio_digital=50e-6,
              i_radio_rf=4.0e-3),
]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_train_solve_matches_the_walk_with_degradation(kind):
    train = make_power_train(kind)
    train.enable_radio()
    train.set_degradation(1.3)
    train.set_component_degradation(train.graph.component_names()[1], 1.2)
    for loads in TRAIN_LOADS:
        for v in (1.15, 1.25, 1.4):
            solution = train.solve(v, loads)
            assert bits((solution.i_battery,)) == \
                bits((train_reference(train, v, loads),))
            assert solution.v_mcu_rail == train.mcu_rail_voltage()
            assert solution.subsystem_power["radio-rf"] == \
                train.graph.tap_voltage("radio-rf") * loads.i_radio_rf


def test_pickled_train_carries_no_kernels_and_solves_the_same():
    train = make_power_train("cots")
    train.enable_radio()
    served = [train.solve(1.25, loads) for loads in TRAIN_LOADS]
    assert train.graph._kernels.floats
    # exec'd kernels cannot pickle at all, so dumps succeeding is the
    # evidence; the graph's state carries no kernel table.
    assert "_kernels" not in train.graph.__getstate__()
    clone = pickle.loads(pickle.dumps(train))
    assert not clone.graph._kernels.floats
    assert [clone.solve(1.25, loads) for loads in TRAIN_LOADS] == served
    assert clone.graph._kernels.floats  # the clone fills its own table
    assert train.graph._kernels.floats  # the original keeps its table


def test_checkpoint_restore_then_solve_equals_the_walk():
    params = {"duration_s": 1200.0, "profile": "mild", "seed": 31}
    node, injector = cp.build_scenario("chaos", params)
    node.run_until_time(91.0)
    checkpoint = cp.save_checkpoint(
        node, injector, scenario={"kind": "chaos", "params": params},
        meta={"end_time": params["duration_s"]})
    train_state = dataclasses.replace(
        checkpoint.node.train, radio_enabled=True, open_gates=(RADIO_GATE,),
        component_degradations={"tps60313": 1.25})
    checkpoint = dataclasses.replace(
        checkpoint,
        node=dataclasses.replace(checkpoint.node, train=train_state))
    restored, _ = cp.restore_from(checkpoint)
    train = restored.train
    assert train._open_gates == RADIO
    for loads in TRAIN_LOADS:
        for v in (1.2, 1.3):
            assert bits((train.solve(v, loads).i_battery,)) == \
                bits((train_reference(train, v, loads),))
    # And back to a gate state the graph has served before, written
    # directly as restore writes it.
    train._open_gates = frozenset()
    train._component_degradations = {}
    sleep = TRAIN_LOADS[0]
    assert train.solve(1.25, sleep).i_battery == \
        train_reference(train, 1.25, sleep)


# ---------------------------------------------------------------------------
# LoadState validation keeps its exact errors
# ---------------------------------------------------------------------------


def legacy_load_state_check(values):
    """The per-field loop LoadState ran on every construction."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if value < 0.0:
            raise ConfigurationError(f"{name} must be >= 0")


LOAD_FIELDS = ("i_mcu", "i_sensor", "i_radio_digital", "i_radio_rf")


@pytest.mark.parametrize("field", LOAD_FIELDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-9,
                                 -1, "1e-6", None, 10 ** 400, [1e-6]],
                         ids=["nan", "inf", "-inf", "negative",
                              "negative-int", "str", "none", "huge-int",
                              "list"])
def test_load_state_errors_are_unchanged(field, bad):
    values = dict.fromkeys(LOAD_FIELDS, 1e-6)
    values[field] = bad
    with pytest.raises(Exception) as expected:
        legacy_load_state_check(values)
    with pytest.raises(type(expected.value)) as raised:
        LoadState(**values)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("good", [0.0, -0.0, 0, 5, True, 1e-300, 1e300])
def test_load_state_accepts_what_it_accepted(good):
    values = dict.fromkeys(LOAD_FIELDS, good)
    legacy_load_state_check(values)
    assert LoadState(**values).i_mcu is good
