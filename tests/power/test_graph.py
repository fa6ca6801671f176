"""Rail-graph specs and the generic solver: validation, round-trips,
gating, drains, per-component degradation."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.power import rail_topologies
from repro.power.graph import (
    CHANNELS,
    ChargePumpSpec,
    DrainSpec,
    LdoSpec,
    LoadTapSpec,
    RailGraph,
    RailGraphSpec,
    ShuntSpec,
    SourceSpec,
    SwitchSpec,
    component_from_dict,
    component_to_dict,
)
from repro.power.rail_topologies import (
    RADIO_GATE,
    cots_spec,
    get_rail_spec,
    rail_topology_names,
    register_rail_topology,
)


def minimal_components():
    """A valid single-pump topology: every channel off one 2.2 V rail."""
    return (
        SourceSpec(name="battery"),
        ChargePumpSpec(name="pump", parent="battery", v_out=2.2),
        LoadTapSpec(name="mcu-tap", parent="pump", channel="mcu",
                    v_rail=2.2),
        LoadTapSpec(name="sensor-tap", parent="pump", channel="sensor",
                    v_rail=2.2),
        LoadTapSpec(name="rd-tap", parent="pump", channel="radio-digital",
                    v_rail=2.2),
        LoadTapSpec(name="rf-tap", parent="pump", channel="radio-rf",
                    v_rail=2.2),
    )


def minimal_spec(**overrides):
    fields = dict(name="test-train", description="test",
                  components=minimal_components())
    fields.update(overrides)
    return RailGraphSpec(**fields)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_minimal_spec_validates_and_solves():
    graph = RailGraph(minimal_spec())
    solution = graph.solve(1.25, {"mcu": 1e-6})
    assert solution.i_source > 0.0
    assert solution.p_source == 1.25 * solution.i_source


def test_components_must_start_with_the_source():
    comps = minimal_components()
    with pytest.raises(ConfigurationError, match="start with the Source"):
        minimal_spec(components=comps[1:])


def test_second_source_is_rejected():
    comps = minimal_components() + (SourceSpec(name="backup"),)
    with pytest.raises(ConfigurationError, match="more than one source"):
        minimal_spec(components=comps)


def test_duplicate_component_name_is_rejected():
    comps = minimal_components() + (
        LdoSpec(name="pump", parent="battery"),
    )
    with pytest.raises(ConfigurationError, match="duplicate component"):
        minimal_spec(components=comps)


def test_parent_must_be_an_earlier_component():
    comps = (
        SourceSpec(name="battery"),
        # Parent declared later -> forward reference, rejected.
        LoadTapSpec(name="mcu-tap", parent="pump", channel="mcu"),
    )
    with pytest.raises(ConfigurationError, match="not an earlier"):
        minimal_spec(components=comps)


def test_parent_must_carry_a_rail():
    comps = minimal_components() + (
        LdoSpec(name="ldo", parent="mcu-tap"),
    )
    with pytest.raises(ConfigurationError, match="carries\\s+no rail"):
        minimal_spec(components=comps)


def test_unknown_channel_is_rejected():
    comps = minimal_components()[:2] + (
        LoadTapSpec(name="t", parent="pump", channel="flux-capacitor"),
    )
    with pytest.raises(ConfigurationError, match="unknown channel"):
        minimal_spec(components=comps)


def test_every_channel_must_be_tapped_exactly_once():
    with pytest.raises(ConfigurationError, match="exactly once"):
        minimal_spec(components=minimal_components()[:-1])  # rf untapped
    doubled = minimal_components() + (
        LoadTapSpec(name="rf-tap-2", parent="pump", channel="radio-rf",
                    v_rail=2.2),
    )
    with pytest.raises(ConfigurationError, match="exactly once"):
        minimal_spec(components=doubled)


def test_bad_drain_contribution_is_rejected():
    for bad in (("", 1e-6), ("leak", -1e-6), ("leak", float("nan"))):
        comps = minimal_components() + (
            DrainSpec(name="standing", parent="battery",
                      contributions=(bad,)),
        )
        with pytest.raises(ConfigurationError, match="bad\\s+contribution"):
            minimal_spec(components=comps)


def test_specs_are_frozen():
    spec = minimal_spec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.name = "mutated"
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.components[1].v_out = 9.9


def test_gate_names_in_first_appearance_order():
    assert cots_spec().gate_names() == (RADIO_GATE,)
    assert minimal_spec().gate_names() == ()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(rail_topology_names()))
def test_registered_specs_round_trip_through_dict(kind):
    spec = get_rail_spec(kind)
    clone = RailGraphSpec.from_dict(spec.to_dict())
    assert clone == spec
    # And the rebuilt spec drives the solver to identical numbers.
    original = RailGraph(spec).solve(1.25, {"mcu": 1e-6})
    rebuilt = RailGraph(clone).solve(1.25, {"mcu": 1e-6})
    assert rebuilt.i_source.hex() == original.i_source.hex()


@pytest.mark.parametrize("kind", sorted(rail_topology_names()))
def test_registered_specs_round_trip_through_json_text(kind):
    """The dict form must survive an actual JSON encode/decode cycle."""
    import json

    spec = get_rail_spec(kind)
    clone = RailGraphSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec
    assert clone.gate_names() == spec.gate_names()
    for original, rebuilt in zip(spec.components, clone.components):
        assert type(rebuilt) is type(original)
        if hasattr(original, "i_leak_off"):
            assert rebuilt.i_leak_off == original.i_leak_off
            assert rebuilt.gate == original.gate
        if isinstance(original, DrainSpec):
            assert rebuilt.contributions == original.contributions


@settings(max_examples=40, deadline=None)
@given(
    gate=st.sampled_from([None, "radio", "aux"]),
    i_leak_off=st.floats(min_value=0.0, max_value=1e-6,
                         allow_nan=False, allow_infinity=False),
    v_out=st.floats(min_value=1.9, max_value=3.0,
                    allow_nan=False, allow_infinity=False),
    contributions=st.lists(
        st.tuples(
            st.sampled_from(["pad", "ref", "bandgap", "rtc"]),
            st.floats(min_value=0.0, max_value=1e-6,
                      allow_nan=False, allow_infinity=False),
        ),
        max_size=4,
    ),
)
def test_spec_json_round_trip_property(gate, i_leak_off, v_out,
                                       contributions):
    """Any valid spec — gates, off-leaks, ordered drain contributions —
    must round-trip bit-exactly through ``json.dumps(to_dict())``."""
    import json

    spec = RailGraphSpec(
        name="prop-train",
        description="hypothesis round-trip",
        components=(
            SourceSpec(name="battery"),
            DrainSpec(name="standing", parent="battery",
                      contributions=tuple(contributions)),
            ChargePumpSpec(name="pump", parent="battery", v_out=v_out,
                           gate=gate, i_leak_off=i_leak_off),
            SwitchSpec(name="sw", parent="pump", gate=gate,
                       i_leak_off=i_leak_off),
            LoadTapSpec(name="mcu-tap", parent="pump", channel="mcu",
                        v_rail=v_out),
            LoadTapSpec(name="sensor-tap", parent="pump",
                        channel="sensor", v_rail=v_out),
            LoadTapSpec(name="rd-tap", parent="sw",
                        channel="radio-digital", v_rail=v_out),
            LoadTapSpec(name="rf-tap", parent="sw", channel="radio-rf",
                        v_rail=v_out),
        ),
    )
    clone = RailGraphSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec
    assert clone.components[1].contributions == tuple(contributions)
    assert [c.name for c in clone.components] == [
        c.name for c in spec.components
    ]


def test_component_round_trip_preserves_nested_tuples():
    drain = DrainSpec(name="standing", parent="battery",
                      contributions=(("pad", 1e-9), ("ref", 2e-9)))
    clone = component_from_dict(component_to_dict(drain))
    assert clone == drain
    assert clone.contributions == (("pad", 1e-9), ("ref", 2e-9))


def test_unknown_component_kind_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown rail component"):
        component_from_dict({"kind": "warp-core", "name": "x"})


def test_bad_component_fields_are_rejected():
    with pytest.raises(ConfigurationError, match="bad fields"):
        component_from_dict({"kind": "ldo", "name": "x", "parent": "y",
                             "v_banana": 1.0})


# ---------------------------------------------------------------------------
# Solver semantics
# ---------------------------------------------------------------------------


def test_load_on_untapped_channel_is_rejected():
    graph = RailGraph(minimal_spec())
    with pytest.raises(ConfigurationError, match="untapped channel"):
        graph.solve(1.25, {"laser": 1e-3})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 float("-inf"), -1e-6])
def test_non_finite_or_negative_load_is_rejected(bad):
    graph = RailGraph(minimal_spec())
    with pytest.raises(ConfigurationError, match="finite"):
        graph.solve(1.25, {"mcu": bad})


def test_gated_branch_contributes_only_its_off_leak():
    graph = RailGraph(cots_spec())
    closed = graph.solve(1.25, {})
    # The switched LDO branch collapses to the switch's off-leakage...
    assert closed.component_i_in["ldo-input-switch"] == 1e-9
    # ...and the gated-off subtree is not descended at all.
    assert "lt3020" not in closed.component_i_in
    open_ = graph.solve(1.25, {}, open_gates=frozenset({RADIO_GATE}))
    assert "lt3020" in open_.component_i_in
    assert open_.i_source > closed.i_source


def test_switch_is_transparent_while_conducting():
    graph = RailGraph(cots_spec())
    solution = graph.solve(
        1.25, {"radio-rf": 1e-3}, open_gates=frozenset({RADIO_GATE})
    )
    # A conducting switch passes its child current through unchanged.
    assert (solution.component_i_in["ldo-input-switch"]
            == solution.component_i_in["lt3020"])


def test_drain_total_sums_contributions_left_to_right():
    drain = DrainSpec(name="standing", parent="battery",
                      contributions=(("a", 0.1), ("b", 0.2), ("c", 0.3)))
    assert drain.total() == ((0.0 + 0.1) + 0.2) + 0.3


def test_per_component_degradation_inflates_upstream_load():
    graph = RailGraph(cots_spec())
    gates = frozenset({RADIO_GATE})
    loads = {"radio-digital": 50e-6}
    healthy = graph.solve(1.25, loads, open_gates=gates)
    aged = graph.solve(1.25, loads, open_gates=gates,
                       degradation={"radio-digital-shunt": 2.0})
    shunt = "radio-digital-shunt"
    assert aged.component_i_in[shunt] == pytest.approx(
        2.0 * healthy.component_i_in[shunt]
    )
    # The pump upstream carries the extra shunt current.
    assert aged.component_i_in["tps60313"] > healthy.component_i_in["tps60313"]
    assert aged.i_source > healthy.i_source


def test_quiescent_current_is_the_zero_load_gated_off_solve():
    graph = RailGraph(cots_spec())
    assert graph.quiescent_current(1.25) == graph.solve(1.25, {}).i_source


def test_describe_is_deterministic_and_names_every_component():
    graph = RailGraph(cots_spec())
    text = graph.describe()
    assert text == RailGraph(cots_spec()).describe()
    for name in graph.component_names():
        assert name in text


def test_tap_voltage_and_missing_tap_error():
    graph = RailGraph(cots_spec())
    assert graph.tap_voltage("radio-rf") == 0.65
    with pytest.raises(ConfigurationError, match="no load tap"):
        cots_spec().tap("nonexistent")


# ---------------------------------------------------------------------------
# The topology registry
# ---------------------------------------------------------------------------


def test_registry_lists_paper_and_exploratory_topologies():
    names = rail_topology_names()
    assert names[0] == "cots" and names[1] == "ic"
    assert len(names) >= 4  # two paper + at least two exploratory


def test_unknown_kind_error_names_the_valid_kinds():
    with pytest.raises(ConfigurationError) as excinfo:
        get_rail_spec("warp")
    message = str(excinfo.value)
    for kind in rail_topology_names():
        assert kind in message


def test_register_rejects_empty_and_duplicate_kinds():
    with pytest.raises(ConfigurationError):
        register_rail_topology("", cots_spec)
    with pytest.raises(ConfigurationError):
        register_rail_topology("cots", cots_spec)


def test_register_validates_the_factory_spec_immediately():
    def broken():
        return minimal_spec(components=minimal_components()[:-1])

    with pytest.raises(ConfigurationError, match="exactly once"):
        register_rail_topology("broken", broken)
    assert "broken" not in rail_topology_names()


def test_registered_topology_is_buildable_and_removable():
    register_rail_topology("test-minimal", minimal_spec)
    try:
        assert "test-minimal" in rail_topology_names()
        assert get_rail_spec("test-minimal") == minimal_spec()
    finally:
        rail_topologies._RAIL_TOPOLOGIES.pop("test-minimal")
    assert "test-minimal" not in rail_topology_names()


@pytest.mark.parametrize("kind", sorted(rail_topology_names()))
def test_every_registered_topology_taps_all_channels(kind):
    spec = get_rail_spec(kind)
    for channel in CHANNELS:
        assert spec.tap(channel).channel == channel


def test_switch_spec_defaults_pass_through_leak():
    switch = SwitchSpec(name="s", parent="battery", gate="radio")
    assert switch.i_leak_off == 1e-9


def test_shunt_spec_carries_the_paper_series_resistor():
    shunt = ShuntSpec(name="sh", parent="pump")
    assert shunt.r_series == 8.2e3
