"""Plan-compiled fused kernels: bitwise identity with a scalar loop,
error parity, verification/fallback semantics, and the in-memory kernel
cache.

The contract under test (see ``repro/power/compile.py``):
``RailGraph.solve_batch`` must return the same doubles, and raise the
same errors, as a loop of scalar ``RailGraph.solve`` calls for every
registered topology, gate state, and degradation; a kernel that
diverges must be retired, the scalar loop must answer in its place,
and both must be surfaced in :func:`repro.power.compile.kernel_metrics`
(the suite's ``conftest.py`` zeroes the counters before each test).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ElectricalError
from repro.power import compile as kernel_compile
from repro.power.compile import (
    GATE_CLOSED,
    GATE_OPEN,
    KernelUnsupported,
    clear_kernel_cache,
    compiled_kernel_for,
    generate_kernel_source,
    kernel_metrics,
    kernel_source,
    resolve_gates,
)
from repro.power.graph import RailGraph
from repro.power.rail_topologies import (
    RADIO_GATE,
    get_rail_spec,
    rail_topology_names,
)

ALL_KINDS = sorted(rail_topology_names())

#: Valid for every registered topology (the COTS pump's smallest gain
#: needs v >= ~1.13 V to clear its boosted-rail threshold).
N_POINTS = 257
V_GRID = np.linspace(1.15, 1.40, N_POINTS)


@pytest.fixture(autouse=True)
def _fresh_kernel_state():
    """Each test compiles from scratch and leaves no kernel behind."""
    clear_kernel_cache()
    yield
    clear_kernel_cache()


def _batch_loads(rng, radio=True):
    loads = {
        "mcu": rng.uniform(0.0, 2e-6, N_POINTS),
        "sensor": rng.uniform(0.0, 1e-6, N_POINTS),
    }
    if radio:
        # Stay under the COTS shunt's supply-minus-bias headroom.
        loads["radio-digital"] = rng.uniform(0.0, 5e-5, N_POINTS)
        loads["radio-rf"] = rng.uniform(0.0, 1e-3, N_POINTS)
    return loads


def _assert_bitwise_equal(first, second):
    assert first.i_source.tobytes() == second.i_source.tobytes()
    assert list(first.component_i_in) == list(second.component_i_in)
    for name in first.component_i_in:
        assert (
            np.asarray(first.component_i_in[name]).tobytes()
            == np.asarray(second.component_i_in[name]).tobytes()
        ), f"component {name} diverged bitwise"


def _at(value, index):
    arr = np.asarray(value)
    return arr.item() if arr.ndim == 0 else arr[index].item()


def scalar_loop(graph, v, loads, open_gates=frozenset(), degradation=None):
    """The reference: one scalar ``RailGraph.solve`` per batch point."""
    size = max((len(value) for value in [v, *loads.values()]
                if np.ndim(value) == 1), default=1)
    return [
        graph.solve(float(_at(v, index)),
                    {channel: float(_at(amps, index))
                     for channel, amps in loads.items()},
                    open_gates=open_gates, degradation=degradation)
        for index in range(size)
    ]


def _assert_matches_scalar(batch, solutions):
    """``i_source`` and every component current, bitwise."""
    expected = np.array([s.i_source for s in solutions])
    assert batch.i_source.tobytes() == expected.tobytes()
    if solutions:
        assert list(batch.component_i_in) == \
            list(solutions[0].component_i_in)
    for name, amps in batch.component_i_in.items():
        want = np.array([s.component_i_in[name] for s in solutions])
        assert np.asarray(amps).tobytes() == want.tobytes(), (
            f"component {name} diverged bitwise"
        )


def _gate_configs():
    return [
        ("closed", frozenset(), None),
        ("open-set", frozenset({RADIO_GATE}), None),
        ("open-degraded", frozenset({RADIO_GATE}),
         {"mcu-tap": 1.25, "radio-rf-tap": 1.1}),
        ("closed-degraded", frozenset(), {"sensor-tap": 1.07}),
    ]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_compiled_matches_interpreted_bitwise(kind):
    """Every topology, each gate state with and without degradation,
    repeated calls (first call verifies, later calls run the kernel
    directly), against the interpreted scalar walk looped over the
    batch."""
    rng = np.random.default_rng(11)
    graph = RailGraph(get_rail_spec(kind))
    loads = _batch_loads(rng)
    for label, gates, degradation in _gate_configs():
        reference = scalar_loop(graph, V_GRID, loads, gates, degradation)
        for call in range(3):
            compiled = graph.solve_batch(
                V_GRID, dict(loads), open_gates=gates,
                degradation=degradation)
            _assert_matches_scalar(compiled, reference)
    metrics = kernel_metrics()
    assert metrics.mismatches == 0
    assert metrics.fallbacks == 0
    assert metrics.kernel_solves == 3 * len(_gate_configs()), (
        "a call was not served by a compiled kernel"
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_compiled_matches_interpreted_with_scalar_loads(kind):
    """Scalar channel loads take the specialized whole-call fast path;
    it must be bitwise-identical too."""
    graph = RailGraph(get_rail_spec(kind))
    loads = {"mcu": 0.7e-6, "sensor": 0.3e-6}
    reference = scalar_loop(graph, V_GRID, loads)
    for _ in range(2):
        _assert_matches_scalar(graph.solve_batch(V_GRID, loads), reference)
    assert kernel_metrics().kernel_solves == 2


@pytest.mark.parametrize(
    "v_scale, loads, gates",
    [
        # Pump/SC input window violation: voltages far below any
        # workable boost gain.
        (0.6, {"mcu": 1e-6, "sensor": 1e-6}, frozenset()),
        # LDO overload on the RF branch.
        (1.0, {"mcu": 1e-6, "radio-rf": 0.5}, frozenset({RADIO_GATE})),
        # Shunt starvation: digital load exceeds the series supply.
        (1.0, {"mcu": 1e-6, "radio-digital": 5e-3},
         frozenset({RADIO_GATE})),
    ],
)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_error_parity_out_of_envelope(kind, v_scale, loads, gates):
    """The batch raises the scalar loop's first ElectricalError (same
    type, same message), or both succeed with identical results."""
    graph = RailGraph(get_rail_spec(kind))
    v = V_GRID * v_scale
    outcomes = []
    for solve in (
        lambda: graph.solve_batch(v, dict(loads), open_gates=gates).i_source,
        lambda: np.array([s.i_source
                          for s in scalar_loop(graph, v, loads, gates)]),
    ):
        try:
            outcomes.append(("ok", solve().tobytes()))
        except ElectricalError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    assert outcomes[0] == outcomes[1]


def test_invalid_inputs_raise_identically_on_both_paths():
    """Input validation (not envelope) errors: identical type+message
    whether a kernel or the scalar-loop fallback (forced by a disabled
    converter) would serve the batch."""
    graphs = (RailGraph(get_rail_spec("cots")),
              RailGraph(get_rail_spec("cots")))
    graphs[1].component("tps60313").disable()
    bad_inputs = [
        # mismatched batch shapes
        dict(loads={"mcu": np.zeros(N_POINTS + 3)}),
        # negative load at a batch point
        dict(loads={"mcu": np.full(N_POINTS, -1e-6)}),
        # non-finite load
        dict(loads={"mcu": np.full(N_POINTS, np.nan)}),
        # unknown channel
        dict(loads={"flux-capacitor": 1e-6}),
        # a gate mapping
        dict(loads={"mcu": 1e-6}, open_gates={"warp": True}),
        # unknown degradation component
        dict(loads={"mcu": 1e-6}, degradation={"nonesuch": 1.5}),
        # non-finite degradation factor
        dict(loads={"mcu": 1e-6}, degradation={"tps60313": np.nan}),
    ]
    for kwargs in bad_inputs:
        outcomes = []
        for graph in graphs:
            try:
                graph.solve_batch(V_GRID,
                                  **{k: (dict(v) if isinstance(v, dict)
                                         else v)
                                     for k, v in kwargs.items()})
                outcomes.append(("ok", None))
            except ConfigurationError as exc:
                outcomes.append((type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1], f"for {kwargs}"
        assert outcomes[0][0] == "ConfigurationError"


def test_first_use_verification_then_direct_kernel():
    graph = RailGraph(get_rail_spec("cots"))
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    graph.solve_batch(V_GRID, loads)
    first = kernel_metrics()
    assert first.compiles == 1
    assert first.verifications == 1
    assert first.kernel_solves == 1
    graph.solve_batch(V_GRID, loads)
    second = kernel_metrics()
    assert second.verifications == 1  # verified once, then trusted
    assert second.kernel_solves == 2


def test_mismatching_kernel_falls_back_to_interpreted():
    """A kernel whose output diverges bitwise is marked failed on first
    use, the scalar loop's result is returned, and metrics record it."""
    graph = RailGraph(get_rail_spec("cots"))
    entry = compiled_kernel_for(graph)
    assert not entry.failed and entry.fn is not None
    real_fn = entry.fn

    def corrupted(*args):
        i_source, currents = real_fn(*args)
        return i_source + 1e-12, currents

    entry.fn = corrupted
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    reference = scalar_loop(graph, V_GRID, loads)
    _assert_matches_scalar(graph.solve_batch(V_GRID, loads), reference)
    assert entry.failed
    assert "diverged bitwise" in entry.failure
    metrics = kernel_metrics()
    assert metrics.mismatches == 1
    assert metrics.fallbacks == 1
    assert metrics.kernel_solves == 0
    # Later calls keep working (scalar loop) without re-verifying.
    _assert_matches_scalar(graph.solve_batch(V_GRID, loads), reference)
    assert kernel_metrics().fallbacks == 2
    assert kernel_metrics().verifications == 1


test_mismatching_kernel_falls_back_to_interpreted.retires = 1


def test_kernel_raising_unexpectedly_marks_failed():
    graph = RailGraph(get_rail_spec("cots"))
    entry = compiled_kernel_for(graph)

    def explodes(*args):
        raise RuntimeError("boom")

    entry.fn = explodes
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    _assert_matches_scalar(graph.solve_batch(V_GRID, loads),
                           scalar_loop(graph, V_GRID, loads))
    assert entry.failed
    assert kernel_metrics().mismatches == 1
    assert kernel_metrics().fallbacks == 1


test_kernel_raising_unexpectedly_marks_failed.retires = 1


def test_kernel_flagging_a_point_the_scalar_solve_accepts_is_retired():
    """The error path re-solves the lowest flagged point; if the scalar
    solve accepts it, the kernel is wrong, not the input."""
    graph = RailGraph(get_rail_spec("cots"))
    entry = compiled_kernel_for(graph)

    def flags_everything(v, *args):
        raise kernel_compile._OutOfEnvelope(np.ones(v.shape, dtype=bool))

    entry.fn = flags_everything
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    _assert_matches_scalar(graph.solve_batch(V_GRID, loads),
                           scalar_loop(graph, V_GRID, loads))
    assert entry.failed
    assert "flagged" in entry.failure
    assert kernel_metrics().fallbacks == 1


test_kernel_flagging_a_point_the_scalar_solve_accepts_is_retired.retires = 1


def test_kernel_missing_an_out_of_envelope_point_is_caught():
    """First-use verification runs the scalar loop, so a kernel that
    misses an envelope violation is retired and the loop's error is
    raised."""
    graph = RailGraph(get_rail_spec("cots"))
    entry = compiled_kernel_for(graph)
    v = V_GRID.copy()
    v[9] = 0.6
    loads = {"mcu": np.full(N_POINTS, 1e-6)}

    def never_flags(*args):
        return np.zeros(N_POINTS), {}

    entry.fn = never_flags
    with pytest.raises(ElectricalError) as batch_error:
        graph.solve_batch(v, loads)
    with pytest.raises(ElectricalError) as loop_error:
        scalar_loop(graph, v, loads)
    assert str(batch_error.value) == str(loop_error.value)
    assert entry.failed
    assert kernel_metrics().mismatches == 1


test_kernel_missing_an_out_of_envelope_point_is_caught.retires = 1


def test_disabled_converter_routes_to_interpreter():
    """Disabled converters are answered by the interpreted scalar walk,
    looped over the batch, and counted as fallbacks."""
    graph = RailGraph(get_rail_spec("cots"))
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    graph.solve_batch(V_GRID, loads)  # warm the kernel
    baseline = kernel_metrics().kernel_solves
    converter = next(iter(graph._converters.values()))
    converter.disable()
    try:
        _assert_matches_scalar(graph.solve_batch(V_GRID, loads),
                               scalar_loop(graph, V_GRID, loads))
        assert kernel_metrics().kernel_solves == baseline
        assert kernel_metrics().fallbacks == 1
    finally:
        converter.enable()
    # Re-enabled: the kernel serves again.
    graph.solve_batch(V_GRID, loads)
    assert kernel_metrics().kernel_solves == baseline + 1


def test_scalar_fallback_is_counted_and_never_touches_kernels():
    graph = RailGraph(get_rail_spec("cots"))
    graph.component("tps60313").disable()
    graph.solve_batch(V_GRID, {"mcu": 1e-6})
    metrics = kernel_metrics()
    assert metrics.compiles == 0
    assert metrics.kernel_solves == 0
    assert metrics.fallbacks == 1


def test_gate_signature_resolves_states():
    graph = RailGraph(get_rail_spec("cots"))
    closed = ((RADIO_GATE, GATE_CLOSED),)
    opened = ((RADIO_GATE, GATE_OPEN),)
    assert resolve_gates(graph, frozenset()) == closed
    assert resolve_gates(graph, ()) == closed
    assert resolve_gates(graph, {RADIO_GATE}) == opened
    # Names in a collection are inert unless the graph defines them.
    assert resolve_gates(graph, ["junk", RADIO_GATE]) == opened
    assert resolve_gates(graph, ["junk"]) == closed
    for gates in (RADIO_GATE, {RADIO_GATE: True}, {}):
        with pytest.raises(ConfigurationError,
                           match="must be a collection of gate names"):
            resolve_gates(graph, gates)


def test_kernel_source_is_deterministic_across_instances():
    first = kernel_source(RailGraph(get_rail_spec("cots")),
                          frozenset({RADIO_GATE}))
    second = kernel_source(RailGraph(get_rail_spec("cots")),
                           frozenset({RADIO_GATE}))
    assert first == second
    assert "def _kernel(" in first
    assert "exec" not in first


def test_one_kernel_per_signature_shared_across_equal_graphs():
    a = RailGraph(get_rail_spec("cots"))
    b = RailGraph(get_rail_spec("cots"))
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    a.solve_batch(V_GRID, loads)
    b.solve_batch(V_GRID, loads)
    metrics = kernel_metrics()
    assert metrics.compiles == 1, (
        "equal specs must share one cached kernel per gate signature"
    )


def test_unsupported_converter_type_reports_and_falls_back():
    class Mystery:
        enabled = True

    graph = RailGraph(get_rail_spec("cots"))
    name, converter = next(iter(graph._converters.items()))
    signature = resolve_gates(graph, frozenset())
    original = graph._plan[name]
    gate, leak, (tag, (v_out, _conv)) = original
    graph._plan[name] = (gate, leak, (tag, (v_out, Mystery())))
    try:
        with pytest.raises(KernelUnsupported):
            generate_kernel_source(graph, signature)
        # And through the caching layer: a failed entry, not a crash.
        entry = compiled_kernel_for(graph)
        assert entry.failed
        assert "no fused emitter" in entry.failure
        assert kernel_metrics().unsupported >= 1
    finally:
        graph._plan[name] = original
    # The cached entry stays failed, so the scalar loop answers.
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    _assert_matches_scalar(graph.solve_batch(V_GRID, loads),
                           scalar_loop(graph, V_GRID, loads))
    assert kernel_metrics().fallbacks == 1
    assert kernel_metrics().kernel_solves == 0


# -- solve_batch input forms: one prologue, the scalar loop's answers ---------


def _accepted_forms():
    """``(id, call, reference)``: ``solve_batch`` keyword arguments and,
    where they differ, the same points spelled for the scalar loop."""
    rng = np.random.default_rng(3)
    loads = _batch_loads(rng)
    v32 = V_GRID.astype(np.float32)
    return [
        ("float-loads", dict(loads={"mcu": 7e-7, "sensor": 3e-7}), None),
        ("int-loads", dict(loads={"mcu": 0, "sensor": 3e-7}), None),
        ("array-loads", dict(loads=loads, open_gates={RADIO_GATE}), None),
        ("list-loads", dict(loads={"mcu": list(loads["mcu"])}),
         dict(loads={"mcu": loads["mcu"]})),
        ("np-float64-loads", dict(loads={"mcu": np.float64(1e-6)}), None),
        ("0d-loads", dict(loads={"mcu": np.array(1e-6)}),
         dict(loads={"mcu": 1e-6})),
        ("length-1-load", dict(loads={"mcu": np.array([1e-6])}),
         dict(loads={"mcu": 1e-6})),
        ("float32-voltage", dict(v=v32, loads={"mcu": 1e-6}),
         dict(v=v32.astype(np.float64), loads={"mcu": 1e-6})),
        ("0d-voltage", dict(v=np.array(1.3), loads=loads,
                            open_gates={RADIO_GATE}),
         dict(v=np.full(N_POINTS, 1.3), loads=loads,
              open_gates={RADIO_GATE})),
        ("np-float64-voltage", dict(v=np.float64(1.3), loads={"mcu": 1e-6}),
         dict(v=1.3, loads={"mcu": 1e-6})),
        ("set-gates-with-junk",
         dict(loads=loads, open_gates={RADIO_GATE, "junk"}), None),
        ("list-gates", dict(loads=loads, open_gates=[RADIO_GATE]), None),
        ("scalar-degradation", dict(loads={"mcu": 1e-6}, degradation={
            "mcu-tap": 1.25, "tps60313": 2, "sensor-tap": 1.0}), None),
        ("np-float64-degradation", dict(loads={"mcu": 1e-6}, degradation={
            "tps60313": np.float64(1.5)}), None),
    ]


@pytest.mark.parametrize(
    "call, reference",
    [pytest.param(call, ref, id=name) for name, call, ref in
     _accepted_forms()],
)
def test_solve_batch_accepted_input_forms_match_the_scalar_loop(call,
                                                               reference):
    """Every accepted input form, first call (verified) and second call
    (a promoted kernel), is the scalar loop's answer bit for bit."""
    graph = RailGraph(get_rail_spec("cots"))
    reference = dict(reference or call)
    expected = scalar_loop(graph, reference.pop("v", V_GRID),
                           reference.pop("loads"),
                           reference.get("open_gates", frozenset()),
                           reference.get("degradation"))
    call = dict(call)
    v = call.pop("v", V_GRID)
    for _ in range(2):
        _assert_matches_scalar(graph.solve_batch(v, **call), expected)
    assert kernel_metrics().fallbacks == 0
    assert kernel_metrics().kernel_solves == 2


_NAN_AT_40 = np.full(N_POINTS, 1e-6)
_NAN_AT_40[40] = np.nan
_NEGATIVE_AT_3 = np.full(N_POINTS, 1e-6)
_NEGATIVE_AT_3[3] = -2e-6
_INF_AT_200 = np.full(N_POINTS, 1e-6)
_INF_AT_200[200] = np.inf

#: ``(id, call, error type, message)``; the messages are literal, so a
#: change to any of them shows here.
_REJECTED_FORMS = [
    ("2d-voltage", dict(v=V_GRID.reshape(1, -1), loads={"mcu": 1e-6}),
     ConfigurationError, "cots-power-train: v_source must be a scalar or a "
     "1-D batch, got shape (1, 257)"),
    ("2d-load", dict(loads={"mcu": np.zeros((2, N_POINTS))}),
     ConfigurationError, "cots-power-train: load 'mcu' must be a scalar or "
     "a 1-D batch, got shape (2, 257)"),
    ("load-shape", dict(loads={"mcu": np.zeros(N_POINTS + 3)}),
     ConfigurationError,
     "cots-power-train: batch inputs do not broadcast: [(257,), (260,)]"),
    ("mask-shape", dict(loads={"mcu": 1e-6}, open_gates={
        RADIO_GATE: np.ones(N_POINTS - 1, dtype=bool)}),
     ConfigurationError, "cots-power-train: open_gates must be a "
     "collection of gate names, got dict"),
    ("degradation-shape", dict(loads={"mcu": 1e-6}, degradation={
        "mcu-tap": np.ones(2)}),
     ConfigurationError, "cots-power-train: degradation factor for "
     "'mcu-tap' must be a number, got ndarray"),

    ("unknown-channel", dict(loads={"flux-capacitor": 1e-6}),
     ConfigurationError,
     "cots-power-train: load on untapped channel 'flux-capacitor'"),
    ("unknown-gate", dict(loads={"mcu": 1e-6}, open_gates={"warp": True}),
     ConfigurationError, "cots-power-train: open_gates must be a "
     "collection of gate names, got dict"),
    ("unknown-component", dict(loads={"mcu": 1e-6},
                               degradation={"nonesuch": 1.5}),
     ConfigurationError, "cots-power-train: no component 'nonesuch' to "
     "degrade; components: battery, tps60313, mcu-tap, sensor-tap, "
     "radio-digital-shunt, radio-digital-tap, ldo-input-switch, lt3020, "
     "radio-rf-tap"),
    ("nan-scalar-load", dict(loads={"mcu": float("nan")}),
     ConfigurationError, "cots-power-train: load 'mcu' must be finite and "
     ">= 0, got nan at batch point 0"),
    ("nan-np-float64-load", dict(loads={"sensor": np.float64("nan")}),
     ConfigurationError, "cots-power-train: load 'sensor' must be finite "
     "and >= 0, got nan at batch point 0"),
    ("negative-scalar-load", dict(loads={"mcu": -1e-6}),
     ConfigurationError, "cots-power-train: load 'mcu' must be finite and "
     ">= 0, got -1e-06 at batch point 0"),
    ("inf-scalar-load", dict(loads={"mcu": float("inf")}),
     ConfigurationError, "cots-power-train: load 'mcu' must be finite and "
     ">= 0, got inf at batch point 0"),
    ("nan-array-load", dict(loads={"mcu": 1e-6, "sensor": _NAN_AT_40}),
     ConfigurationError, "cots-power-train: load 'sensor' must be finite "
     "and >= 0, got nan at batch point 40"),
    ("negative-array-load", dict(loads={"mcu": _NEGATIVE_AT_3}),
     ConfigurationError, "cots-power-train: load 'mcu' must be finite and "
     ">= 0, got -2e-06 at batch point 3"),
    ("inf-array-load", dict(loads={"mcu": _INF_AT_200}),
     ConfigurationError, "cots-power-train: load 'mcu' must be finite and "
     ">= 0, got inf at batch point 200"),
    ("negative-list-load", dict(loads={
        "mcu": [1e-6, -1.0] + [0.0] * (N_POINTS - 2)}),
     ConfigurationError, "cots-power-train: load 'mcu' must be finite and "
     ">= 0, got -1.0 at batch point 1"),
    ("nan-voltage", dict(v=np.full(N_POINTS, np.nan), loads={"mcu": 1e-6}),
     ElectricalError, "tps60313: voltage nan V outside [0.900, 1.800] V"),
]


@pytest.mark.parametrize(
    "call, error, message",
    [pytest.param(call, error, message, id=name)
     for name, call, error, message in _REJECTED_FORMS],
)
def test_solve_batch_rejected_input_forms_raise_the_same_error(
        call, error, message):
    """Each rejected form raises one type and message, whether the
    graph's kernel is cold or already promoted."""
    graph = RailGraph(get_rail_spec("cots"))
    call = dict(call)
    v = call.pop("v", V_GRID)
    for _ in range(2):
        with pytest.raises(error) as raised:
            graph.solve_batch(v, **call)
        assert type(raised.value) is error
        assert str(raised.value) == message
        graph.solve_batch(V_GRID, {"mcu": 1e-6})  # promote the kernel


def test_scalar_voltage_still_works_compiled():
    graph = RailGraph(get_rail_spec("cots"))
    _assert_matches_scalar(graph.solve_batch(1.3, {"mcu": 1e-6}),
                           scalar_loop(graph, 1.3, {"mcu": 1e-6}))
    assert kernel_metrics().kernel_solves == 1


def test_empty_batch_compiled():
    graph = RailGraph(get_rail_spec("cots"))
    empty = np.zeros(0)
    compiled = graph.solve_batch(empty, {"mcu": 1e-6})
    assert compiled.i_source.shape == (0,)
    _assert_matches_scalar(compiled, scalar_loop(graph, empty, {"mcu": 1e-6}))
    # An empty batch is no evidence: the next batch still verifies.
    assert not compiled_kernel_for(graph).verified


def test_clear_kernel_cache_forces_recompile():
    graph = RailGraph(get_rail_spec("cots"))
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    graph.solve_batch(V_GRID, loads)
    assert kernel_metrics().compiles == 1
    clear_kernel_cache()
    graph.solve_batch(V_GRID, loads)
    assert kernel_metrics().compiles == 2


# -- workspaces: reused temporaries, fresh results ---------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("state", [GATE_OPEN, GATE_CLOSED])
def test_results_never_live_in_the_workspace(kind, state):
    """Every array a kernel returns is fresh (or the caller's input), and
    repeated calls neither grow the workspace nor touch old results."""
    graph = RailGraph(get_rail_spec(kind))
    rng = np.random.default_rng(7)
    gates = frozenset(graph._gate_names) if state == GATE_OPEN \
        else frozenset()
    loads = _batch_loads(rng, radio=state == GATE_OPEN)
    graph.solve_batch(V_GRID, loads, open_gates=gates)  # verified use
    first = graph.solve_batch(V_GRID, loads, open_gates=gates)
    kept = [first.i_source.copy()] + [
        np.array(amps) for amps in first.component_i_in.values()]
    work = graph._kernels.workspaces[(N_POINTS,)]
    sizes = (len(work.floats), len(work.bools))
    second = graph.solve_batch(V_GRID[::-1].copy(), loads, open_gates=gates)
    assert (len(work.floats), len(work.bools)) == sizes
    assert [first.i_source.tobytes()] + [
        np.asarray(amps).tobytes() for amps in first.component_i_in.values()
    ] == [amps.tobytes() for amps in kept]
    buffers = work.floats + work.bools
    for result in (first, second):
        for amps in [result.i_source, *result.component_i_in.values()]:
            assert not any(np.shares_memory(amps, buffer)
                           for buffer in buffers)
    assert kernel_metrics().fallbacks == 0
    assert kernel_metrics().kernel_solves == 2 + 1


def test_workspaces_keep_a_few_shapes_per_graph():
    graph = RailGraph(get_rail_spec("cots"))
    for size in range(1, 10):
        graph.solve_batch(np.full(size, 1.25), {"mcu": 1e-6})
    shapes = graph._kernels.workspaces
    assert list(shapes) == [(size,) for size in range(10 - len(shapes), 10)]
    assert len(shapes) == kernel_compile._WORKSPACE_SHAPES


def test_busy_workspace_gives_a_private_one():
    """A workspace in use (another thread) is never shared."""
    graph = RailGraph(get_rail_spec("cots"))
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    reference = graph.solve_batch(V_GRID, loads)
    work = kernel_compile._workspace(graph, (N_POINTS,))
    assert work.lock.acquire(blocking=False)
    try:
        before = [buffer.copy() for buffer in work.floats]
        busy = graph.solve_batch(V_GRID, loads)
        assert [buffer.tobytes() for buffer in work.floats] == \
            [buffer.tobytes() for buffer in before]
    finally:
        work.lock.release()
    _assert_bitwise_equal(busy, reference)


def test_lowered_kernel_writes_temporaries_with_out():
    source = kernel_source(RailGraph(get_rail_spec("cots")),
                           frozenset({RADIO_GATE}))
    assert "_wf, _wb = work.take(" in source
    assert "out=_wf[" in source and "out=_wb[" in source
    assert "_np.zeros(shape)" not in source
