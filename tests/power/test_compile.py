"""Plan-compiled fused kernels: bitwise identity with a scalar loop,
error parity, verification/fallback semantics, and the in-memory kernel
cache.

The contract under test (see ``repro/power/compile.py``):
``RailGraph.solve_batch`` must return the same doubles, and raise the
same errors, as a loop of scalar ``RailGraph.solve`` calls for every
registered topology, gate state, and degradation shape; a kernel that
diverges must be retired, the scalar loop must answer in its place,
and both must be surfaced in :func:`repro.power.compile.kernel_metrics`.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ElectricalError
from repro.power import compile as kernel_compile
from repro.power.compile import (
    GATE_CLOSED,
    GATE_MASK,
    GATE_OPEN,
    KernelUnsupported,
    clear_kernel_cache,
    compiled_kernel_for,
    gate_signature,
    generate_kernel_source,
    kernel_metrics,
    kernel_source,
    reset_kernel_metrics,
    solve_batch_fast,
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
    """Each test compiles from scratch and leaves nothing behind."""
    clear_kernel_cache()
    reset_kernel_metrics()
    yield
    clear_kernel_cache()
    reset_kernel_metrics()


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
    degradation = degradation or {}
    per_point = [v, *loads.values(), *degradation.values()]
    if isinstance(open_gates, dict):
        per_point += list(open_gates.values())
    size = max((len(value) for value in per_point if np.ndim(value) == 1),
               default=1)
    solutions = []
    for index in range(size):
        gates = open_gates
        if isinstance(open_gates, dict):
            gates = frozenset(gate for gate, state in open_gates.items()
                              if _at(state, index))
        solutions.append(graph.solve(
            float(_at(v, index)),
            {channel: float(_at(amps, index))
             for channel, amps in loads.items()},
            open_gates=gates,
            degradation={name: float(_at(factor, index))
                         for name, factor in degradation.items()},
        ))
    return solutions


def _assert_matches_scalar(batch, solutions):
    """``i_source`` and every current the scalar walk visits, bitwise."""
    expected = np.array([s.i_source for s in solutions])
    assert batch.i_source.tobytes() == expected.tobytes()
    for solution in solutions:
        assert set(solution.component_i_in) <= set(batch.component_i_in)
    for name, amps in batch.component_i_in.items():
        seen = [j for j, s in enumerate(solutions)
                if name in s.component_i_in]
        want = np.array([solutions[j].component_i_in[name] for j in seen])
        assert np.asarray(amps)[seen].tobytes() == want.tobytes(), (
            f"component {name} diverged bitwise"
        )


def _gate_configs(rng):
    mask = rng.random(N_POINTS) < 0.5
    degradation = 1.0 + rng.random(N_POINTS) * 0.2
    return [
        ("closed", frozenset(), None),
        ("open-set", frozenset({RADIO_GATE}), None),
        ("map-true", {RADIO_GATE: True}, None),
        ("per-point-mask", {RADIO_GATE: mask}, None),
        ("mask-and-mixed-degradation", {RADIO_GATE: mask},
         {"mcu-tap": 1.25, "radio-rf-tap": degradation}),
        ("open-array-degradation", frozenset({RADIO_GATE}),
         {"sensor-tap": degradation}),
    ]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_compiled_matches_interpreted_bitwise(kind):
    """Every topology, every gate/degradation shape, repeated calls
    (first call verifies, later calls run the kernel directly), against
    the interpreted scalar walk looped over the batch."""
    rng = np.random.default_rng(11)
    graph = RailGraph(get_rail_spec(kind))
    loads = _batch_loads(rng)
    for label, gates, degradation in _gate_configs(rng):
        reference = scalar_loop(graph, V_GRID, loads, gates, degradation)
        for call in range(3):
            compiled = graph.solve_batch(
                V_GRID, dict(loads), open_gates=gates,
                degradation=degradation)
            _assert_matches_scalar(compiled, reference)
    metrics = kernel_metrics()
    assert metrics.mismatches == 0
    assert metrics.fallbacks == 0
    assert metrics.kernel_solves == 3 * len(_gate_configs(rng)), (
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


def test_masked_off_point_skips_envelope_check():
    """A failing operating point that the per-point gate mask disables
    must not raise, and the result equals the scalar loop's."""
    graph = RailGraph(get_rail_spec("cots"))
    mask = np.zeros(N_POINTS, dtype=bool)
    mask[5] = True
    radio_digital = np.zeros(N_POINTS)
    radio_digital[7] = 5e-3  # would starve the shunt, but point 7 is off
    loads = {"mcu": np.full(N_POINTS, 1e-6),
             "radio-digital": radio_digital}
    compiled = graph.solve_batch(V_GRID, loads,
                                 open_gates={RADIO_GATE: mask})
    _assert_matches_scalar(
        compiled, scalar_loop(graph, V_GRID, loads, {RADIO_GATE: mask}))


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
        # unknown gate group
        dict(loads={"mcu": 1e-6}, open_gates={"warp": True}),
        # unknown degradation component
        dict(loads={"mcu": 1e-6}, degradation={"nonesuch": 1.5}),
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
    mask = np.zeros(N_POINTS, dtype=bool)
    assert gate_signature(graph, {}) == ((RADIO_GATE, GATE_CLOSED),)
    assert gate_signature(graph, {RADIO_GATE: True}) == (
        (RADIO_GATE, GATE_OPEN),)
    assert gate_signature(graph, {RADIO_GATE: mask}) == (
        (RADIO_GATE, GATE_MASK),)


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
    signature = gate_signature(graph, {})
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


def test_fast_path_declines_exotic_inputs_but_results_match():
    """List loads, float32 axes, 2-D axes: the whole-call fast path must
    decline (returning None) and the generic path still answers or
    raises exactly as before."""
    graph = RailGraph(get_rail_spec("cots"))
    v32 = V_GRID.astype(np.float32)
    assert solve_batch_fast(graph, v32, {"mcu": 1e-6},
                            frozenset(), None) is None
    assert solve_batch_fast(graph, V_GRID, {"mcu": [1e-6] * N_POINTS},
                            frozenset(), None) is None
    assert solve_batch_fast(graph, V_GRID, {"mcu": 1e-6},
                            {"radio": object()}, None) is None
    # The public entry point still solves them (list loads broadcast).
    _assert_matches_scalar(
        graph.solve_batch(V_GRID, {"mcu": [1e-6] * N_POINTS}),
        scalar_loop(graph, V_GRID, {"mcu": 1e-6}))


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
@pytest.mark.parametrize("state", [GATE_OPEN, GATE_CLOSED, GATE_MASK])
def test_results_never_live_in_the_workspace(kind, state):
    """Every array a kernel returns is fresh (or the caller's input), and
    repeated calls neither grow the workspace nor touch old results."""
    graph = RailGraph(get_rail_spec(kind))
    rng = np.random.default_rng(7)
    mask = rng.random(N_POINTS) < 0.5
    gates = {gate: {GATE_OPEN: True, GATE_CLOSED: False,
                    GATE_MASK: mask}[state] for gate in graph._gate_names}
    loads = _batch_loads(rng, radio=state != GATE_CLOSED)
    graph.solve_batch(V_GRID, loads, open_gates=gates)  # verified use
    first = graph.solve_batch(V_GRID, loads, open_gates=gates)
    kept = [first.i_source.copy()] + [
        np.array(amps) for amps in first.component_i_in.values()]
    work = kernel_compile._WORKSPACES[graph][(N_POINTS,)]
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
    shapes = kernel_compile._WORKSPACES[graph]
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
