"""API-contract rules: frozen events, __slots__, mutable defaults, specs."""

from repro.analysis.rules_contracts import (
    MissingSlotsRule,
    MutableDefaultRule,
    UnfrozenFaultEventRule,
    UnfrozenRailSpecRule,
)

from .conftest import rule_ids


# ---------------------------------------------------------------------------
# API001: fault events stay frozen
# ---------------------------------------------------------------------------


def test_unfrozen_fault_event_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        import dataclasses

        from .events import FaultEvent

        @dataclasses.dataclass
        class BatteryFire(FaultEvent):
            severity: float = 1.0
        """,
        relpath="repro/faults/exotic.py",
        rules=[UnfrozenFaultEventRule()],
    )
    assert rule_ids(findings) == ["API001"]
    assert "BatteryFire" in findings[0].message


def test_frozen_false_is_also_caught(lint_snippet):
    findings = lint_snippet(
        """
        from dataclasses import dataclass

        @dataclass(frozen=False)
        class ThermalEvent:
            start_s: float = 0.0
        """,
        relpath="repro/faults/thermal.py",
        rules=[UnfrozenFaultEventRule()],
    )
    assert rule_ids(findings) == ["API001"]


def test_frozen_fault_event_is_clean(lint_snippet):
    findings = lint_snippet(
        """
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class ThermalEvent:
            start_s: float = 0.0
        """,
        relpath="repro/faults/thermal.py",
        rules=[UnfrozenFaultEventRule()],
    )
    assert findings == []


def test_non_event_dataclass_in_faults_is_exempt(lint_snippet):
    findings = lint_snippet(
        """
        import dataclasses

        @dataclasses.dataclass
        class ScheduleStats:
            count: int = 0
        """,
        relpath="repro/faults/stats.py",
        rules=[UnfrozenFaultEventRule()],
    )
    assert findings == []


def test_fault_events_outside_faults_package_are_out_of_scope(lint_snippet):
    findings = lint_snippet(
        """
        import dataclasses

        @dataclasses.dataclass
        class LogEvent:
            text: str = ""
        """,
        relpath="repro/net/logging.py",
        rules=[UnfrozenFaultEventRule()],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# API002: registered hot-path classes keep __slots__
# ---------------------------------------------------------------------------


def test_registered_class_without_slots_is_caught(lint_snippet):
    rule = MissingSlotsRule(
        registry={"repro.sim.events": frozenset({"Event"})})
    findings = lint_snippet(
        """
        class Event:
            def __init__(self, time_s):
                self.time_s = time_s
        """,
        relpath="repro/sim/events.py",
        rules=[rule],
    )
    assert rule_ids(findings) == ["API002"]


def test_registered_class_with_slots_is_clean(lint_snippet):
    rule = MissingSlotsRule(
        registry={"repro.sim.events": frozenset({"Event"})})
    findings = lint_snippet(
        """
        class Event:
            __slots__ = ("time_s",)

            def __init__(self, time_s):
                self.time_s = time_s
        """,
        relpath="repro/sim/events.py",
        rules=[rule],
    )
    assert findings == []


def test_unregistered_class_is_exempt(lint_snippet):
    rule = MissingSlotsRule(
        registry={"repro.sim.events": frozenset({"Event"})})
    findings = lint_snippet(
        """
        class Recorder:
            def __init__(self):
                self.rows = []
        """,
        relpath="repro/sim/events.py",
        rules=[rule],
    )
    assert findings == []


def test_default_registry_matches_the_real_tree():
    """Every registered module/class exists and currently has slots."""
    import pathlib

    from repro.analysis.driver import analyze_paths
    from repro.analysis.rules_contracts import SLOTS_REGISTRY

    root = pathlib.Path(__file__).resolve().parents[2]
    paths = []
    for module in SLOTS_REGISTRY:
        rel = module.replace(".", "/") + ".py"
        path = root / "src" / rel
        assert path.is_file(), f"registry points at missing {rel}"
        paths.append(path)
    findings = analyze_paths(paths, [MissingSlotsRule()], root=root)
    assert findings == []


# ---------------------------------------------------------------------------
# API003: mutable default arguments
# ---------------------------------------------------------------------------


def test_list_default_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        def schedule(events=[]):
            return events
        """,
        rules=[MutableDefaultRule()],
    )
    assert rule_ids(findings) == ["API003"]


def test_dict_and_set_call_defaults_are_caught(lint_snippet):
    findings = lint_snippet(
        """
        def configure(options={}, *, seen=set()):
            return options, seen
        """,
        rules=[MutableDefaultRule()],
    )
    assert rule_ids(findings) == ["API003", "API003"]


def test_none_default_is_clean(lint_snippet):
    findings = lint_snippet(
        """
        def schedule(events=None):
            return events or []
        """,
        rules=[MutableDefaultRule()],
    )
    assert findings == []


def test_tuple_and_frozen_defaults_are_clean(lint_snippet):
    findings = lint_snippet(
        """
        def schedule(events=(), label="x", scale=1.0):
            return events, label, scale
        """,
        rules=[MutableDefaultRule()],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# API004: rail-graph specs stay frozen dataclasses
# ---------------------------------------------------------------------------


def test_unfrozen_rail_spec_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        import dataclasses

        @dataclasses.dataclass
        class BuckSpec:
            name: str = "buck"
        """,
        relpath="repro/power/graph.py",
        rules=[UnfrozenRailSpecRule()],
    )
    assert rule_ids(findings) == ["API004"]
    assert "BuckSpec" in findings[0].message


def test_non_dataclass_rail_spec_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        class BoostSpec:
            def __init__(self, name):
                self.name = name
        """,
        relpath="repro/power/rail_topologies.py",
        rules=[UnfrozenRailSpecRule()],
    )
    assert rule_ids(findings) == ["API004"]
    assert "dataclass" in findings[0].message


def test_frozen_rail_spec_is_clean(lint_snippet):
    findings = lint_snippet(
        """
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class BuckSpec:
            name: str = "buck"
        """,
        relpath="repro/power/graph.py",
        rules=[UnfrozenRailSpecRule()],
    )
    assert findings == []


def test_non_spec_class_in_graph_module_is_exempt(lint_snippet):
    findings = lint_snippet(
        """
        class RailGraph:
            def __init__(self, spec):
                self.spec = spec
        """,
        relpath="repro/power/graph.py",
        rules=[UnfrozenRailSpecRule()],
    )
    assert findings == []


def test_spec_classes_outside_rail_modules_are_out_of_scope(lint_snippet):
    findings = lint_snippet(
        """
        import dataclasses

        @dataclasses.dataclass
        class AntennaSpec:
            gain_dbi: float = 2.0
        """,
        relpath="repro/radio/antenna.py",
        rules=[UnfrozenRailSpecRule()],
    )
    assert findings == []


def test_api004_is_clean_on_the_real_rail_modules():
    """The shipped graph/topology modules satisfy their own contract."""
    import pathlib

    from repro.analysis.driver import analyze_paths

    root = pathlib.Path(__file__).resolve().parents[2]
    paths = [
        root / "src" / "repro" / "power" / "graph.py",
        root / "src" / "repro" / "power" / "rail_topologies.py",
    ]
    findings = analyze_paths(paths, [UnfrozenRailSpecRule()], root=root)
    assert findings == []
