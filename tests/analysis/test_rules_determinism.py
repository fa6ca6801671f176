"""Determinism rules: seeded violations and their clean twins."""

from repro.analysis.rules_determinism import (
    DynamicCodeRule,
    UnorderedIterationRule,
    UnseededRandomRule,
    WallClockRule,
)

from .conftest import rule_ids


# ---------------------------------------------------------------------------
# DET001: unseeded random draws
# ---------------------------------------------------------------------------


def test_module_level_random_draw_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        import random

        jitter = random.random()
        """,
        rules=[UnseededRandomRule()],
    )
    assert rule_ids(findings) == ["DET001"]
    assert "unseeded" in findings[0].message


def test_random_choice_and_alias_are_caught(lint_snippet):
    findings = lint_snippet(
        """
        import random as rnd

        pick = rnd.choice([1, 2, 3])
        """,
        rules=[UnseededRandomRule()],
    )
    assert rule_ids(findings) == ["DET001"]


def test_from_import_draw_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        from random import gauss

        noise = gauss(0.0, 1.0)
        """,
        rules=[UnseededRandomRule()],
    )
    assert rule_ids(findings) == ["DET001"]


def test_seeded_random_instance_is_clean(lint_snippet):
    findings = lint_snippet(
        """
        import random

        rng = random.Random(2008)
        jitter = rng.random()
        pick = rng.choice([1, 2, 3])
        """,
        rules=[UnseededRandomRule()],
    )
    assert findings == []


def test_the_six_audited_modules_draw_only_from_seeded_rngs():
    """The PR-1/PR-2 random sites must stay seeded forever."""
    import pathlib

    from repro.analysis.driver import analyze_paths

    root = pathlib.Path(__file__).resolve().parents[2]
    audited = [
        "src/repro/board/tolerances.py",
        "src/repro/net/fleet.py",
        "src/repro/faults/schedule.py",
        "src/repro/faults/injector.py",
        "src/repro/studies.py",
        "src/repro/radio/tolerance.py",
    ]
    paths = [root / rel for rel in audited]
    assert all(p.is_file() for p in paths)
    findings = analyze_paths(paths, [UnseededRandomRule()], root=root)
    assert findings == []


# ---------------------------------------------------------------------------
# DET002: wall-clock reads in simulation code
# ---------------------------------------------------------------------------


def test_time_time_in_sim_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        import time

        def stamp():
            return time.time()
        """,
        relpath="repro/sim/stamp.py",
        rules=[WallClockRule()],
    )
    assert rule_ids(findings) == ["DET002"]


def test_datetime_now_in_core_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """,
        relpath="repro/core/stamp.py",
        rules=[WallClockRule()],
    )
    assert rule_ids(findings) == ["DET002"]


def test_os_urandom_in_sim_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        import os

        def entropy():
            return os.urandom(8)
        """,
        relpath="repro/sim/entropy.py",
        rules=[WallClockRule()],
    )
    assert rule_ids(findings) == ["DET002"]


def test_perf_counter_in_runner_is_out_of_scope(lint_snippet):
    # repro.runner keeps wall-clock *metrics* on purpose.
    findings = lint_snippet(
        """
        import time

        def wall():
            return time.perf_counter()
        """,
        relpath="repro/runner/metrics.py",
        rules=[WallClockRule()],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# DET003: unordered set iteration in hot paths
# ---------------------------------------------------------------------------


def test_set_iteration_in_engine_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        def drain(pending):
            for event in set(pending):
                event.fire()
        """,
        relpath="repro/sim/engine.py",
        rules=[UnorderedIterationRule()],
    )
    assert rule_ids(findings) == ["DET003"]


def test_sorted_set_iteration_is_clean(lint_snippet):
    findings = lint_snippet(
        """
        def drain(pending):
            for event in sorted(set(pending)):
                event.fire()
        """,
        relpath="repro/sim/engine.py",
        rules=[UnorderedIterationRule()],
    )
    assert findings == []


def test_local_assigned_from_set_is_tracked(lint_snippet):
    findings = lint_snippet(
        """
        def collapse(times_a, times_b):
            frontier = set(times_a).intersection(times_b)
            return [t for t in frontier]
        """,
        relpath="repro/sim/trace.py",
        rules=[UnorderedIterationRule()],
    )
    assert rule_ids(findings) == ["DET003"]


def test_set_iteration_outside_hot_paths_is_out_of_scope(lint_snippet):
    findings = lint_snippet(
        """
        def nodes(ids):
            for node in set(ids):
                yield node
        """,
        relpath="repro/net/fleet.py",
        rules=[UnorderedIterationRule()],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# DET004: exec/eval outside the kernel compiler, pickle reads outside
# the store and the checkpoint reader
# ---------------------------------------------------------------------------


#: ``(relpath, source, call)``: each source makes one DET004 finding
#: naming ``call``.
DYNAMIC_CODE_CAUGHT = [
    ("repro/sim/engine.py", """
        def run(snippet):
            exec(snippet)
        """, "exec()"),
    ("repro/sim/engine.py", """
        import pickle

        def run(blob):
            return pickle.loads(blob)
        """, "pickle.loads()"),
    ("repro/campaigns.py", """
        from pickle import loads

        def run(blob):
            return loads(blob)
        """, "pickle.loads()"),
    ("repro/sim/engine.py", """
        import pickle as pk

        def run(handle):
            return pk.load(handle)
        """, "pickle.load()"),
    ("repro/runner/pool.py", """
        from pickle import load as undump

        def run(handle):
            return undump(handle)
        """, "pickle.load()"),
    # Each allow-list covers its own calls only.
    ("repro/power/compile.py", """
        import pickle

        def run(blob):
            return pickle.loads(blob)
        """, "pickle.loads()"),
    ("repro/runner/store.py", """
        def run(snippet):
            exec(snippet)
        """, "exec()"),
]


def test_exec_in_sim_is_caught(lint_snippet, tmp_path):
    for relpath, source, call in DYNAMIC_CODE_CAUGHT:
        findings = lint_snippet(source, relpath=relpath,
                                rules=[DynamicCodeRule()])
        (tmp_path / relpath).unlink()  # lint each input alone
        assert rule_ids(findings) == ["DET004"], (relpath, source)
        assert call in findings[0].message


def test_eval_in_core_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        def parse(expr):
            return eval(expr)
        """,
        relpath="repro/core/policy.py",
        rules=[DynamicCodeRule()],
    )
    assert rule_ids(findings) == ["DET004"]


def test_builtins_qualified_exec_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        import builtins

        def sneak(code):
            builtins.exec(code)
        """,
        relpath="repro/runner/driver.py",
        rules=[DynamicCodeRule()],
    )
    assert rule_ids(findings) == ["DET004"]


#: ``(relpath, source)`` pairs DET004 accepts.
DYNAMIC_CODE_ALLOWED = [
    ("repro/power/compile.py", """
        def _exec_kernel(source, namespace):
            exec(compile(source, "<kernel>", "exec"), namespace)
        """),
    ("repro/runner/store.py", """
        import pickle

        def read(body):
            return pickle.loads(body)
        """),
    ("repro/sim/checkpoint.py", """
        from pickle import loads

        def read(body):
            return loads(body)
        """),
    # Writing a pickle, or a json.loads, is not a pickle read.
    ("repro/sim/engine.py", """
        import pickle
        from json import loads

        def write(value):
            return pickle.dumps(value), loads("{}")
        """),
]


def test_exec_in_the_kernel_compiler_is_allowed(lint_snippet, tmp_path):
    for relpath, source in DYNAMIC_CODE_ALLOWED:
        findings = lint_snippet(source, relpath=relpath,
                                rules=[DynamicCodeRule()])
        (tmp_path / relpath).unlink()  # lint each input alone
        assert findings == [], (relpath, source)


def test_the_real_tree_has_exactly_one_exec_site():
    """The shipped source passes DET004: ``repro.power.compile`` is the
    only module calling exec/eval, and only the store and the checkpoint
    reader unpickle."""
    import pathlib

    import repro
    from repro.analysis.driver import analyze_paths

    src_root = pathlib.Path(repro.__file__).parent.parent
    findings = analyze_paths([src_root / "repro"],
                             [DynamicCodeRule()], root=src_root)
    assert findings == [], [f.message for f in findings]
