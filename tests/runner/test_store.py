"""ResultStore: content addressing, corruption armour, LRU, cache root."""

import dataclasses
import os
import time

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    REPRO_CACHE_DIR_ENV,
    RESULT_CODE_VERSION,
    ResultStore,
    Sweep,
    cache_root,
    resolve_cache_dir,
    stable_token,
)


# ---------------------------------------------------------------------------
# content addressing
# ---------------------------------------------------------------------------


def test_stable_token_is_bit_faithful_for_floats():
    assert stable_token(0.1) == stable_token(0.1)
    assert stable_token(0.1) != stable_token(0.1 + 2**-55)
    assert stable_token(1.0) != stable_token(1)  # float vs int differ


def test_stable_token_is_order_independent_for_dicts():
    assert stable_token({"a": 1, "b": 2}) == stable_token({"b": 2, "a": 1})


def test_stable_token_handles_dataclasses():
    @dataclasses.dataclass(frozen=True)
    class Spec:
        x: float
        tags: tuple

    assert stable_token(Spec(0.5, ("a",))) == stable_token(Spec(0.5, ("a",)))
    assert stable_token(Spec(0.5, ("a",))) != stable_token(Spec(0.5, ("b",)))


def test_stable_token_rejects_unhashable_junk():
    with pytest.raises(ConfigurationError):
        stable_token(object())


def test_key_separates_config_schedule_and_version(tmp_path):
    store = ResultStore(str(tmp_path))
    stale = ResultStore(str(tmp_path), code_version=RESULT_CODE_VERSION + 1)
    base = store.key(("campaign", 1.0), schedule=7)
    assert base != store.key(("campaign", 2.0), schedule=7)
    assert base != store.key(("campaign", 1.0), schedule=8)
    assert base != stale.key(("campaign", 1.0), schedule=7)


# ---------------------------------------------------------------------------
# disk round-trip and failure posture
# ---------------------------------------------------------------------------


def test_round_trip_across_store_instances(tmp_path):
    first = ResultStore(str(tmp_path))
    key = first.key("task")
    first.put(key, {"rows": [1.5, 2.5]})
    second = ResultStore(str(tmp_path))
    hit, value = second.get(key)
    assert hit and value == {"rows": [1.5, 2.5]}
    assert second.stats.disk_hits == 1


def test_get_or_compute_only_computes_on_miss(tmp_path):
    store = ResultStore(str(tmp_path))
    calls = []
    key = store.key("expensive")

    def compute():
        calls.append(1)
        return 42

    assert store.get_or_compute(key, compute) == 42
    assert store.get_or_compute(key, compute) == 42
    store.clear_memory()
    assert store.get_or_compute(key, compute) == 42  # served from disk
    assert calls == [1]


def test_corrupt_entry_is_dropped_and_recomputed(tmp_path):
    store = ResultStore(str(tmp_path))
    key = store.key("fragile")
    store.put(key, "good")
    (entry,) = list(tmp_path.iterdir())
    entry.write_bytes(entry.read_bytes()[:-4] + b"rot!")
    store.clear_memory()
    hit, _ = store.get(key)
    assert not hit
    assert store.stats.corrupt_dropped == 1
    assert not entry.exists()  # dropped, not left to fail again
    assert store.get_or_compute(key, lambda: "recomputed") == "recomputed"


def test_stale_code_version_is_dropped(tmp_path):
    old = ResultStore(str(tmp_path), code_version=1)
    key = old.key("task")
    old.put(key, "v1-result")
    new = ResultStore(str(tmp_path), code_version=2)
    # Same key text would differ, but even a forced read of the old
    # file must refuse: rewrite the entry under the new store's key.
    path_new = tmp_path / f"result-f1-{new.key('task')}.pkl"
    (old_entry,) = list(tmp_path.iterdir())
    path_new.write_bytes(old_entry.read_bytes())
    hit, _ = new.get(new.key("task"))
    assert not hit
    assert new.stats.stale_dropped == 1


def test_atomic_write_leaves_no_tmp_files(tmp_path):
    store = ResultStore(str(tmp_path))
    for n in range(5):
        store.put(store.key(("t", n)), n)
    names = [p.name for p in tmp_path.iterdir()]
    assert len(names) == 5
    assert all(name.endswith(".pkl") for name in names)


def test_lru_prune_keeps_most_recent(tmp_path):
    store = ResultStore(str(tmp_path), max_entries=3)
    keys = [store.key(("t", n)) for n in range(5)]
    for n, key in enumerate(keys):
        store.put(key, n)
        # mtime granularity can be coarse; force distinct stamps.
        (entry,) = [
            p for p in tmp_path.iterdir() if key in p.name
        ]
        os.utime(entry, (n, n))
    assert len(list(tmp_path.iterdir())) == 3
    store.clear_memory()
    hit_old, _ = store.get(keys[0])
    hit_new, _ = store.get(keys[4])
    assert not hit_old and hit_new


def test_max_entries_validation():
    with pytest.raises(ConfigurationError):
        ResultStore(max_entries=0)


def test_unpicklable_results_stay_memory_only(tmp_path):
    store = ResultStore(str(tmp_path))
    key = store.key("gen")
    store.put(key, (n for n in range(3)))  # generators don't pickle
    assert list(tmp_path.iterdir()) == []
    hit, _ = store.get(key)
    assert hit  # memory layer still serves it


# ---------------------------------------------------------------------------
# warm vs cold
# ---------------------------------------------------------------------------


def test_warm_store_is_at_least_10x_faster_than_cold(tmp_path):
    """The ISSUE acceptance bar: a warm hit must be >=10x cheaper than
    recomputing.  The simulated task costs ~20 ms, generous enough that
    the ratio is stable on any CI machine."""
    store = ResultStore(str(tmp_path))
    key = store.key("slow-task")

    def compute():
        deadline = time.perf_counter() + 0.02
        while time.perf_counter() < deadline:
            pass
        return "result"

    t0 = time.perf_counter()
    store.get_or_compute(key, compute)
    cold = time.perf_counter() - t0

    store.clear_memory()  # force the disk path, not the dict
    t0 = time.perf_counter()
    assert store.get_or_compute(key, compute) == "result"
    warm = time.perf_counter() - t0
    assert warm * 10 <= cold, f"warm={warm:.6f}s cold={cold:.6f}s"


# ---------------------------------------------------------------------------
# cache-root resolution
# ---------------------------------------------------------------------------


def test_cache_root_unset_means_memory_only(monkeypatch, tmp_path):
    monkeypatch.delenv(REPRO_CACHE_DIR_ENV, raising=False)
    assert cache_root() is None
    assert resolve_cache_dir("results") is None
    store = ResultStore()
    key = store.key("x")
    store.put(key, 1)
    assert store.get(key) == (True, 1)  # degrades gracefully


def test_cache_root_resolves_subdirs(monkeypatch, tmp_path):
    monkeypatch.setenv(REPRO_CACHE_DIR_ENV, str(tmp_path))
    assert cache_root() == str(tmp_path)
    assert resolve_cache_dir("results") == os.path.join(str(tmp_path), "results")
    assert resolve_cache_dir("jobs") == os.path.join(str(tmp_path), "jobs")


def test_subsystem_override_wins(monkeypatch, tmp_path):
    monkeypatch.setenv(REPRO_CACHE_DIR_ENV, str(tmp_path / "shared"))
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path / "kern"))
    assert resolve_cache_dir(
        "kernels", override_env="REPRO_KERNEL_CACHE_DIR"
    ) == str(tmp_path / "kern")
    assert resolve_cache_dir("results") == str(tmp_path / "shared" / "results")


def test_store_picks_up_cache_root(monkeypatch, tmp_path):
    monkeypatch.setenv(REPRO_CACHE_DIR_ENV, str(tmp_path))
    store = ResultStore()
    store.put(store.key("x"), 1)
    assert (tmp_path / "results").is_dir()


# ---------------------------------------------------------------------------
# Sweep integration
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def test_sweep_serves_repeat_runs_from_the_store(tmp_path):
    store = ResultStore(str(tmp_path))
    first = Sweep(_square, name="sq", workers=1, store=store).run([2, 3, 4])
    assert first.values() == [4, 9, 16]
    assert store.stats.misses >= 3

    fresh = ResultStore(str(tmp_path))
    again = Sweep(_square, name="sq", workers=1, store=fresh).run([2, 3, 4])
    assert again.values() == [4, 9, 16]
    assert fresh.stats.hits == 3
    assert fresh.stats.misses == 0
