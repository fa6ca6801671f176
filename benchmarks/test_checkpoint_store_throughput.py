"""Checkpoint and result-store throughput.

Two numbers keep the durability layer honest:

* **Checkpoint cost** — ``save_checkpoint`` + ``write_checkpoint`` +
  ``read_checkpoint`` + ``restore_checkpoint`` must stay cheap relative
  to the simulation it protects, or nobody enables ``checkpoint_every``.
  The round-trip is timed for the ``tools/bench_baseline.py --check``
  2x regression gate, and an always-on assertion pins the acceptance
  floor: one full save→disk→restore round trip must cost less than
  re-simulating the checkpointed span.
* **Warm vs cold store** — a campaign replayed through a warm
  :class:`~repro.runner.store.ResultStore` must be >= 10x faster than the cold
  run that populated it (the ISSUE acceptance bar), asserted always-on.
"""

from __future__ import annotations

import time

from conftest import print_table

from repro.campaigns import chaos_campaign
from repro.runner.store import ResultStore
from repro.sim import checkpoint as cp

CHAOS_PARAMS = {"duration_s": 1800.0, "profile": "harsh", "seed": 5}


def _paused_scenario():
    """A chaos node advanced to a checkpoint-safe instant mid-storm."""
    node, injector = cp.build_scenario("chaos", CHAOS_PARAMS)
    saved = []
    node.run_until_time(
        903.0, checkpoint_every=900.0,
        on_checkpoint=lambda paused: saved.append(paused.engine.now),
    )
    assert saved, "the scenario never reached a checkpointable boundary"
    return node, injector


def test_perf_checkpoint_round_trip(benchmark, tmp_path):
    """Time save -> write -> read -> restore for a mid-storm node."""
    node, injector = _paused_scenario()
    path = str(tmp_path / "bench.ckpt")
    scenario = {"kind": "chaos", "params": CHAOS_PARAMS}

    def round_trip():
        checkpoint = cp.save_checkpoint(
            node, injector, scenario=scenario, meta={"end_time": 1800.0}
        )
        cp.write_checkpoint(checkpoint, path)
        loaded = cp.read_checkpoint(path)
        fresh_node, fresh_injector = cp.build_scenario("chaos", CHAOS_PARAMS)
        cp.restore_checkpoint(loaded, fresh_node, fresh_injector)
        return fresh_node

    restored = benchmark(round_trip)
    assert cp.node_fingerprint(restored) == cp.node_fingerprint(node)


def test_checkpoint_cheaper_than_resimulating():
    """Acceptance floor (always-on): one save→disk→restore round trip
    must undercut re-simulating the ~900 s span it makes durable."""
    import os
    import tempfile

    t0 = time.perf_counter()
    node, injector = _paused_scenario()
    sim_cost = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "floor.ckpt")
        t0 = time.perf_counter()
        cp.write_checkpoint(
            cp.save_checkpoint(
                node, injector,
                scenario={"kind": "chaos", "params": CHAOS_PARAMS},
                meta={"end_time": 1800.0},
            ),
            path,
        )
        loaded = cp.read_checkpoint(path)
        fresh_node, fresh_injector = cp.build_scenario("chaos", CHAOS_PARAMS)
        cp.restore_checkpoint(loaded, fresh_node, fresh_injector)
        ckpt_cost = time.perf_counter() - t0

    print_table(
        "checkpoint round-trip vs simulated span",
        ("path", "seconds"),
        [("simulate ~900 s", f"{sim_cost:.4f}"),
         ("save+write+read+restore", f"{ckpt_cost:.4f}")],
    )
    assert ckpt_cost < sim_cost, (
        f"checkpoint round trip ({ckpt_cost:.4f}s) costs more than the "
        f"simulation it protects ({sim_cost:.4f}s)"
    )


def test_perf_warm_store_campaign_replay(benchmark, tmp_path):
    """Time a chaos campaign served entirely from a warm store."""
    store = ResultStore(str(tmp_path))
    kwargs = dict(
        trials=6, duration_s=1800.0, profile="harsh", workers=1, store=store
    )
    chaos_campaign(**kwargs)  # populate

    def warm():
        fresh = ResultStore(str(tmp_path))
        return chaos_campaign(
            trials=6, duration_s=1800.0, profile="harsh",
            workers=1, store=fresh,
        )

    values, stats = benchmark(warm)
    assert len(values) == 6


def test_warm_store_at_least_10x_faster_than_cold(tmp_path):
    """Acceptance floor (always-on): warm replay >= 10x cold compute."""
    store = ResultStore(str(tmp_path / "w"))
    kwargs = dict(
        trials=6, duration_s=1800.0, profile="harsh", workers=1
    )

    t0 = time.perf_counter()
    cold_values, _ = chaos_campaign(store=store, **kwargs)
    cold = time.perf_counter() - t0

    fresh = ResultStore(str(tmp_path / "w"))
    t0 = time.perf_counter()
    warm_values, _ = chaos_campaign(store=fresh, **kwargs)
    warm = time.perf_counter() - t0

    print_table(
        "warm vs cold chaos campaign (6 trials x 1800 s harsh)",
        ("path", "seconds"),
        [("cold (compute + store)", f"{cold:.4f}"),
         ("warm (store replay)", f"{warm:.4f}")],
    )
    assert warm_values == cold_values  # bit-identical replay
    assert fresh.stats.hits == 6 and fresh.stats.misses == 0
    assert warm * 10 <= cold, f"warm={warm:.4f}s cold={cold:.4f}s"
