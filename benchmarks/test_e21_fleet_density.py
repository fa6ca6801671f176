"""E21 (extension) — Dense deployments on one OOK channel (paper §1).

The paper motivates "very dense collaborative networks" of ubiquitous
nodes.  PicoCubes are transmit-only, so density costs collisions: this
experiment runs whole fleets of simulated cubes on a shared channel and
measures delivery vs. density, cross-checked against the pure-ALOHA
analytic model.

Shape checks: staggered fleets are collision-free at any simulated
density (the beacons are ~300 us in a 6 s period — there is enormous
headroom *if* phases are spread); random phases track the ALOHA
prediction; clustered phases are catastrophic.  Conclusion the paper's
architecture implicitly relies on: desynchronisation comes free from
independent power-up times.
"""

from conftest import campaign_workers, print_table

from repro.studies import fleet_density_campaign, fleet_task


def sweep():
    rows, stats = fleet_density_campaign(
        (2, 5, 10, 20, 40), duration_s=300.0, workers=campaign_workers()
    )
    clustered = fleet_task((10, None, 0.0001, 300.0))
    print(f"\n[runner] {stats.summary()}")
    return rows, clustered


def test_e21_fleet_density(benchmark):
    rows, clustered = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_table(
        "E21: fleet density vs channel loss (300 s, 6 s beacons)",
        ["nodes", "staggered loss", "random-phase loss", "ALOHA model"],
        [
            (count,
             f"{stag.collision_rate:.2%}",
             f"{scat.collision_rate:.2%}",
             f"{pred:.2%}")
            for count, stag, scat, pred in rows
        ],
    )
    print(f"\npathological clustering (10 nodes within 1 ms): "
          f"{clustered.collision_rate:.0%} loss")

    # Shape: engineered stagger is collision-free at every density.
    for _, staggered, _, _ in rows:
        assert staggered.collision_rate == 0.0
    # Shape: random phases stay within a few percent and within ~4x of
    # the analytic ALOHA loss at every density (rare-event noise).
    for count, _, scattered, predicted in rows:
        assert scattered.collision_rate < max(4.0 * predicted, 0.03)
    # Shape: loss grows with density for the analytic model.
    preds = [pred for *_, pred in rows]
    assert preds == sorted(preds)
    # Shape: clustering is catastrophic — the failure mode to avoid.
    assert clustered.collision_rate > 0.9
