"""E20 (ablation) — SLA fit tolerance vs. assembly yield (paper §4.2, §5).

Claims: the SLA parts were "post-processed to create a very close fit
around the PCBs; horizontal alignment is a critical parameter to prevent
shorts between adjacent contact pads"; and future revisions bring
"smaller pads with tighter tolerances."

Regenerates: Monte-Carlo assembly yield vs. horizontal fit tolerance for
the current 18-pad ring and a hypothetical shrunk 30-pad ring.  Shape
checks: yield collapses past the geometric safe limit; shorts (not opens)
are the dominant failure, as the paper warns; the shrunk ring demands a
~2x tighter fit for the same yield.
"""

from conftest import campaign_workers, print_table

from repro.studies import (
    alignment_model,
    parallel_tolerance_for_yield,
    yield_table_campaign,
)


def sweep():
    current = alignment_model("18-pad")
    shrunk = alignment_model("30-pad")
    tolerances = [0.1e-3, 0.3e-3, 0.5e-3, 0.7e-3, 0.9e-3, 1.2e-3]
    workers = campaign_workers()
    rows, stats = yield_table_campaign(tolerances, workers=workers)
    required = {
        "18-pad (built)": parallel_tolerance_for_yield(
            "18-pad", 0.99, samples=800, workers=workers
        ),
        "30-pad (next rev)": parallel_tolerance_for_yield(
            "30-pad", 0.99, samples=800, workers=workers
        ),
    }
    print(f"\n[runner] {stats.summary()}")
    return current, shrunk, rows, required


def test_e20_alignment_yield(benchmark):
    current, shrunk, rows, required = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )

    print_table(
        "E20: assembly yield vs SLA fit tolerance (4 interfaces/assembly)",
        ["fit tolerance", "18-pad yield", "(shorts)", "30-pad yield",
         "(shorts)"],
        [
            (f"{tol * 1e3:.1f} mm",
             f"{now.yield_fraction:.1%}", now.shorts,
             f"{nxt.yield_fraction:.1%}", nxt.shorts)
            for tol, now, nxt in rows
        ],
    )
    print_table(
        "E20b: loosest tolerance for 99% assembly yield",
        ["ring", "tolerance"],
        [(name, f"{tol * 1e3:.2f} mm") for name, tol in required.items()],
    )
    print(f"\ngeometric safe limits: 18-pad "
          f"{current.max_safe_misalignment() * 1e3:.2f} mm, 30-pad "
          f"{shrunk.max_safe_misalignment() * 1e3:.2f} mm")

    # Shape: tight fits yield ~100 %, loose fits collapse.
    first = rows[0]
    last = rows[-1]
    assert first[1].yield_fraction > 0.99
    assert last[1].yield_fraction < 0.5
    # Shape: shorts dominate the failures (the paper's exact worry).
    total_shorts = sum(now.shorts for _, now, _ in rows)
    total_opens = sum(now.opens for _, now, _ in rows)
    assert total_shorts > 10 * max(total_opens, 1)
    # Shape: the shrunk ring is strictly harder at every tolerance...
    for _, now, nxt in rows:
        assert nxt.yield_fraction <= now.yield_fraction + 0.02
    # ...and needs a meaningfully tighter fit for the same yield.
    assert required["30-pad (next rev)"] < 0.7 * required["18-pad (built)"]
