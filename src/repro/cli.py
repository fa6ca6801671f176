"""Command-line interface: ``python -m repro <command>``.

A bench-in-a-box for the reproduction: run the headline measurements
without writing any code.

Commands
--------

``audit``
    Run a node for a while and print the energy audit (the 6 uW table).
``profile``
    Capture and render one on-cycle power profile (Fig 6).
``deploy``
    Simulate days of the tire deployment with harvesting.
``link``
    Print the link budget vs. distance table.
``ic``
    Print the power IC's standing-current ledger and converter summary.
``stack``
    Validate the 1 cm^3 packaging and print the dimension ledger.
``report``
    Run a node and emit a markdown run report.
``train``
    Inspect the rail-graph topology registry: list the registered
    power trains, render one as a tree, or solve an operating point.
``chaos``
    Monte-Carlo seeded fault storms against a recovering node.
``lint``
    Domain-aware static analysis (unit suffixes, determinism, API
    contracts) over the source tree.

Wall-clock profiling needs no command of its own: run any of these under
``python -m cProfile`` (see ``docs/PERF.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_audit(args: argparse.Namespace) -> int:
    from .core.builder import build_steady_tpms_node, build_tpms_node
    from .core.energy_audit import audit_node, format_lifetime, projected_lifetime_s

    if args.fast_forward and not args.steady:
        print("--fast-forward requires --steady (the drift-free scenario)",
              file=sys.stderr)
        return 2
    if args.steady:
        node = build_steady_tpms_node(
            power_train=args.train,
            speed_kmh=args.speed,
            fast_forward=args.fast_forward,
        )
    else:
        node = build_tpms_node(power_train=args.train)
        node.environment.set_speed_kmh(args.speed)
    node.run(args.hours * 3600.0)
    audit = audit_node(node)
    print(audit.format_table())
    if node.fast_forward is not None:
        accelerator = node.fast_forward
        print(
            f"fast-forward: {len(accelerator.leaps)} leaps, "
            f"{accelerator.cycles_replayed} cycles replayed "
            f"({accelerator.time_skipped:.0f} s skipped)"
        )
    print(f"packets transmitted {len(node.packets_sent)}")
    print(
        "battery-only lifetime at this draw: "
        f"{format_lifetime(projected_lifetime_s(node))}"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .core.config import NodeConfig
    from .core.node import PicoCube
    from .core.profiles import capture_cycle_profile, render_ascii

    node = PicoCube(NodeConfig(power_train=args.train, fidelity="profile"))
    node.run(13.0)
    print(render_ascii(capture_cycle_profile(node)))
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    from .core.builder import build_tpms_deployment
    from .net.packet import decode_tpms_reading
    from .units import DAY

    deployment = build_tpms_deployment(power_train=args.train)
    node = deployment.node
    print(f"{'day':>4} {'soc':>7} {'avg power':>12} {'packets':>9}")
    for day in range(args.days):
        node.run(DAY)
        print(
            f"{day + 1:>4} {node.battery.soc:7.3f} "
            f"{node.average_power() * 1e6:9.2f} uW {len(node.packets_sent):>9}"
        )
    last = decode_tpms_reading(node.packets_sent[-1])
    print("last reading:", {k: round(v, 2) for k, v in last.items()})
    verdict = "ENERGY NEUTRAL" if node.battery.soc >= 0.6 else "DRAINING"
    print(f"verdict: {verdict} (soc {node.battery.soc:.3f} vs start 0.600)")
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    from .radio.antenna import PatchAntenna
    from .radio.link import RadioLink

    link = RadioLink(PatchAntenna())
    print(f"{'distance':>10} {'path loss':>11} {'received':>10} {'margin':>8}")
    distance = 0.25
    while distance <= args.max_distance:
        budget = link.budget(distance)
        print(
            f"{distance:8.2f} m {budget.path_loss_db:9.1f} dB "
            f"{budget.received_dbm:7.1f} dBm {budget.margin_db:+7.1f} dB"
        )
        distance *= 2.0
    print(f"max range: {link.max_range_m():.2f} m")
    return 0


def _cmd_ic(args: argparse.Namespace) -> int:
    from .power.converter_ic import ConverterIC

    ic = ConverterIC()
    print("standing-current ledger (paper: ~6.5 uA):")
    for name, amps in ic.quiescent_breakdown().items():
        print(f"  {name:<22} {amps * 1e9:10.1f} nA")
    print(f"  {'TOTAL':<22} {ic.quiescent_current() * 1e6:10.2f} uA")
    print(f"1:2 efficiency @ 500 uA: "
          f"{ic.mcu_converter.efficiency_at(1.2, 500e-6):.1%}")
    ic.enable_radio_rail()
    print(f"radio chain efficiency @ 4 mA: "
          f"{ic.radio_rail(1.2, 4e-3).efficiency:.1%}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .core.builder import build_tpms_node
    from .core.reporting import run_report

    node = build_tpms_node(power_train=args.train)
    node.run(args.hours * 3600.0)
    print(run_report(node, title=args.title))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .core.power_train import LoadState, make_power_train
    from .errors import ElectricalError
    from .power.rail_topologies import get_rail_spec, rail_topology_names

    if args.list_kinds:
        for kind in rail_topology_names():
            print(f"{kind:<12} {get_rail_spec(kind).description}")
        return 0
    if args.describe is not None:
        train = make_power_train(args.describe)
        print(train.describe())
        return 0
    train = make_power_train(args.solve)
    loads = LoadState(
        i_mcu=args.i_mcu,
        i_sensor=args.i_sensor,
        i_radio_digital=args.i_radio_digital,
        i_radio_rf=args.i_radio_rf,
    )
    if loads.i_radio_digital > 0.0 or loads.i_radio_rf > 0.0:
        train.enable_radio()
    if args.emit_kernel:
        from .power.compile import DIALECT_FLOAT, kernel_source

        print(kernel_source(train.graph, train._open_gates))
        print(kernel_source(train.graph, train._open_gates, DIALECT_FLOAT))
        return 0
    if args.batch:
        return _solve_train_batch(train, loads, args)
    try:
        solution = train.solve(args.v_battery, loads)
    except ElectricalError as exc:
        print(f"no operating point: {exc}", file=sys.stderr)
        return 1
    print(f"{train.name} @ {solution.v_battery:.3f} V battery")
    print(f"  {'i_battery':<14}{solution.i_battery * 1e6:10.3f} uA")
    print(f"  {'p_battery':<14}{solution.p_battery * 1e6:10.3f} uW")
    print(f"  {'v_mcu_rail':<14}{solution.v_mcu_rail:10.3f} V")
    for name, watts in solution.subsystem_power.items():
        print(f"  {name:<14}{watts * 1e6:10.3f} uW")
    print(f"  {'management':<14}{solution.p_management * 1e6:10.3f} uW")
    return 0


def _solve_train_batch(train, loads, args: argparse.Namespace) -> int:
    import numpy as np

    from .errors import ElectricalError

    if args.batch < 2:
        print("--batch needs at least 2 points", file=sys.stderr)
        return 2
    if not args.v_min < args.v_max:
        print("--v-min must be below --v-max", file=sys.stderr)
        return 2
    v_sweep = np.linspace(args.v_min, args.v_max, args.batch)
    channel_loads = {
        "mcu": loads.i_mcu,
        "sensor": loads.i_sensor,
        "radio-digital": loads.i_radio_digital,
        "radio-rf": loads.i_radio_rf,
    }
    try:
        batch = train.solve_graph_batch(v_sweep, channel_loads)
    except ElectricalError as exc:
        print(f"no operating point: {exc}", file=sys.stderr)
        return 1
    print(f"{train.name}: {args.batch} points, "
          f"{args.v_min:.3f}-{args.v_max:.3f} V")
    print(f"{'v_battery':>10} {'i_battery':>12} {'p_battery':>12}")
    for k in range(len(batch)):
        print(f"{batch.v_source[k]:8.4f} V "
              f"{batch.i_source[k] * 1e6:9.3f} uA "
              f"{batch.p_source[k] * 1e6:9.3f} uW")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .campaigns import chaos_campaign

    outcomes, stats = chaos_campaign(
        trials=args.trials,
        duration_s=args.hours * 3600.0,
        profile=args.profile,
        base_seed=args.seed,
        workers=args.workers,
    )
    print(f"{'trial':>5} {'cycles':>7} {'sent':>6} {'corrupt':>8} "
          f"{'brownouts':>10} {'outage':>9} {'resets':>7} {'soc':>6}")
    for k, out in enumerate(outcomes):
        print(
            f"{k:>5} {out.cycles:>7} {out.packets_delivered:>6} "
            f"{out.packets_corrupted:>8} {out.brownouts:>10} "
            f"{out.outage_s:7.0f} s {out.resets:>7} {out.final_soc:6.3f}"
        )
    survived = sum(1 for out in outcomes if out.survived)
    duration = args.hours * 3600.0
    worst = max(out.outage_s for out in outcomes)
    print(f"survived {survived}/{len(outcomes)} trials "
          f"({args.profile} profile); worst outage {worst:.0f} s "
          f"({worst / duration:.1%} of the run)")
    print(stats.summary())
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from time import perf_counter

    from .sim.fleet_engine import FleetScenario, run_fleet

    scenario = FleetScenario(
        node_count=args.nodes,
        duration_s=args.duration,
        stagger_s=args.stagger,
        phase_seed=args.phase_seed,
        power_train=args.train,
        line_code=args.line_code,
    )
    engines = ("per-node", "cohort") if args.compare else (args.engine,)
    reference = None
    for engine in engines:
        started = perf_counter()
        run = run_fleet(scenario, engine=engine,
                        cohort_size=args.cohort_size)
        elapsed = perf_counter() - started
        stats = run.stats
        print(f"{engine:>9}: {args.nodes} nodes x {args.duration:.0f} s "
              f"in {elapsed:.2f} s wall — transmitted {stats.transmitted}, "
              f"collided {stats.collided} "
              f"(rate {stats.collision_rate:.3f}), "
              f"delivered {stats.delivered}")
        if run.engine_used != engine:
            print(f"           fell back to {run.engine_used}: "
                  f"{run.fallback_reason}")
        if reference is None:
            reference = run
        elif args.compare:
            same = (reference.stats == run.stats
                    and reference.records == run.records)
            print(f"           bit-identical to {engines[0]}: {same}")
            if not same:
                return 1
    return 0


def _changed_files(base: str,
                   requested: "List[pathlib.Path]") -> "Optional[List[pathlib.Path]]":
    """Python files changed since ``base`` that fall under ``requested``.

    ``None`` means git could not answer (not a repository, unknown
    ref); the caller falls back to a full lint rather than passing
    silently on unknown state.
    """
    import pathlib
    import subprocess

    try:
        out = subprocess.run(
            ["git", "diff", "--name-only", "-z", base, "--"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    roots = [p.resolve() for p in requested]
    changed = []
    for name in out.split("\0"):
        if not name.endswith(".py"):
            continue
        path = pathlib.Path(name)
        if not path.is_file():
            continue  # deleted files have nothing to lint
        resolved = path.resolve()
        for root in roots:
            if resolved == root or root in resolved.parents:
                changed.append(path)
                break
    return changed


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from .analysis import default_rules
    from .analysis.baseline import (
        load_baseline,
        split_by_baseline,
        stale_baseline_entries,
        write_baseline,
    )
    from .analysis.driver import analyze_paths, finalize_findings
    from .analysis.report import render_json, render_text
    from .analysis.rules_kernels import audit_registered_kernels

    if args.changed is not None and (args.update_baseline
                                     or args.check_baseline):
        # The baseline covers the whole tree; a --changed subset would
        # drop (or call stale) every entry outside the touched files.
        flag = ("--update-baseline" if args.update_baseline
                else "--check-baseline")
        print(f"{flag} needs the whole tree and cannot be combined "
              f"with --changed", file=sys.stderr)
        return 2
    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.rule_name:<28} "
                  f"[{rule.severity}] {rule.description}")
        return 0
    paths = [pathlib.Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.changed is not None:
        changed = _changed_files(args.changed, paths)
        if changed is not None:
            if not changed:
                print(f"no python files changed since {args.changed} "
                      f"under {' '.join(args.paths)}; nothing to lint")
                return 0
            paths = changed
        else:
            print(f"warning: cannot resolve changes since "
                  f"{args.changed!r}; linting everything", file=sys.stderr)
    findings = analyze_paths(paths, rules)
    if args.kernels:
        findings = finalize_findings(
            list(findings) + audit_registered_kernels())
    baseline_path = pathlib.Path(args.baseline)
    if args.check_baseline:
        stale = stale_baseline_entries(baseline_path, findings)
        if stale:
            print(f"{len(stale)} stale baseline entr"
                  f"{'y' if len(stale) == 1 else 'ies'} in "
                  f"{baseline_path} (finding fixed, suppression "
                  f"still committed):")
            for entry in stale:
                print(f"  {entry['fingerprint']}  {entry['rule']}  "
                      f"{entry['path']}  {entry.get('snippet', '')}")
            print("regenerate with --update-baseline (reasons are "
                  "preserved)")
            return 1
        print(f"baseline {baseline_path} is up to date")
        return 0
    if args.update_baseline:
        write_baseline(baseline_path, findings)
        print(f"wrote {baseline_path} ({len(findings)} finding(s) "
              f"accepted as baseline)")
        return 0
    baseline = load_baseline(baseline_path)
    new, suppressed = split_by_baseline(findings, baseline)
    if args.json:
        print(render_json(new, suppressed))
    else:
        print(render_text(new, suppressed_count=len(suppressed)))
    return 1 if new else 0


def _cmd_stack(args: argparse.Namespace) -> int:
    from .board.stack import standard_picocube

    cube = standard_picocube()
    print(f"{'board':<12} {'thickness':>10} {'gap above':>10}")
    for entry in cube.entries:
        print(
            f"{entry.pcb.name:<12} {entry.pcb.thickness_m * 1e3:8.2f} mm "
            f"{entry.gap_above_m * 1e3:8.2f} mm"
        )
    print(f"base {cube.base_m * 1e3:.2f} mm (battery pocket), "
          f"lid {cube.lid_m * 1e3:.2f} mm")
    print(f"total {cube.total_height() * 1e3:.2f} mm -> "
          f"{cube.volume_cm3():.3f} cm^3; "
          f"one cubic centimetre: {cube.is_one_cubic_centimetre()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    from .power.rail_topologies import rail_topology_names

    train_kinds = tuple(rail_topology_names())
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PicoCube (DAC 2008) reproduction bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="energy audit of a node run")
    audit.add_argument("--hours", type=float, default=1.0)
    audit.add_argument("--train", choices=train_kinds, default="cots")
    audit.add_argument("--speed", type=float, default=60.0,
                       help="vehicle speed, km/h")
    audit.add_argument("--steady", action="store_true",
                       help="drift-free steady-cruise scenario "
                            "(full cell, constant harvest)")
    audit.add_argument("--fast-forward", action="store_true",
                       help="enable the cycle fast-forward accelerator "
                            "(requires --steady; results bit-identical)")
    audit.set_defaults(handler=_cmd_audit)

    profile = sub.add_parser("profile", help="one on-cycle power profile")
    profile.add_argument("--train", choices=train_kinds, default="cots")
    profile.set_defaults(handler=_cmd_profile)

    deploy = sub.add_parser("deploy", help="tire deployment with harvesting")
    deploy.add_argument("--days", type=int, default=3)
    deploy.add_argument("--train", choices=train_kinds, default="cots")
    deploy.set_defaults(handler=_cmd_deploy)

    link = sub.add_parser("link", help="link budget vs distance")
    link.add_argument("--max-distance", type=float, default=8.0)
    link.set_defaults(handler=_cmd_link)

    ic = sub.add_parser("ic", help="power IC summary")
    ic.set_defaults(handler=_cmd_ic)

    stack = sub.add_parser("stack", help="packaging ledger")
    stack.set_defaults(handler=_cmd_stack)

    report = sub.add_parser("report", help="markdown run report")
    report.add_argument("--hours", type=float, default=1.0)
    report.add_argument("--train", choices=train_kinds, default="cots")
    report.add_argument("--title", default=None)
    report.set_defaults(handler=_cmd_report)

    train = sub.add_parser(
        "train", help="rail-graph topology registry (list/describe/solve)"
    )
    what = train.add_mutually_exclusive_group(required=True)
    what.add_argument("--list", action="store_true", dest="list_kinds",
                      help="list registered topologies")
    what.add_argument("--describe", metavar="KIND", default=None,
                      help="render one topology as a component tree")
    what.add_argument("--solve", metavar="KIND", default=None,
                      help="solve one operating point and print the result")
    train.add_argument("--v-battery", type=float, default=1.25,
                       help="battery voltage for --solve (default: 1.25 V)")
    train.add_argument("--i-mcu", type=float, default=0.7e-6,
                       help="MCU load, amperes (default: 0.7 uA sleep)")
    train.add_argument("--i-sensor", type=float, default=0.3e-6,
                       help="sensor load, amperes (default: 0.3 uA sleep)")
    train.add_argument("--i-radio-digital", type=float, default=0.0,
                       help="radio digital load, amperes (gates the radio "
                            "rails on when nonzero)")
    train.add_argument("--i-radio-rf", type=float, default=0.0,
                       help="radio RF load, amperes (gates the radio "
                            "rails on when nonzero)")
    train.add_argument("--batch", type=int, default=0, metavar="N",
                       help="with --solve: sweep N battery voltages "
                            "between --v-min and --v-max in one "
                            "solve_batch call and print a table")
    train.add_argument("--v-min", type=float, default=1.15,
                       help="low end of the --batch sweep (default: 1.15 V)")
    train.add_argument("--v-max", type=float, default=1.40,
                       help="high end of the --batch sweep (default: 1.40 V)")
    train.add_argument("--emit-kernel", action="store_true",
                       help="with --solve: print the plan-compiled fused "
                            "kernel sources (numpy batch, then float "
                            "point) for the train's current gate state "
                            "instead of solving")
    train.set_defaults(handler=_cmd_train)

    chaos = sub.add_parser("chaos", help="seeded fault-storm Monte Carlo")
    chaos.add_argument("--trials", type=int, default=8)
    chaos.add_argument("--hours", type=float, default=6.0)
    chaos.add_argument("--profile", choices=("mild", "harsh"), default="mild")
    chaos.add_argument("--seed", type=int, default=2008)
    chaos.add_argument("--workers", type=int, default=None)
    chaos.set_defaults(handler=_cmd_chaos)

    fleet = sub.add_parser(
        "fleet", help="simulate a TPMS fleet (cohort or per-node engine)"
    )
    fleet.add_argument("--nodes", type=int, default=1000,
                       help="fleet size (default: 1000)")
    fleet.add_argument("--duration", type=float, default=600.0,
                       help="simulated seconds (default: 600)")
    fleet.add_argument("--engine", choices=("cohort", "per-node"),
                       default="cohort")
    fleet.add_argument("--cohort-size", type=int, default=None,
                       help="nodes per cohort (default: whole fleet)")
    fleet.add_argument("--stagger", type=float, default=None,
                       help="wake stagger, seconds (default: spread one "
                            "beacon period across the fleet)")
    fleet.add_argument("--phase-seed", type=int, default=None,
                       help="draw random wake phases from this seed "
                            "instead of staggering")
    fleet.add_argument("--train", default="cots",
                       help="power-train topology (default: cots)")
    fleet.add_argument("--line-code", choices=("nrz", "manchester"),
                       default="nrz")
    fleet.add_argument("--compare", action="store_true",
                       help="run both engines and check bit-identity")
    fleet.set_defaults(handler=_cmd_fleet)

    lint = sub.add_parser(
        "lint", help="domain-aware static analysis of the source tree"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable report")
    lint.add_argument("--baseline", default="lint-baseline.json",
                      metavar="PATH",
                      help="baseline file of accepted findings "
                           "(default: lint-baseline.json if present)")
    lint.add_argument("--kernels", action="store_true",
                      help="also audit every generated solve_batch "
                           "kernel (registered topologies x gate "
                           "signatures, rule KER002)")
    lint.add_argument("--changed", nargs="?", const="HEAD",
                      default=None, metavar="REF",
                      help="lint only python files changed since REF "
                           "(git diff; default REF: HEAD)")
    lint.add_argument("--check-baseline", action="store_true",
                      help="fail if the baseline holds fingerprints no "
                           "live finding matches (stale suppressions)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="accept all current findings into the baseline")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
