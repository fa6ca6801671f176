"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["teleport"])


def test_audit_command(capsys):
    code, out = run_cli(capsys, "audit", "--hours", "0.1")
    assert code == 0
    assert "average power" in out
    assert "power-management" in out
    assert "uW" in out


def test_audit_ic_train(capsys):
    code, out = run_cli(capsys, "audit", "--hours", "0.05", "--train", "ic")
    assert code == 0
    assert "average power" in out


def test_profile_command(capsys):
    code, out = run_cli(capsys, "profile")
    assert code == 0
    assert "on-cycle profile" in out
    assert "#" in out


def test_deploy_command(capsys):
    code, out = run_cli(capsys, "deploy", "--days", "1")
    assert code == 0
    assert "verdict: ENERGY NEUTRAL" in out
    assert "pressure_psi" in out


def test_link_command(capsys):
    code, out = run_cli(capsys, "link", "--max-distance", "2.0")
    assert code == 0
    assert "max range" in out
    assert "-60.5 dBm" in out


def test_ic_command(capsys):
    code, out = run_cli(capsys, "ic")
    assert code == 0
    assert "pad-ring" in out
    assert "TOTAL" in out


def test_stack_command(capsys):
    code, out = run_cli(capsys, "stack")
    assert code == 0
    assert "one cubic centimetre: True" in out
    assert "radio" in out


def test_invalid_train_rejected():
    with pytest.raises(SystemExit):
        main(["audit", "--train", "fusion"])


def test_audit_steady_fast_forward(capsys):
    code, out = run_cli(capsys, "audit", "--hours", "0.2", "--steady",
                        "--fast-forward")
    assert code == 0
    assert "average power" in out
    assert "fast-forward:" in out


def test_audit_fast_forward_requires_steady(capsys):
    assert main(["audit", "--fast-forward"]) == 2


def test_fleet_command(capsys):
    code, out = run_cli(capsys, "fleet", "--nodes", "32", "--duration",
                        "30", "--phase-seed", "7")
    assert code == 0
    assert "cohort" in out
    assert "transmitted" in out


def test_fleet_compare_engines(capsys):
    code, out = run_cli(capsys, "fleet", "--nodes", "6", "--duration",
                        "30", "--compare")
    assert code == 0
    assert "bit-identical to per-node: True" in out


def test_fleet_invalid_engine_rejected():
    with pytest.raises(SystemExit):
        main(["fleet", "--engine", "warp"])


def test_perf_command(capsys):
    code, out = run_cli(capsys, "perf", "audit", "--hours", "0.02",
                        "--top", "5")
    assert code == 0
    assert "cumulative" in out
    assert "function calls" in out


def test_perf_command_writes_pstats(capsys, tmp_path):
    out_file = tmp_path / "profile.pstats"
    code, out = run_cli(capsys, "perf", "steady", "--hours", "0.02",
                        "--out", str(out_file))
    assert code == 0
    assert out_file.exists()
    import pstats

    stats = pstats.Stats(str(out_file))
    assert stats.total_calls > 0
