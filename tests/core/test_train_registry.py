"""The topology registry end to end: construction, validation errors,
exploratory topologies powering real nodes, the sweep campaign, and the
``repro train`` CLI."""

import pytest

from repro.cli import main as cli_main
from repro.core.builder import build_tpms_node
from repro.core.config import NodeConfig
from repro.core.power_train import (
    CotsPowerTrain,
    GraphPowerTrain,
    IcPowerTrain,
    LoadState,
    make_power_train,
)
from repro.errors import ConfigurationError
from repro.power.rail_topologies import rail_topology_names
from repro.studies import topology_sweep_campaign

EXPLORATORY = [k for k in rail_topology_names() if k not in ("cots", "ic")]


# ---------------------------------------------------------------------------
# make_power_train and LoadState validation
# ---------------------------------------------------------------------------


def test_paper_kinds_build_their_dedicated_classes():
    assert isinstance(make_power_train("cots"), CotsPowerTrain)
    assert isinstance(make_power_train("ic"), IcPowerTrain)


@pytest.mark.parametrize("kind", EXPLORATORY)
def test_exploratory_kinds_build_graph_trains(kind):
    train = make_power_train(kind)
    assert isinstance(train, GraphPowerTrain)
    assert not isinstance(train, (CotsPowerTrain, IcPowerTrain))


def test_unknown_kind_error_names_every_valid_kind():
    with pytest.raises(ConfigurationError) as excinfo:
        make_power_train("flux")
    message = str(excinfo.value)
    assert "'flux'" in message
    for kind in rail_topology_names():
        assert kind in message


@pytest.mark.parametrize("field", ["i_mcu", "i_sensor", "i_radio_digital",
                                   "i_radio_rf"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_load_state_rejects_non_finite_currents(field, bad):
    with pytest.raises(ConfigurationError, match="finite"):
        LoadState(**{field: bad})


def test_load_state_rejects_negative_currents():
    with pytest.raises(ConfigurationError, match=">= 0"):
        LoadState(i_mcu=-1e-6)


def test_node_config_accepts_every_registered_kind():
    for kind in rail_topology_names():
        assert NodeConfig(power_train=kind).power_train == kind
    with pytest.raises(ConfigurationError, match="power_train"):
        NodeConfig(power_train="flux")


# ---------------------------------------------------------------------------
# Per-component degradation API
# ---------------------------------------------------------------------------


def test_component_degradation_validates_name_and_factor():
    train = make_power_train("cots")
    with pytest.raises(ConfigurationError, match="no component"):
        train.set_component_degradation("warp-coil", 1.5)
    with pytest.raises(ConfigurationError, match=">= 1"):
        train.set_component_degradation("tps60313", 0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_component_degradation_rejects_non_finite_factors(bad):
    train = make_power_train("cots")
    with pytest.raises(ConfigurationError,
                       match="degradation factor for 'tps60313' must be "
                             "finite"):
        train.set_component_degradation("tps60313", bad)
    assert train.component_degradations() == {}


def test_component_degradation_raises_draw_and_heals():
    train = make_power_train("cots")
    loads = LoadState(i_mcu=0.7e-6, i_sensor=0.3e-6)
    healthy = train.solve(1.25, loads)
    train.set_component_degradation("tps60313", 1.5)
    assert train.component_degradations() == {"tps60313": 1.5}
    aged = train.solve(1.25, loads)
    assert aged.i_battery > healthy.i_battery
    train.set_component_degradation("tps60313", 1.0)  # heal
    assert train.component_degradations() == {}
    assert train.solve(1.25, loads).i_battery.hex() == healthy.i_battery.hex()


# ---------------------------------------------------------------------------
# Exploratory topologies drive a full node
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", EXPLORATORY)
def test_exploratory_topology_runs_a_node_end_to_end(kind):
    node = build_tpms_node(power_train=kind)
    node.run(600.0)
    assert node.cycles_completed > 0
    assert node.packets_sent, f"{kind}: no packet made it out"
    average = node.average_power()
    assert 0.0 < average < 100e-6, f"{kind}: implausible power {average}"


def test_topology_sweep_campaign_is_bit_identical_across_workers():
    serial, _ = topology_sweep_campaign(duration_s=300.0, workers=1)
    parallel, _ = topology_sweep_campaign(duration_s=300.0, workers=2)
    assert serial == parallel
    assert [outcome.kind for outcome in serial] == list(rail_topology_names())
    for outcome in serial:
        assert outcome.cycles > 0
        assert outcome.sleep_power_w > 0.0
        assert 0.0 <= outcome.management_share <= 1.0


# ---------------------------------------------------------------------------
# The `repro train` CLI
# ---------------------------------------------------------------------------


def test_cli_train_list_shows_all_registered_topologies(capsys):
    assert cli_main(["train", "--list"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.strip().splitlines()]
    assert listed == list(rail_topology_names())
    assert len(listed) >= 4


def test_cli_train_describe_renders_the_tree(capsys):
    assert cli_main(["train", "--describe", "cots"]) == 0
    out = capsys.readouterr().out
    assert "tps60313" in out and "gate=radio" in out


def test_cli_train_solve_prints_an_operating_point(capsys):
    assert cli_main(["train", "--solve", "ic", "--v-battery", "1.3"]) == 0
    out = capsys.readouterr().out
    assert "i_battery" in out and "management" in out


def test_cli_train_solve_reports_no_operating_point(capsys):
    assert cli_main(["train", "--solve", "cots", "--v-battery", "0.5"]) == 1
    err = capsys.readouterr().err
    assert "no operating point" in err


def test_cli_train_emit_kernel_prints_fused_source(capsys):
    assert cli_main(["train", "--solve", "cots", "--emit-kernel"]) == 0
    out = capsys.readouterr().out
    assert "def _kernel(" in out
    assert "gates [radio=closed]" in out


def test_cli_train_emit_kernel_prints_both_dialects(capsys):
    assert cli_main(["train", "--solve", "cots", "--emit-kernel"]) == 0
    out = capsys.readouterr().out
    batch = out.index("def _kernel(v, loads, masks, factors, shape")
    point = out.index("def _float_kernel(v, i_mcu, i_sensor, "
                      "i_radio_digital, i_radio_rf, factors):")
    assert batch < point
    assert out.count("gates [radio=closed]") == 2


def test_cli_train_emit_kernel_reflects_gate_state(capsys):
    # A nonzero radio load enables the radio, so the emitted kernel is
    # the radio-open specialization.
    assert cli_main(["train", "--solve", "cots", "--emit-kernel",
                     "--i-radio-rf", "4e-3"]) == 0
    out = capsys.readouterr().out
    assert "gates [radio=open]" in out


def test_cli_audit_accepts_exploratory_trains(capsys):
    kind = EXPLORATORY[0]
    assert cli_main(["audit", "--hours", "0.1", "--train", kind]) == 0
    out = capsys.readouterr().out
    assert "average power" in out and "packets transmitted" in out
