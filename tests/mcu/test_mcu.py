"""Tests for the MSP430 model, firmware image, and SPI timing."""

import pytest

from repro.errors import ConfigurationError
from repro.mcu.firmware import FirmwareImage, motion_firmware, tpms_firmware
from repro.mcu.msp430 import Mode, Msp430
from repro.mcu.spi import SpiMaster


# -- Msp430 -------------------------------------------------------------------


def test_default_mode_is_lpm3():
    assert Msp430().mode is Mode.LPM3


def test_sub_microwatt_deep_sleep():
    """The paper's selection criterion for the MSP430."""
    assert Msp430().sub_microwatt_sleep


def test_mode_currents_ordered():
    mcu = Msp430()
    v = 2.2
    assert (
        mcu.current(v, Mode.LPM4)
        < mcu.current(v, Mode.LPM3)
        < mcu.current(v, Mode.LPM0)
        < mcu.current(v, Mode.ACTIVE)
    )


def test_active_current_at_reference():
    mcu = Msp430(clock_hz=1e6, i_active_per_mhz=250e-6)
    assert mcu.current(2.2, Mode.ACTIVE) == pytest.approx(250e-6)


def test_active_current_scales_with_clock():
    fast = Msp430(clock_hz=8e6)
    slow = Msp430(clock_hz=1e6)
    assert fast.current(2.2, Mode.ACTIVE) == pytest.approx(
        8.0 * slow.current(2.2, Mode.ACTIVE)
    )


def test_current_scales_with_vdd():
    mcu = Msp430()
    assert mcu.current(3.3, Mode.LPM3) == pytest.approx(
        mcu.current(2.2, Mode.LPM3) * 3.3 / 2.2
    )


def test_supply_window_enforced():
    mcu = Msp430()
    with pytest.raises(ConfigurationError):
        mcu.current(1.8)
    with pytest.raises(ConfigurationError):
        mcu.current(4.0)


def test_enter_tracks_transitions():
    mcu = Msp430()
    mcu.enter(Mode.ACTIVE)
    mcu.enter(Mode.ACTIVE)  # no-op
    mcu.enter(Mode.LPM3)
    assert mcu.mode_transitions == 2
    assert mcu.mode is Mode.LPM3


def test_enter_rejects_non_mode():
    with pytest.raises(ConfigurationError):
        Msp430().enter("active")


def test_cycles_to_seconds():
    mcu = Msp430(clock_hz=1e6)
    assert mcu.cycles_to_seconds(1000) == pytest.approx(1e-3)
    with pytest.raises(ConfigurationError):
        mcu.cycles_to_seconds(-1)


def test_execution_energy():
    mcu = Msp430(clock_hz=1e6, i_active_per_mhz=250e-6)
    # 1000 cycles = 1 ms at 250 uA, 2.2 V
    assert mcu.execution_energy(2.2, 1000) == pytest.approx(2.2 * 250e-6 * 1e-3)


def test_sleep_current_ordering_enforced():
    with pytest.raises(ConfigurationError):
        Msp430(i_lpm3=1e-6, i_lpm4=2e-6)


# -- FirmwareImage --------------------------------------------------------------


def test_firmware_path_registration_and_lookup():
    image = FirmwareImage("test")
    image.add_path("boot", 500)
    assert image.path("boot").cycles == 500


def test_firmware_duplicate_path_rejected():
    image = FirmwareImage("test")
    image.add_path("boot", 500)
    with pytest.raises(ConfigurationError):
        image.add_path("boot", 100)


def test_firmware_unknown_path_rejected():
    with pytest.raises(ConfigurationError):
        FirmwareImage("test").path("ghost")


def test_firmware_interrupt_binding():
    image = FirmwareImage("test")
    image.add_path("isr", 200)
    image.attach_interrupt("timer", "isr")
    assert image.isr_for("timer").name == "isr"
    assert image.interrupts() == ["timer"]


def test_firmware_unbound_interrupt_rejected():
    with pytest.raises(ConfigurationError):
        FirmwareImage("test").isr_for("timer")


def test_firmware_total_cycles():
    image = FirmwareImage("test")
    image.add_path("a", 100)
    image.add_path("b", 250)
    assert image.total_cycles(["a", "b", "a"]) == 450


def test_tpms_firmware_cycle_fits_budget():
    """The CPU-active part of the wake cycle must be small vs. 14 ms."""
    image, sequence = tpms_firmware()
    mcu = Msp430(clock_hz=1e6)
    cpu_time = mcu.cycles_to_seconds(image.total_cycles(sequence))
    assert cpu_time < 5e-3  # CPU is a fraction of the 14 ms cycle


def test_tpms_firmware_has_timer_isr():
    image, _ = tpms_firmware()
    assert image.isr_for("tpms-timer").name == "wake"


def test_motion_firmware_has_threshold_isr():
    image, sequence = motion_firmware()
    assert image.isr_for("motion-threshold").name == "wake"
    assert sequence[0] == "wake"
    assert sequence[-1] == "sleep-entry"


def test_code_path_negative_cycles_rejected():
    image = FirmwareImage("test")
    with pytest.raises(ConfigurationError):
        image.add_path("bad", -1)


def test_code_path_duration_and_energy():
    image = FirmwareImage("test")
    path = image.add_path("p", 2200)
    mcu = Msp430(clock_hz=1e6, i_active_per_mhz=250e-6)
    assert path.duration(mcu) == pytest.approx(2.2e-3)
    assert path.energy(mcu, 2.2) == pytest.approx(2.2 * 250e-6 * 2.2e-3)


# -- SpiMaster ---------------------------------------------------------------------


def test_spi_transfer_time():
    spi = SpiMaster(clock_hz=500e3, bits_per_word=8, inter_word_gap_s=2e-6)
    # 4 words: 32 bits / 500 kHz + 3 gaps
    assert spi.transfer_time(4) == pytest.approx(64e-6 + 6e-6)


def test_spi_zero_words():
    assert SpiMaster().transfer_time(0) == 0.0


def test_spi_clock_edges():
    assert SpiMaster(bits_per_word=8).clock_edges(4) == 64


def test_spi_data_edges_probability():
    spi = SpiMaster(bits_per_word=8)
    assert spi.data_edges(4, toggle_probability=0.25) == pytest.approx(8.0)
    with pytest.raises(ConfigurationError):
        spi.data_edges(4, toggle_probability=1.5)


def test_spi_validation():
    with pytest.raises(ConfigurationError):
        SpiMaster(clock_hz=0.0)
    with pytest.raises(ConfigurationError):
        SpiMaster(bits_per_word=0)
    with pytest.raises(ConfigurationError):
        SpiMaster().transfer_time(-1)
