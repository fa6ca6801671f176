"""Cohort-vectorized fleet advance: many identical nodes, one numpy chain.

A dense fleet (the §1 "very dense collaborative networks" vision) is
thousands of PicoCubes that differ only in wake phase, on-air id, and
per-cell degradation.  Stepping each one through the discrete-event
engine repeats the same ~14 ms sample/format/transmit cycle arithmetic N
times per beacon period.  This module batches nodes sharing a
``(topology, config)`` signature into a *cohort*: battery charge, battery
current, sync times, and degradation multipliers become ``(n,)`` numpy
arrays advanced in lockstep, and every power-train evaluation goes
through :meth:`~repro.core.power_train.GraphPowerTrain.solve_graph_batch`
— one batch solve per cohort step instead of N scalar solves.

Bit-exactness contract
----------------------

The chain calls the scalar :class:`~repro.core.node.PicoCube`'s own
cell, radio and train formulas, which run unchanged on a float and on a
float64 lane array; this module only selects (OCV segment, lane masks),
plumbs buffers and chains the batch solves in the node's order, so
results are **bit-identical** to per-node stepping — not merely close.
The contract is self-enforcing: each cohort runs one real *probe* node
event-by-event on a private engine and compares the chain's lane-0
charge, battery current, cycle timings, packet frames, and full recorder
traces bitwise against it.  Any mismatch — or any scenario feature the
chain does not model (attached chargers, brownout risk, non-TPMS
firmware, ``profile`` RF fidelity) — raises :class:`CohortFallback`, and
the caller reruns the whole scenario on the exact per-node path instead.
See ``docs/FLEET.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.energy_audit import EnergyAudit, audit_node
from ..core.node import PicoCube
from ..errors import ConfigurationError, ElectricalError, SimulationError
from ..mcu.msp430 import Mode
from ..sim.recorder import PowerRecorder
from ..storage.nimh import (
    LOW_SOC,
    RATED_TEMPERATURE_C,
    cold_factor,
    low_soc_factor,
    segment_ocv,
    self_discharge_exponent,
    self_discharge_loss,
)
from ..units import left_sum
from .fleet import (
    AirTimes,
    FleetChannel,
    check_finite,
    check_lane_degradation,
    fleet_node_config,
    phase_node,
)
from .packet import crc8

__all__ = [
    "CohortFallback",
    "CohortRun",
    "CohortSpec",
    "advance_cohort",
]


class CohortFallback(SimulationError):
    """The cohort fast path cannot reproduce this scenario bit-exactly.

    Raised when a cohort meets something the vectorized chain does not
    model (chargers, brownout risk, probe/chain divergence, ...).  The
    fleet engine catches it and reruns the scenario per-node — slower,
    never wrong.
    """


@dataclasses.dataclass(frozen=True)
class CohortSpec:
    """One batch of fleet nodes sharing a (topology, config) signature.

    ``node_indices`` are global 0-based fleet slots (they set each
    node's on-air id and the logical id on its air-time records);
    ``offsets`` are the wake phases :func:`repro.net.fleet.fleet_offsets`
    produced for those slots.  The optional per-lane multiplier tuples
    mirror the post-construction fault knobs of the scalar node
    (``battery.set_esr_multiplier``, ``set_self_discharge_multiplier``,
    ``train.set_degradation``) and default to healthy (all ``1.0``).
    """

    node_indices: Tuple[int, ...]
    offsets: Tuple[float, ...]
    duration_s: float
    power_train: str = "cots"
    line_code: str = "nrz"
    esr_multipliers: Optional[Tuple[float, ...]] = None
    self_discharge_multipliers: Optional[Tuple[float, ...]] = None
    loss_factors: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.node_indices:
            raise ConfigurationError("cohort needs at least one node")
        if len(self.offsets) != len(self.node_indices):
            raise ConfigurationError("need one wake offset per cohort node")
        check_finite("duration_s", self.duration_s)
        check_finite("offsets", *self.offsets)
        if self.duration_s <= 0.0:
            raise ConfigurationError("cohort duration must be positive")
        for name in ("esr_multipliers", "self_discharge_multipliers",
                     "loss_factors"):
            values = getattr(self, name)
            if values is not None and len(values) != len(self.node_indices):
                raise ConfigurationError(
                    f"{name} must have one entry per cohort node"
                )
        check_lane_degradation(
            self.power_train, self.esr_multipliers,
            self.self_discharge_multipliers, self.loss_factors,
        )

    @property
    def node_count(self) -> int:
        """Number of lanes in the cohort."""
        return len(self.node_indices)

    def lane_multipliers(self, name: str) -> np.ndarray:
        """Per-lane multiplier array for one degradation knob (1.0 = healthy)."""
        values = getattr(self, name)
        if values is None:
            return np.ones(self.node_count)
        return np.array(values, dtype=float)


@dataclasses.dataclass
class CohortRun:
    """Result of advancing one cohort: channel records plus final state.

    ``charge``/``i_battery``/``cycle_starts``/``packets`` are ``(n,)``
    arrays over the cohort's lanes; :meth:`audit` lazily materializes a
    per-node :class:`~repro.core.energy_audit.EnergyAudit` by re-running
    the (width-independent) chain for that single lane and replaying its
    recorder stream through the real audit code.
    """

    spec: CohortSpec
    records: AirTimes
    charge: np.ndarray
    i_battery: np.ndarray
    cycle_starts: np.ndarray
    packets: np.ndarray
    _machine: "_CohortMachine" = dataclasses.field(repr=False)
    _audits: Dict[int, EnergyAudit] = dataclasses.field(
        default_factory=dict, repr=False
    )

    @property
    def node_count(self) -> int:
        """Number of lanes in the cohort."""
        return self.spec.node_count

    def audit(self, position: int) -> EnergyAudit:
        """Energy audit for the lane at ``position`` (0-based, cached)."""
        if not 0 <= position < self.node_count:
            raise ConfigurationError(
                f"lane {position} outside cohort of {self.node_count}"
            )
        if position not in self._audits:
            self._audits[position] = self._machine.audit_lane(position)
        return self._audits[position]


def advance_cohort(spec: CohortSpec) -> CohortRun:
    """Advance a cohort on the vectorized fast path, probe-verified.

    Builds the cycle template from one real probe node, advances every
    lane through the vectorized event chain, then runs
    the probe event-by-event and compares it bitwise against the
    chain's first lane (state, timings, packet frames, and the full
    recorder trace).  Raises :class:`CohortFallback` if the scenario is
    ineligible or any comparison fails; the result is then obtained by
    per-node stepping instead.
    """
    machine = _CohortMachine(spec)
    machine.run_probe()
    full = machine.advance(np.arange(spec.node_count))
    machine.verify(full)
    return CohortRun(
        spec=spec,
        records=machine.build_records(full),
        charge=full.charge,
        i_battery=full.i_battery,
        cycle_starts=full.starts,
        packets=full.packets,
        _machine=machine,
    )


# -- internals ---------------------------------------------------------------


class _Clock:
    """Minimal engine stand-in (just ``now``) for replaying recorders."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now


@dataclasses.dataclass
class _AuditView:
    """Duck-typed node facade feeding a replayed recorder to audit_node."""

    engine: _Clock
    recorder: PowerRecorder
    cycles_completed: int
    brownout_events: list
    resets: int


@dataclasses.dataclass(frozen=True)
class _Update:
    """One electrical re-solve inside the cycle (a ``_set_*`` call)."""

    i_mcu: float
    i_sensor: float
    i_radio_digital: float
    i_radio_rf: float
    radio_gate: bool
    rf_payload: bool = False  # radio-rf current is the per-lane OOK average


@dataclasses.dataclass(frozen=True)
class _Step:
    """One generator resumption: a delay, then zero or more updates."""

    delay: Optional[float]  # None for the wake instant itself
    updates: Tuple[_Update, ...]
    commits_packet: bool = False


@dataclasses.dataclass
class _ChainState:
    """Final per-lane state of one chain run."""

    charge: np.ndarray
    i_battery: np.ndarray
    starts: np.ndarray
    packets: np.ndarray
    stream: Optional[List[Tuple[float, List[Tuple[str, float]]]]]


#: Distinct exponents :func:`_scalar_pow` peels off with ``==`` masks
#: before it sorts the rest.
_POW_PEEL_LIMIT = 8


class _Lanes:
    """Per-lane state and scratch buffers of one chain run.

    Allocated once per :meth:`_CohortMachine.advance` and updated in
    place every step (``out=``, masked ``copyto``, and the shared
    formulas' augmented assignments), so the chain does not allocate
    per step.  ``scratch`` rows are shared by the sync (dt/exponent,
    needed, after, keep/lost) and the update (v, i) temporaries;
    ``ocv``/``resistance`` hold the current step's cell read (``ocv``
    holds the soc until the OCV overwrites it).
    """

    def __init__(self, n: int, charge0: float, i_battery0: float) -> None:
        self.charge = np.full(n, charge0)
        self.i_battery = np.full(n, i_battery0)
        self.last_sync = np.zeros(n)
        self.t = np.empty(n)
        self.ocv = np.empty(n)
        self.resistance = np.empty(n)
        self.scratch = tuple(np.empty((4, n)))
        self.mask = np.empty(n, dtype=bool)
        self.flags = tuple(np.empty((2, n), dtype=bool))


def _scalar_pow(base: float, exponents: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """``base ** x`` elementwise using CPython's float pow.

    The scalar battery computes self-discharge decay with Python's
    ``**``; numpy's vectorized ``power`` may route through a different
    libm and drift by an ulp, so every value is one Python pow per
    distinct exponent.  Lanes share a few exponents (same step delays,
    few accelerations), so up to :data:`_POW_PEEL_LIMIT` distinct values
    are peeled off with one ``==`` mask each; whatever is left (the first
    sync after t = 0 has an exponent per lane; NaN equals nothing) is
    resolved with one sort (``np.unique``).  ``==`` merges only 0.0 and
    -0.0, whose powers are both exactly 1.0.  ``out`` (flat, float64,
    not ``exponents`` itself) receives the result if given.
    """
    flat = exponents.ravel()
    result = np.empty(flat.shape) if out is None else out
    done = np.zeros(flat.shape, dtype=bool)
    same = np.empty(flat.shape, dtype=bool)
    first = 0
    for _ in range(_POW_PEEL_LIMIT if flat.size else 0):
        value = float(flat[first])
        if value != value:
            break
        np.equal(flat, value, out=same)
        np.copyto(result, base ** value, where=same)
        done |= same
        first = int(done.argmin())
        if done[first]:
            return result.reshape(exponents.shape)
    rest = ~done
    unique, inverse = np.unique(flat[rest], return_inverse=True)
    result[rest] = np.array([base ** float(x) for x in unique])[inverse]
    return result.reshape(exponents.shape)


def _same_float(a: float, b: float) -> bool:
    """Bitwise float equality (hex compare: distinguishes -0.0, NaN)."""
    return float(a).hex() == float(b).hex()


class _CohortMachine:
    """Template extraction + vectorized advance for one cohort."""

    def __init__(self, spec: CohortSpec) -> None:
        self.spec = spec
        probe = PicoCube(fleet_node_config(
            spec.node_indices[0], spec.power_train, spec.line_code
        ))
        self.probe = probe
        self._check_eligibility(probe)
        # -- state shared by every lane at t=0 (the constructor's solve
        # runs before any degradation knob can be touched, so it is
        # identical across the cohort; copy it straight off the probe).
        self.charge0 = probe.battery.charge
        self.i_battery0 = probe._i_battery
        self.init_rows = [
            (name, trace.current)
            for name, trace in probe.recorder._channels.items()
        ]
        # -- component constants (same objects the scalar path queries).
        self.period = probe.sensor.wake_period_s
        self.end = probe.engine.now + spec.duration_s
        rail = probe.train.mcu_rail_voltage()
        ambient = probe.ambient_c()
        i_active = probe.mcu.current(rail, Mode.ACTIVE, temperature_c=ambient)
        i_lpm0 = probe.mcu.current(rail, Mode.LPM0, temperature_c=ambient)
        i_lpm3 = probe.mcu.current(rail, Mode.LPM3, temperature_c=ambient)
        if not _same_float(i_lpm3, probe._i_mcu):
            raise CohortFallback("probe sleep current disagrees with template")
        i_sleep = probe.sensor.i_sleep
        i_measure = probe.sensor.i_measure
        i_dig = probe.tx.i_digital
        i_rf_on = probe.tx.i_rf_on
        # -- the probe cell's parameters (its formulas are shared).
        battery = probe.battery
        self.capacity = battery.capacity_coulombs
        self.r_mid = battery.r_internal_mid
        self.temperature_c = battery.temperature_c
        self.retention = battery.monthly_retention
        # The cell's OCV segment rows, and as an array for the search.
        self.segments = battery._ocv_segments
        self.segment_table = np.array(self.segments)
        accel_base = battery._self_discharge_acceleration()
        # -- per-lane degradation (post-construction contract: applied
        # after the t=0 solve, exactly like the scalar fault knobs).
        self.accel = accel_base * spec.lane_multipliers(
            "self_discharge_multipliers"
        )
        self.esr = spec.lane_multipliers("esr_multipliers")
        self.loss = spec.lane_multipliers("loss_factors")
        # -- cycle timing template (each value is one scalar yield).
        path = lambda name: probe.firmware.path(name).duration(probe.mcu)
        sample_packet = probe._encode(
            probe.sensor.read(probe.environment, probe.engine.now)
        )
        self.n_frame_bits = sample_packet.bit_count
        n_air_bits = len(probe._line_code_bits(sample_packet))
        self.n_air_bits = n_air_bits
        delays = (
            probe.mcu.wakeup_time_s + path("wake"),
            path("sensor-config"),
            probe.sensor.sample_duration(),
            path("sample-read"),
            path("format-packet"),
            path("radio-setup") + probe.spi.transfer_time(16),
            probe.config.pa_sequencing_delay_s,
            probe.tx.startup_time(),
            probe.modulator.duration(n_air_bits),
            path("transmit-supervise") + path("sleep-entry"),
        )
        if left_sum(delays) >= self.period:
            raise CohortFallback("sample cycle does not fit the wake period")
        u = _Update
        steps: Tuple[_Step, ...] = (
            _Step(None, (u(i_active, i_sleep, 0.0, 0.0, False),)),
            _Step(delays[0], ()),
            _Step(delays[1], (u(i_active, i_measure, 0.0, 0.0, False),
                              u(i_lpm0, i_measure, 0.0, 0.0, False))),
            _Step(delays[2], (u(i_lpm0, i_sleep, 0.0, 0.0, False),
                              u(i_active, i_sleep, 0.0, 0.0, False))),
            _Step(delays[3], ()),
            _Step(delays[4], (u(i_active, i_sleep, i_dig, 0.0, True),)),
            _Step(delays[5], ()),
            _Step(delays[6], (u(i_active, i_sleep, i_dig, i_rf_on, True),)),
            _Step(delays[7], (u(i_active, i_sleep, i_dig, 0.0, True,
                                rf_payload=True),)),
            _Step(delays[8], (u(i_active, i_sleep, i_dig, 0.0, True),
                              u(i_active, i_sleep, 0.0, 0.0, True))),
            _Step(delays[9], (u(i_lpm3, i_sleep, 0.0, 0.0, False),),
                  commits_packet=True),
        )
        # -- step table: each update's load mapping is built once; the
        # payload update's RF current is filled in per cycle.
        self.step_table = tuple(
            (step.delay,
             tuple((update, {"mcu": update.i_mcu,
                             "sensor": update.i_sensor,
                             "radio-digital": update.i_radio_digital,
                             "radio-rf": update.i_radio_rf})
                   for update in step.updates),
             step.commits_packet)
            for step in steps
        )
        # -- per-lane wake epochs: phase_node arms the timer with
        # first_delay = period + offset at now = 0, so the k-th wake
        # lands at exactly epoch + k * period.
        offsets = np.array(spec.offsets, dtype=float)
        self.epochs = probe.engine.now + (self.period + offsets)
        self.nids = np.array(
            [(k + 1) % 256 for k in spec.node_indices], dtype=np.int64
        )
        self._popcount = np.array(
            [bin(value).count("1") for value in range(256)], dtype=np.int64
        )
        self._crc_table = np.array(
            [crc8(bytes([value])) for value in range(256)], dtype=np.int64
        )
        # Payload variants are captured from the probe run (run_probe).
        self._variants: List[bytes] = []
        self._variant_const_ones: List[int] = []
        # Arm the probe exactly like FleetChannel arms fleet members.
        probe.battery.set_esr_multiplier(float(self.esr[0]))
        probe.battery.set_self_discharge_multiplier(
            float(spec.lane_multipliers("self_discharge_multipliers")[0])
        )
        probe.train.set_degradation(float(self.loss[0]))
        phase_node(probe, float(offsets[0]), period=self.period)

    @staticmethod
    def _check_eligibility(probe: PicoCube) -> None:
        config = probe.config
        if config.sensor_kind != "tpms":
            raise CohortFallback("cohort chain models TPMS firmware only")
        if config.fidelity != "fast":
            raise CohortFallback("profile RF fidelity needs per-node stepping")
        if config.fast_forward or config.brownout_recovery:
            raise CohortFallback("node accelerator/recovery options unsupported")

    # -- probe -------------------------------------------------------------

    def run_probe(self) -> None:
        """Run the probe node event-by-event and extract packet variants."""
        probe = self.probe
        probe.engine.run_until(self.end)
        probe._sync_battery()
        if probe.browned_out or probe.brownout_events:
            raise CohortFallback("probe browned out; fleet is at brownout risk")
        if probe.resets or probe.packets_corrupted:
            raise CohortFallback("probe saw resets or corrupted packets")
        if len(probe.packets_sent) < 2:
            raise CohortFallback(
                "need at least two probe cycles to template the payload"
            )
        # Cycle 0 reports the sensor's cold supply word; every later
        # cycle reports the measured rail.  Two variants cover the run.
        for packet in probe.packets_sent[:2]:
            frame = packet.to_bytes()
            body = packet.body()
            crc = 0
            for byte in body:
                crc = int(self._crc_table[crc ^ byte])
            if crc != frame[-1]:
                raise CohortFallback("CRC table chain disagrees with crc8")
            const = sum(
                int(self._popcount[byte])
                for index, byte in enumerate(frame)
                if index not in (3, 5, len(frame) - 1)
            )
            ones = (
                const
                + int(self._popcount[frame[3]])
                + int(self._popcount[frame[5]])
                + int(self._popcount[frame[-1]])
            )
            if ones != sum(packet.to_bits()):
                raise CohortFallback("ones-count model disagrees with frame")
            self._variants.append(bytes(body))
            self._variant_const_ones.append(const)
        for cycle, packet in enumerate(probe.packets_sent):
            if packet.to_bytes() != self._lane_frame(0, cycle):
                raise CohortFallback(
                    f"probe packet {cycle} deviates from the cycle template"
                )

    def _variant_for(self, cycle: int) -> int:
        return 0 if cycle == 0 else 1

    def _lane_frame(self, position: int, cycle: int) -> bytes:
        """Reconstruct the exact frame lane ``position`` sends on ``cycle``."""
        body = bytearray(self._variants[self._variant_for(cycle)])
        body[0] = int(self.nids[position])
        body[2] = cycle & 0xFF
        crc = 0
        for byte in body:
            crc = int(self._crc_table[crc ^ byte])
        return bytes([0xAA, 0xAA, 0x7E]) + bytes(body) + bytes([crc])

    def _payload_rf_current(
        self, nids: np.ndarray, cycle: int
    ) -> np.ndarray:
        """Per-lane OOK average RF current for the payload segment.

        The transmitter's ``ook_rf_current`` of each lane's mark
        density, computed analytically: the frame differs across lanes
        only in the id byte and the CRC it drags along, so the ones
        count is a popcount chain over those bytes.
        """
        variant = self._variant_for(cycle)
        body = self._variants[variant]
        seq = cycle & 0xFF
        crc = self._crc_table[nids]
        for byte in body[1:2]:  # kind
            crc = self._crc_table[crc ^ byte]
        crc = self._crc_table[crc ^ seq]
        for byte in body[3:]:  # length + payload words
            crc = self._crc_table[crc ^ byte]
        ones = (
            self._variant_const_ones[variant]
            + self._popcount[nids]
            + int(self._popcount[seq])
            + self._popcount[crc]
        )
        if self.spec.line_code == "manchester":
            # Manchester emits exactly one mark chip per frame bit.
            fraction = self.n_frame_bits / self.n_air_bits
            fraction = np.full(nids.shape, fraction)
        else:
            fraction = ones / self.n_air_bits
        return self.probe.tx.ook_rf_current(fraction)

    # -- the cell ----------------------------------------------------------

    def _read_cell(self, lanes: "_Lanes", esr: np.ndarray) -> None:
        """Each lane's OCV and resistance into ``lanes.ocv``/``resistance``:
        ``NiMHCell.open_circuit_voltage`` and ``internal_resistance``'s
        selections around the same :mod:`repro.storage.nimh` formulas.

        Lanes drain in near lockstep, so usually every soc falls in one
        OCV segment: its scalars then replace the per-lane search and
        gathers, and with no soc below ``LOW_SOC`` the resistance is
        ``r_mid`` for every lane.  The formulas run on the same operand
        values either way, so each lane's bits do not depend on which
        path ran.
        """
        soc = np.divide(lanes.charge, self.capacity, out=lanes.ocv)
        lo, hi = soc.min(), soc.max()
        upper = self.segment_table[:, 0]
        last = len(upper) - 1
        # The segment search is monotone, so when the extremes share a
        # segment every lane does (a NaN soc takes the per-lane search).
        segment = np.minimum(np.searchsorted(upper, (lo, hi), side="left"),
                             last)
        if lo == lo and hi == hi and segment[0] == segment[1]:
            _, s0, v0, width, rise = self.segments[int(segment[0])]
        else:
            segment = np.minimum(np.searchsorted(upper, soc, side="left"),
                                 last)
            _, s0, v0, width, rise = self.segment_table[segment].T
        if lo >= LOW_SOC:
            resistance = self.r_mid
        else:
            resistance = np.where(soc < LOW_SOC,
                                  self.r_mid * low_soc_factor(soc),
                                  self.r_mid)
        if self.temperature_c < RATED_TEMPERATURE_C:
            resistance = resistance * cold_factor(self.temperature_c)
        np.multiply(resistance, esr, out=lanes.resistance)
        segment_ocv(soc, s0, v0, width, rise)  # soc becomes the OCV

    def _sync(
        self,
        lanes: "_Lanes",
        t,
        mask: np.ndarray,
        accel: np.ndarray,
    ) -> None:
        """``PicoCube._sync_battery`` over the lane axis."""
        charge, i_battery = lanes.charge, lanes.i_battery
        dt, needed, after, keep = lanes.scratch
        positive, flag = lanes.flags
        np.subtract(t, lanes.last_sync, out=dt)
        np.greater(dt, 0.0, out=positive)
        positive &= mask
        if positive.any():
            np.multiply(i_battery, dt, out=needed)
            np.greater_equal(needed, charge, out=flag)
            flag &= positive
            if flag.any() and (flag & (i_battery > 0.0)).any():
                raise CohortFallback(
                    "a lane would brown out; falling back to per-node stepping"
                )
            # The check above leaves charge >= needed on every lane that
            # moves, so ``discharge``'s clamp at empty never binds here.
            np.subtract(charge, needed, out=after)
            exponent = self_discharge_exponent(dt, accel)
            _scalar_pow(self.retention, exponent, out=keep)
            after -= self_discharge_loss(keep, after)
            np.copyto(charge, after, where=positive)
        np.copyto(lanes.last_sync, t, where=mask)

    # -- the chain ---------------------------------------------------------

    def advance(
        self, lanes: np.ndarray, capture: bool = False
    ) -> _ChainState:
        """Advance a lane subset through the whole run.

        Every operation is elementwise over the lane axis, so results
        are independent of the subset width — the property that lets
        one verified probe lane vouch for the full cohort, and lets
        :meth:`audit_lane` re-run a single lane bit-identically.  The
        per-lane state and temporaries live in one :class:`_Lanes` set
        of buffers, updated in place every step.
        """
        lanes = np.asarray(lanes)
        if capture and lanes.size != 1:
            raise ConfigurationError("record capture needs a single lane")
        n = lanes.size
        train = self.probe.train
        state = _Lanes(n, self.charge0, self.i_battery0)
        t, mask = state.t, state.mask
        starts = np.zeros(n, dtype=np.int64)
        packets = np.zeros(n, dtype=np.int64)
        epochs = self.epochs[lanes]
        accel = self.accel[lanes]
        esr = self.esr[lanes]
        loss = self.loss[lanes]
        nids = self.nids[lanes]
        stream: Optional[List[Tuple[float, List[Tuple[str, float]]]]] = None
        if capture:
            stream = [(0.0, list(self.init_rows))]
        end = self.end
        if train.radio_enabled:
            train.disable_radio()
        try:
            cycle = 0
            while True:
                np.add(epochs, cycle * self.period, out=t)
                np.less_equal(t, end, out=mask)
                if not mask.any():
                    break
                starts += mask
                for delay, updates, commits_packet in self.step_table:
                    if delay is not None:
                        t += delay
                    np.less_equal(t, end, out=mask)
                    if updates and mask.any():
                        self._sync(state, t, mask, accel)
                        self._read_cell(state, esr)
                        for update, loads in updates:
                            if update.radio_gate != train.radio_enabled:
                                if update.radio_gate:
                                    train.enable_radio()
                                else:
                                    train.disable_radio()
                            if update.rf_payload:
                                loads = dict(loads)
                                loads["radio-rf"] = self._payload_rf_current(
                                    nids, cycle
                                )
                            v, i = self._battery_current(train, loads,
                                                         state, loss)
                            np.copyto(state.i_battery, i, where=mask)
                            if capture and bool(mask[0]):
                                stream.append((float(t[0]), self._rows(
                                    train, update, loads, v, i)))
                    if commits_packet:
                        packets += mask
                cycle += 1
            # FleetChannel.advance syncs every node once more at the horizon.
            mask.fill(True)
            self._sync(state, end, mask, accel)
        finally:
            if train.radio_enabled:
                train.disable_radio()
        return _ChainState(state.charge, state.i_battery, starts, packets,
                           stream)

    @staticmethod
    def _battery_current(
        train, loads: Dict[str, object], lanes: "_Lanes", loss: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``PicoCube._update``'s two fixed-point passes over the lanes.

        Each pass sags the step's cell read by the battery current
        (``ocv - i * r``), solves the train in one batch and applies the
        lane's loss factor, as ``GraphPowerTrain.solve`` does with a
        non-zero ``resistance``.  Returns the
        second pass's battery voltage and the new current, in ``lanes``
        buffers.
        """
        ocv, resistance = lanes.ocv, lanes.resistance
        v, i = lanes.scratch[1], lanes.scratch[2]
        # Each solution is dropped as soon as its current is read, so
        # the next solve reuses its memory.
        try:
            np.multiply(lanes.i_battery, resistance, out=v)
            np.subtract(ocv, v, out=v)
            np.multiply(train.solve_graph_batch(v, loads).i_source, loss,
                        out=i)
            np.multiply(i, resistance, out=v)
            np.subtract(ocv, v, out=v)
            np.multiply(train.solve_graph_batch(v, loads).i_source, loss,
                        out=i)
        except ElectricalError as exc:
            raise CohortFallback(f"batch solve left the envelope: {exc}")
        return v, i

    @staticmethod
    def _rows(train, update: _Update, loads: Dict[str, object],
              v: np.ndarray, i: np.ndarray) -> List[Tuple[str, float]]:
        """Lane 0's recorder rows for one update, from the train's own
        :meth:`~repro.core.power_train.GraphPowerTrain.solution`."""
        i_rf = loads["radio-rf"]
        solution = train.solution(
            float(v[0]), float(i[0]),
            update.i_mcu, update.i_sensor, update.i_radio_digital,
            float(i_rf[0]) if update.rf_payload else i_rf,
        )
        return [*solution.subsystem_power.items(),
                ("power-management", solution.p_management)]

    # -- results -----------------------------------------------------------

    def build_records(self, state: _ChainState) -> AirTimes:
        """Air-time records for every committed packet, in node order.

        Burst ``seq`` of a lane starts at ``(epoch + seq * period) +
        offset``, the same operations the stepped node performs.
        """
        probe = self.probe
        offset = FleetChannel._transmit_offset(probe)
        on_air = probe.tx.startup_time() + probe.modulator.duration(
            self.n_air_bits
        )
        counts = state.packets
        lanes = np.repeat(np.arange(len(counts)), counts)
        seq = np.arange(len(lanes)) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
        start = (self.epochs[lanes] + (seq * self.period)) + offset
        node_ids = np.array(self.spec.node_indices, dtype=np.int64) + 1
        return AirTimes(node_ids[lanes], seq, start, start + on_air)

    def replay_recorder(
        self, stream: Sequence[Tuple[float, Sequence[Tuple[str, float]]]]
    ) -> Tuple[PowerRecorder, _Clock]:
        """Feed a captured record stream through a real PowerRecorder."""
        clock = _Clock(0.0)
        recorder = PowerRecorder(clock)
        for time, rows in stream:
            clock.now = time
            for channel, watts in rows:
                recorder.record(channel, watts)
        clock.now = self.end
        return recorder, clock

    def audit_lane(self, position: int) -> EnergyAudit:
        """Re-run one lane with record capture and audit it for real."""
        state = self.advance(np.array([position]), capture=True)
        recorder, clock = self.replay_recorder(state.stream)
        view = _AuditView(
            engine=clock,
            recorder=recorder,
            cycles_completed=int(state.packets[0]),
            brownout_events=[],
            resets=0,
        )
        return audit_node(view)

    # -- verification ------------------------------------------------------

    def verify(self, full: _ChainState) -> None:
        """Compare chain lane 0 bitwise against the event-stepped probe.

        Also cross-checks the full-width run against a width-1 re-run of
        the same lane, which enforces the elementwise width-independence
        the whole contract rests on.  Any discrepancy at all raises
        :class:`CohortFallback`.
        """
        probe = self.probe
        sub = self.advance(np.array([0]), capture=True)
        checks = [
            (full.charge[0], sub.charge[0]),
            (full.i_battery[0], sub.i_battery[0]),
            (probe.battery.charge, sub.charge[0]),
            (probe._i_battery, sub.i_battery[0]),
        ]
        for expected, got in checks:
            if not _same_float(expected, got):
                raise CohortFallback("probe/chain battery state mismatch")
        if int(full.starts[0]) != int(sub.starts[0]) or int(
            full.packets[0]
        ) != int(sub.packets[0]):
            raise CohortFallback("probe/chain cycle count mismatch")
        if len(probe.cycle_start_times) != int(sub.starts[0]):
            raise CohortFallback("probe/chain cycle count mismatch")
        epoch = float(self.epochs[0])
        for k, start in enumerate(probe.cycle_start_times):
            if not _same_float(start, epoch + (k * self.period)):
                raise CohortFallback("probe/chain wake timing mismatch")
        if len(probe.packets_sent) != int(sub.packets[0]):
            raise CohortFallback("probe/chain packet count mismatch")
        recorder, _ = self.replay_recorder(sub.stream)
        if recorder.channel_names() != probe.recorder.channel_names():
            raise CohortFallback("probe/chain recorder channels mismatch")
        for name in recorder.channel_names():
            ours = recorder.channel(name).breakpoints()
            theirs = probe.recorder.channel(name).breakpoints()
            if len(ours) != len(theirs):
                raise CohortFallback(f"trace length mismatch on {name!r}")
            for (t_a, v_a), (t_b, v_b) in zip(ours, theirs):
                if not (_same_float(t_a, t_b) and _same_float(v_a, v_b)):
                    raise CohortFallback(f"trace mismatch on {name!r}")
