"""Multi-node fleet simulation: the dense-deployment motivation of §1.

"Sensing systems will become ubiquitous, and will be embedded in everyday
materials and surfaces often in very dense collaborative networks."

PicoCubes are transmit-only and uncoordinated, so a dense deployment is a
pure-ALOHA channel: two transmissions overlapping in time at the receiver
collide.  :class:`FleetChannel` runs many nodes on one shared engine,
records every burst's air time, resolves collisions, and reports the
goodput/density curve — which quantifies how many 6-second beacons one
receiver can actually serve, and where the paper's single-channel OOK
design runs out of density headroom.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.config import NodeConfig
from ..core.node import PicoCube
from ..core.power_train import make_power_train
from ..errors import ConfigurationError, StorageError
from ..sim.engine import Engine
from ..storage.nimh import NiMHCell

BEACON_PERIOD_S = 6.0
"""The cube's wake/beacon period: one transmission every six seconds."""


def fleet_node_config(
    node_index: int, power_train: str = "cots", line_code: str = "nrz"
) -> NodeConfig:
    """Node configuration for fleet slot ``node_index`` (0-based).

    Packet node ids are one byte on the air, so mega-fleets wrap the
    transmitted id modulo 256; channel bookkeeping (collision keys,
    :class:`AirTimeRecord`) uses the unique 1-based *logical* id
    ``node_index + 1`` instead, which never wraps.
    """
    return NodeConfig(
        node_id=(node_index + 1) % 256,
        power_train=power_train,
        line_code=line_code,
    )


def phase_node(node: PicoCube, offset: float,
               period: float = BEACON_PERIOD_S) -> None:
    """Arm ``node`` so its first wake lands at ``period + offset``.

    This is the exact start/re-arm sequence :class:`FleetChannel` applies
    to every node; the cohort engine's probe node goes through the same
    call so both paths share one wake-time arithmetic.
    """
    node.start()
    node._wake_timer.stop()
    node._wake_timer.start(first_delay=period + offset)


def check_finite(name: str, *values: float) -> None:
    """Reject NaN and infinite fleet inputs with one error, before either
    engine starts (a NaN phase or horizon never fires or never ends)."""
    for value in values:
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")


def uniform_phases(count: int, rng: random.Random) -> List[float]:
    """``count`` wake phases drawn uniformly over one beacon period.

    The one seeded phase draw: the fleet engine's ``phase_seed`` and the
    E21 campaign both call it, so equal RNG states give equal fleets on
    every path.
    """
    return [rng.uniform(0.0, BEACON_PERIOD_S) for _ in range(count)]


def fleet_offsets(
    node_count: int,
    stagger_s: Optional[float] = None,
    phases: Optional[List[float]] = None,
) -> List[float]:
    """Wake-timer offsets for a fleet, reduced modulo the beacon period.

    Explicit ``phases`` (e.g. random, for ALOHA studies) win; otherwise a
    deterministic stagger spreads the period (clustered if tiny — the
    worst case), defaulting to ``period / node_count``.
    """
    period = BEACON_PERIOD_S
    if phases is not None:
        if len(phases) != node_count:
            raise ConfigurationError("need one phase per node")
        check_finite("phases", *phases)
        return [p % period for p in phases]
    if stagger_s is None:
        stagger_s = period / node_count
    check_finite("stagger_s", stagger_s)
    return [(k * stagger_s) % period for k in range(node_count)]


@dataclasses.dataclass(frozen=True)
class AirTimeRecord:
    """One node's transmission burst on the shared channel."""

    node_id: int
    seq: int
    start: float
    end: float

    def overlaps(self, other: "AirTimeRecord") -> bool:
        """True when two bursts collide at the receiver."""
        return self.start < other.end and other.start < self.end


@dataclasses.dataclass(frozen=True, eq=False)
class AirTimes:
    """Every burst on the channel as four columns, one row per burst.

    ``node_id`` and ``seq`` are int64, ``start`` and ``end`` float64.
    Iterating or indexing with an int yields :class:`AirTimeRecord`
    rows; indexing with a slice, mask or index array yields a new
    :class:`AirTimes`.  ``==`` compares the columns bitwise.
    """

    node_id: np.ndarray
    seq: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @classmethod
    def of(cls, records: Union["AirTimes", Iterable[AirTimeRecord]]) -> "AirTimes":
        """Columns for ``records``; an :class:`AirTimes` passes through."""
        if isinstance(records, AirTimes):
            return records
        rows = list(records)
        return cls(
            np.array([r.node_id for r in rows], dtype=np.int64),
            np.array([r.seq for r in rows], dtype=np.int64),
            np.array([r.start for r in rows], dtype=np.float64),
            np.array([r.end for r in rows], dtype=np.float64),
        )

    @classmethod
    def concat(cls, parts: Sequence["AirTimes"]) -> "AirTimes":
        """Rows of every part in order (``parts`` must not be empty)."""
        return cls(*map(np.concatenate, zip(*(p.columns for p in parts))))

    @property
    def columns(self) -> Tuple[np.ndarray, ...]:
        """``(node_id, seq, start, end)``."""
        return (self.node_id, self.seq, self.start, self.end)

    def sorted(self) -> "AirTimes":
        """Rows by start time; ties keep their order, as ``list.sort``."""
        return self[np.argsort(self.start, kind="stable")]

    def __len__(self) -> int:
        return len(self.start)

    def __iter__(self) -> Iterator[AirTimeRecord]:
        for row in zip(*(column.tolist() for column in self.columns)):
            yield AirTimeRecord(*row)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return AirTimeRecord(*(c[index].item() for c in self.columns))
        return AirTimes(*(column[index] for column in self.columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AirTimes):
            return NotImplemented
        return all(
            mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
            for mine, theirs in zip(self.columns, other.columns)
        )


def check_noise_windows(noise_windows: Sequence[Tuple[float, float]]) -> None:
    """Reject any noise window that is not ``0 <= lo < hi``."""
    for lo, hi in noise_windows:
        if not 0.0 <= lo < hi:
            raise ConfigurationError(f"invalid noise window [{lo}, {hi}]")


def check_lane_degradation(
    power_train: str,
    esr_multipliers: Optional[Sequence[float]],
    self_discharge_multipliers: Optional[Sequence[float]],
    loss_factors: Optional[Sequence[float]],
) -> None:
    """Reject per-node degradation values the scalar fault setters reject.

    The per-node path arms node after node through
    ``battery.set_esr_multiplier``, ``set_self_discharge_multiplier`` and
    ``train.set_degradation``; a cohort arms only its probe lane.  This
    runs those same setters (on a scratch cell and train) over every
    value, so both engines raise the same error for the same first
    failing node.
    """
    cell = NiMHCell()
    knobs = [
        (values, setter) for values, setter in (
            (esr_multipliers, cell.set_esr_multiplier),
            (self_discharge_multipliers, cell.set_self_discharge_multiplier),
        ) if values is not None
    ]
    if loss_factors is not None:
        knobs.append((loss_factors,
                      make_power_train(power_train).set_degradation))
    try:
        for values, setter in knobs:
            for value in set(values):
                setter(value)
    except (StorageError, ConfigurationError):
        # Some value fails: raise for the first node in per-node order.
        for node in range(len(knobs[0][0])):
            for values, setter in knobs:
                setter(values[node])
        raise


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Retransmit policy for bursts lost to injected channel noise.

    Attempt ``k`` (1-based) goes on the air ``backoff_s * 2**(k-1)`` plus
    a seeded uniform jitter in ``[0, jitter_s)`` after the previous
    attempt ended — exponential backoff with enough scatter to break the
    lockstep that doomed the original burst.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    jitter_s: float = 0.02

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ConfigurationError("max_retries must be >= 1")
        check_finite("retry timing", self.backoff_s, self.jitter_s)
        if self.backoff_s <= 0.0 or self.jitter_s < 0.0:
            raise ConfigurationError("invalid retry timing")


@dataclasses.dataclass
class FleetStats:
    """Channel-level outcome of a fleet run."""

    transmitted: int = 0
    collided: int = 0
    lost_to_noise: int = 0
    retries: int = 0
    recovered: int = 0

    @property
    def delivered(self) -> int:
        """Bursts whose payload arrived clean (retries included)."""
        return (
            self.transmitted - self.collided - self.lost_to_noise
            + self.recovered
        )

    @property
    def collision_rate(self) -> float:
        """Fraction of bursts lost to overlap."""
        if self.transmitted == 0:
            return 0.0
        return self.collided / self.transmitted

    @property
    def loss_rate(self) -> float:
        """Fraction of bursts that never got through, after retries."""
        if self.transmitted == 0:
            return 0.0
        return 1.0 - self.delivered / self.transmitted


class FleetChannel:
    """N uncoordinated PicoCubes sharing one OOK channel (pure ALOHA)."""

    # Class-level fallbacks: subclasses that stub out construction (the
    # collision-sweep regression tests do) still resolve a clean channel.
    noise_windows: Sequence[Tuple[float, float]] = ()
    retry: Optional[RetryPolicy] = None
    retry_seed: int = 2008

    def __init__(
        self,
        node_count: int,
        stagger_s: Optional[float] = None,
        phases: Optional[List[float]] = None,
        power_train: str = "cots",
        noise_windows: Optional[Sequence[Tuple[float, float]]] = None,
        retry: Optional[RetryPolicy] = None,
        retry_seed: int = 2008,
        line_code: str = "nrz",
    ) -> None:
        if node_count < 1:
            raise ConfigurationError("need at least one node")
        check_noise_windows(noise_windows or ())
        self.noise_windows = [tuple(w) for w in noise_windows or ()]
        self.retry = retry
        self.retry_seed = retry_seed
        self.engine = Engine()
        self.nodes: List[PicoCube] = []
        for k in range(node_count):
            node = PicoCube(
                fleet_node_config(k, power_train, line_code),
                engine=self.engine,
            )
            self.nodes.append(node)
        self.offsets = fleet_offsets(node_count, stagger_s, phases)
        self.stagger_s = (
            stagger_s if phases is not None or stagger_s is not None
            else BEACON_PERIOD_S / node_count
        )
        for node, offset in zip(self.nodes, self.offsets):
            phase_node(node, offset)

    def run(self, duration: float) -> FleetStats:
        """Simulate the fleet and resolve channel collisions."""
        self.advance(duration)
        return self.collision_stats()

    def advance(self, duration: float) -> None:
        """Simulate the fleet for ``duration`` seconds, then settle each
        node's battery to the engine clock."""
        self.engine.run_until(self.engine.now + duration)
        for node in self.nodes:
            node._sync_battery()

    # -- channel resolution ----------------------------------------------------

    def air_time_records(self) -> AirTimes:
        """Every burst's (start, end) from each node's cycle bookkeeping.

        A burst occupies the air from the oscillator start to the last
        bit; reconstructed from each packet's own line-coded length and
        the bit rate, anchored at the cycle's transmit phase.  Records
        carry the node's logical id (its 1-based fleet slot), which
        unlike the one-byte on-air id never wraps in mega-fleets.
        """
        records = []
        for index, node in enumerate(self.nodes):
            # The transmit phase starts a fixed offset into each cycle
            # (wake + sensing + formatting); measured once per node type.
            offset = self._transmit_offset(node)
            sent = node.cycle_start_times[: len(node.packets_sent)]
            for seq, (start, packet) in enumerate(
                zip(sent, node.packets_sent)
            ):
                on_air = node.tx.startup_time() + node.modulator.duration(
                    len(node._line_code_bits(packet))
                )
                records.append(
                    AirTimeRecord(
                        node_id=index + 1,
                        seq=seq,
                        start=start + offset,
                        end=start + offset + on_air,
                    )
                )
        return AirTimes.of(records).sorted()

    @staticmethod
    def _transmit_offset(node: PicoCube) -> float:
        fw = node.firmware
        mcu = node.mcu
        cpu = sum(
            fw.path(p).duration(mcu)
            for p in ("wake", "sensor-config", "sample-read", "format-packet",
                      "radio-setup")
            if p in [cp.name for cp in fw.paths()]
        )
        return (
            mcu.wakeup_time_s
            + cpu
            + node.sensor.sample_duration()
            + node.spi.transfer_time(16)
            + node.config.pa_sequencing_delay_s
        )

    def collision_stats(self) -> FleetStats:
        """Sweep the sorted bursts and count overlaps, noise, and retries.

        A plain adjacent-pair check undercounts: one long burst can
        overlap several later ones, and a middle burst can end early
        while the one before it still covers the one after.  The sweep
        therefore tracks the latest-ending active burst: any burst
        starting before that end collides with it (and transitively
        flags the coverer).

        Bursts that survive the collision sweep but fall inside an
        injected noise window are ``lost_to_noise``; with a
        :class:`RetryPolicy` each gets deterministic seeded
        retransmissions (see :func:`model_retries`).
        """
        return resolve_channel(
            self.air_time_records(),
            noise_windows=self.noise_windows,
            retry=self.retry,
            retry_seed=self.retry_seed,
        )


def burst_in_noise(
    record: AirTimeRecord, noise_windows: Sequence[Tuple[float, float]]
) -> bool:
    """True when a burst overlaps any injected noise window."""
    return any(
        record.start < hi and lo < record.end
        for lo, hi in noise_windows
    )


def resolve_channel(
    records: Union[AirTimes, Sequence[AirTimeRecord]],
    noise_windows: Sequence[Tuple[float, float]] = (),
    retry: Optional[RetryPolicy] = None,
    retry_seed: int = 2008,
) -> FleetStats:
    """Resolve sorted air-time records into channel statistics.

    This is the single collision/noise/retry arithmetic shared by the
    per-node :class:`FleetChannel` path and the cohort engine
    (:mod:`repro.net.cohort`): both feed their records through here, so
    their :class:`FleetStats` agree bit for bit by construction.
    ``records`` must be sorted by start time, with finite times (both
    producers sort); anything else raises :class:`ConfigurationError`.

    The collision sweep runs over whole columns.  The active burst
    before row ``i`` is the first row that reached the running maximum
    of ``end`` (a later burst replaces it only by ending strictly
    later); row ``i`` collides with it when it starts before that end.
    Collisions count distinct ``(node_id, seq)`` keys, so a duplicated
    key counts once and all its rows share the collided outcome.
    """
    records = AirTimes.of(records)
    start, end = records.start, records.end
    if not (np.isfinite(start).all() and np.isfinite(end).all()):
        raise ConfigurationError("air-time records need finite times")
    if (start[1:] < start[:-1]).any():
        raise ConfigurationError("air-time records must be sorted by start")
    n = len(records)
    if n == 0:
        return FleetStats()
    reach = np.maximum.accumulate(end)
    rises = np.concatenate(([True], end[1:] > reach[:-1]))
    active = np.maximum.accumulate(np.where(rises, np.arange(n), 0))
    hit = start[1:] < reach[:-1]
    flagged = np.concatenate(([False], hit))
    flagged[active[:-1][hit]] = True
    keys = _burst_keys(records)
    # Keys are >= 0, so the prepended -1 opens the first run of equal
    # sorted keys; each further change of value opens another.
    collided = np.sort(keys[flagged])
    stats = FleetStats(
        transmitted=n,
        collided=int(np.count_nonzero(np.diff(collided, prepend=-1))),
    )
    if not noise_windows:
        return stats
    lo, hi = np.array(noise_windows, dtype=np.float64).reshape(-1, 2).T
    in_noise = ((start[:, None] < hi) & (lo < end[:, None])).any(axis=1)
    clear = ~np.isin(keys, collided)
    noised = clear & in_noise
    stats.lost_to_noise = int(noised.sum())
    if retry is not None and stats.lost_to_noise:
        stats.retries, stats.recovered = model_retries(
            records[noised], records[clear & ~in_noise],
            retry=retry,
            noise_windows=noise_windows,
            retry_seed=retry_seed,
        )
    return stats


def _burst_keys(records: AirTimes) -> np.ndarray:
    """A non-negative int64 per ``(node_id, seq)``, equal iff the pairs are."""
    node_lo, seq_lo = int(records.node_id.min()), int(records.seq.min())
    node_span = int(records.node_id.max()) - node_lo + 1
    seq_span = int(records.seq.max()) - seq_lo + 1
    if node_span * seq_span > np.iinfo(np.int64).max:
        raise ConfigurationError("air-time record keys exceed int64 range")
    return (records.node_id - node_lo) * seq_span + (records.seq - seq_lo)


def model_retries(
    lost: Iterable[AirTimeRecord],
    delivered: Union[AirTimes, Sequence[AirTimeRecord]],
    retry: RetryPolicy,
    noise_windows: Sequence[Tuple[float, float]] = (),
    retry_seed: int = 2008,
) -> Tuple[int, int]:
    """Channel-level retransmission model for noise-lost bursts.

    Each lost burst retries with exponential backoff and jitter from
    an RNG seeded by ``(retry_seed, node_id, seq)`` — a pure function
    of the fleet parameters, so campaign results stay bit-identical
    for any worker count.  Lost bursts are processed in ``(start,
    node_id)`` order, so the outcome is invariant under permutation of
    the ``lost`` list.  A retry succeeds when it clears every noise
    window and does not overlap any already-delivered burst (originals,
    checked as one mask over their columns, or earlier accepted
    retries).  The model is post-hoc: retry energy is not charged to
    the nodes, which keeps the per-node power books identical with and
    without a channel fault schedule.
    """
    delivered = AirTimes.of(delivered)
    accepted: List[AirTimeRecord] = []
    retries = 0
    for record in sorted(lost, key=lambda r: (r.start, r.node_id)):
        rng = random.Random(
            f"{retry_seed}:{record.node_id}:{record.seq}"
        )
        duration = record.end - record.start
        t = record.end
        for attempt in range(1, retry.max_retries + 1):
            t += (
                retry.backoff_s * (2.0 ** (attempt - 1))
                + rng.uniform(0.0, retry.jitter_s)
            )
            candidate = AirTimeRecord(
                node_id=record.node_id,
                seq=record.seq,
                start=t,
                end=t + duration,
            )
            retries += 1
            t = candidate.end
            if burst_in_noise(candidate, noise_windows):
                continue
            if ((delivered.start < candidate.end)
                    & (candidate.start < delivered.end)).any():
                continue
            if any(candidate.overlaps(r) for r in accepted):
                continue
            accepted.append(candidate)
            break
    return retries, len(accepted)


def aloha_prediction(
    node_count: int, burst_s: float, period_s: float = BEACON_PERIOD_S
) -> float:
    """Analytic pure-ALOHA success probability for cross-checking.

    A burst survives if no other node starts within +-burst_s of it:
    ``P = (1 - 2*burst/period)^(N-1)`` for unsynchronised periodic
    beacons (uniform phase).
    """
    if node_count < 1 or burst_s <= 0.0 or period_s <= 0.0:
        raise ConfigurationError("invalid ALOHA parameters")
    exposure = min(2.0 * burst_s / period_s, 1.0)
    return (1.0 - exposure) ** (node_count - 1)
