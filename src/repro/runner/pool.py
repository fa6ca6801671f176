"""Parallel experiment runner: fan a task grid out over a process pool.

Every sweep-style experiment in this repository — topology tables,
Monte-Carlo yield, fleet density, temperature sweeps — is a pure function
evaluated over a grid of parameters.  :class:`Sweep` runs such a grid
over a ``multiprocessing`` pool with:

* **deterministic seeding** — per-task seeds derived from
  ``(base_seed, task_index)`` by :func:`repro.runner.seeding.derive_seed`,
  so results are bit-identical for any worker count or chunking;
* **chunked dispatch** — tasks ship to workers in chunks to amortise IPC;
* **structured failure capture** — a task that raises returns a
  :class:`TaskError` record (type, message, traceback) instead of killing
  the campaign; healthy tasks complete and the caller decides;
* **result reuse** — an optional :class:`~repro.runner.store.ResultStore`
  answers repeated ``(params, seed)`` tasks without recomputation, from
  memory or from disk;
* **metrics** — a :class:`~repro.runner.metrics.CampaignStats` with
  throughput, parallel speedup, and cache hit rate.

The pickling contract: the task function must be importable at module
level (``module.qualname``), and params/results must be picklable.  Task
functions are called ``fn(params)``, or ``fn(params, seed=...)`` when the
sweep was given a ``base_seed``.

:class:`MonteCarlo` layers trial fan-out on top: N calls of
``fn(params, seed=seed_k)`` with independent derived seeds, optionally
reduced to a single statistic.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CampaignError, ConfigurationError
from .metrics import CampaignStats
from .seeding import derive_seed
from .store import ResultStore


@dataclasses.dataclass(frozen=True)
class TaskError:
    """Structured record of one task's failure, captured in the worker."""

    type: str
    message: str
    traceback: str

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.type}: {self.message}"


@dataclasses.dataclass(frozen=True)
class TaskRecord:
    """Outcome of one task of a campaign."""

    index: int
    params: Any
    seed: Optional[int]
    value: Any
    error: Optional[TaskError]
    duration_s: float
    cached: bool = False

    @property
    def ok(self) -> bool:
        """True when the task completed without raising."""
        return self.error is None


def _execute_chunk(payload: Tuple) -> List[TaskRecord]:
    """Run one chunk of task specs inside a worker process.

    Must stay a module-level function (pickled by qualified name).  Every
    exception a task raises is captured into its record; the chunk always
    returns, so one bad grid point cannot take down the campaign.
    """
    fn, specs, pass_seed = payload
    records = []
    for index, params, seed in specs:
        t0 = time.perf_counter()
        try:
            value = fn(params, seed=seed) if pass_seed else fn(params)
            error = None
        except Exception as exc:  # noqa: BLE001 - captured into the record
            value = None
            error = TaskError(
                type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
            )
        records.append(
            TaskRecord(
                index=index,
                params=params,
                seed=seed,
                value=value,
                error=error,
                duration_s=time.perf_counter() - t0,
            )
        )
    return records


@dataclasses.dataclass
class SweepResult:
    """Ordered task records plus campaign metrics."""

    records: List[TaskRecord]
    stats: CampaignStats

    def values(self) -> List[Any]:
        """Task values in grid order; raises if any task failed."""
        self.raise_on_error()
        return [record.value for record in self.records]

    def failures(self) -> List[TaskRecord]:
        """The records of failed tasks (empty when all succeeded)."""
        return [record for record in self.records if not record.ok]

    def raise_on_error(self) -> None:
        """Raise :class:`CampaignError` summarising any failed tasks."""
        failed = self.failures()
        if not failed:
            return
        first = failed[0]
        raise CampaignError(
            f"{len(failed)}/{len(self.records)} tasks failed; first: "
            f"task {first.index} params={first.params!r} -> "
            f"{first.error.type}: {first.error.message}\n{first.error.traceback}"
        )


def default_workers() -> int:
    """Worker count used when none is given: the machine's CPU count."""
    return os.cpu_count() or 1


class Sweep:
    """Evaluate ``fn`` over a parameter grid, optionally in parallel.

    ``workers=1`` (or a single-task grid) runs in-process with identical
    semantics — including seeding — so serial and parallel campaigns are
    bit-identical and the serial path needs no pool start-up.
    """

    def __init__(
        self,
        fn: Callable,
        *,
        name: str = "",
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        base_seed: Optional[int] = None,
        seed_salt: str = "",
        store: Optional["ResultStore"] = None,
        simulated_s_of: Optional[Callable[[Any], float]] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        self.fn = fn
        self.name = name or getattr(fn, "__qualname__", repr(fn))
        self.workers = workers if workers is not None else default_workers()
        self.chunk_size = chunk_size
        self.base_seed = base_seed
        self.seed_salt = seed_salt
        self.store = store
        self.simulated_s_of = simulated_s_of

    # -- execution ---------------------------------------------------------

    def run(self, grid: Sequence[Any]) -> SweepResult:
        """Run every grid point and return ordered records + stats."""
        grid = list(grid)
        t0 = time.perf_counter()
        specs = [
            (
                index,
                params,
                derive_seed(self.base_seed, index, self.seed_salt)
                if self.base_seed is not None
                else None,
            )
            for index, params in enumerate(grid)
        ]

        by_index: Dict[int, TaskRecord] = {}
        cache_hits = 0
        to_run = []
        for spec in specs:
            hit, record = self._cache_lookup(spec)
            if hit:
                by_index[spec[0]] = record
                cache_hits += 1
            else:
                to_run.append(spec)

        for records in self._dispatch(to_run):
            for record in records:
                by_index[record.index] = record
                self._cache_store(record)

        ordered = [by_index[index] for index in range(len(grid))]
        stats = CampaignStats(
            tasks_total=len(grid),
            tasks_ok=sum(1 for r in ordered if r.ok),
            tasks_failed=sum(1 for r in ordered if not r.ok),
            cache_hits=cache_hits,
            workers=self.workers,
            chunk_size=self._chunk_size_for(len(to_run)),
            wall_s=time.perf_counter() - t0,
            task_s=sum(r.duration_s for r in ordered),
            simulated_s=self._simulated_s(ordered),
        )
        return SweepResult(records=ordered, stats=stats)

    # -- internals ---------------------------------------------------------

    def _dispatch(self, specs: List[Tuple]):
        """Yield record chunks, via the pool or in-process."""
        if not specs:
            return
        chunk = self._chunk_size_for(len(specs))
        payloads = [
            (self.fn, specs[k : k + chunk], self.base_seed is not None)
            for k in range(0, len(specs), chunk)
        ]
        if self.workers <= 1 or len(specs) == 1:
            for payload in payloads:
                yield _execute_chunk(payload)
            return
        processes = min(self.workers, len(payloads))
        with multiprocessing.Pool(processes=processes) as pool:
            # Unordered completion keeps workers saturated; records carry
            # their grid index, so ordering is restored afterwards.
            for records in pool.imap_unordered(_execute_chunk, payloads):
                yield records

    def _chunk_size_for(self, task_count: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        if task_count <= 0:
            return 1
        # ~4 chunks per worker balances IPC amortisation against tail
        # latency from uneven task durations.
        return max(1, math.ceil(task_count / (self.workers * 4)))

    def _store_key(self, spec: Tuple) -> str:
        _, params, seed = spec
        return self.store.key((self.name, params), schedule=seed)

    def _cache_lookup(self, spec: Tuple):
        hit = False
        value = None
        if self.store is not None:
            hit, value = self.store.get(self._store_key(spec))
        if not hit:
            return False, None
        index, params, seed = spec
        return True, TaskRecord(
            index=index,
            params=params,
            seed=seed,
            value=value,
            error=None,
            duration_s=0.0,
            cached=True,
        )

    def _cache_store(self, record: TaskRecord) -> None:
        if not record.ok or self.store is None:
            return
        spec = (record.index, record.params, record.seed)
        self.store.put(self._store_key(spec), record.value)

    def _simulated_s(self, records: List[TaskRecord]) -> float:
        if self.simulated_s_of is None:
            return 0.0
        return sum(
            self.simulated_s_of(record.value) for record in records if record.ok
        )


class MonteCarlo:
    """N independent trials of ``fn(params, seed=...)`` with derived seeds.

    Trial ``k`` always receives ``derive_seed(base_seed, k, salt)``, so the
    trial set — and any reduction over it — is bit-identical regardless of
    worker count, chunk size, or completion order.
    """

    def __init__(
        self,
        fn: Callable,
        *,
        base_seed: int,
        trials: int,
        name: str = "",
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        seed_salt: str = "",
        store: Optional[ResultStore] = None,
    ) -> None:
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        self.trials = trials
        self._sweep = Sweep(
            fn,
            name=name or f"mc:{getattr(fn, '__qualname__', repr(fn))}",
            workers=workers,
            chunk_size=chunk_size,
            base_seed=base_seed,
            seed_salt=seed_salt,
            store=store,
        )

    def run(
        self,
        params: Any = None,
        reduce: Optional[Callable[[List[Any]], Any]] = None,
    ) -> "MonteCarloResult":
        """Run all trials; optionally reduce the ordered values."""
        result = self._sweep.run([params] * self.trials)
        result.raise_on_error()
        values = [record.value for record in result.records]
        return MonteCarloResult(
            values=values,
            reduced=reduce(values) if reduce is not None else None,
            stats=result.stats,
        )


@dataclasses.dataclass
class MonteCarloResult:
    """Trial values in trial order, optional reduction, and metrics."""

    values: List[Any]
    reduced: Any
    stats: CampaignStats
