"""Content-addressed, disk-backed result store for campaign tasks.

:class:`~repro.runner.cache.MemoCache` makes a repeated lookup free
*within* one process; the :class:`ResultStore` promotes that to "free
across processes and users".  Every entry is addressed by a content hash
of ``(config, schedule, code version)``:

* **config hash** — a canonical token of the task's parameters (floats
  hashed by their hex form, so two bit-identical configs always collide
  and two different ones never silently do);
* **schedule hash** — the derived seed or fault-schedule token, keeping
  stochastic tasks separated per trial;
* **code version** — :data:`RESULT_CODE_VERSION`, bumped whenever task
  semantics change, so stale artifacts from older code are never served.

Entries live one file each under ``<REPRO_CACHE_DIR>/results/`` (or an
explicit root), written atomically (temp file + ``os.replace``), with a
checksummed header.  A corrupt, truncated, or stale-version file is
treated as a miss (and deleted), never an error — the result is simply
recomputed and rewritten.  Least-recently-used entries are pruned once
the store exceeds its entry budget.

Reading an entry unpickles it, and unpickling runs code, so the root is
a trusted-writer directory: the store creates a missing root owner-only
and refuses one that group or others can write.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import stat
import threading
from typing import Any, Callable, Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "RESULT_CODE_VERSION",
    "STORE_FORMAT_VERSION",
    "ResultStore",
    "StoreStats",
    "stable_token",
]

#: Bump when task semantics change in a way that invalidates old results.
#: Version 2: cohort results carry columnar ``AirTimes`` records.
RESULT_CODE_VERSION = 2

#: Bump when the on-disk entry layout changes.
STORE_FORMAT_VERSION = 1

_MAGIC = "repro-result-store"


def _default_root() -> Optional[str]:
    """``<REPRO_CACHE_DIR>/results``, or ``None`` (memory only) if unset."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if not root:
        return None
    return os.path.join(
        os.path.expanduser(os.path.expandvars(root)), "results"
    )


def _claim_root(root: str) -> None:
    """Create a missing root owner-only; refuse one others can write."""
    try:
        mode = os.stat(root).st_mode
    except FileNotFoundError:
        try:
            os.makedirs(root, mode=0o700, exist_ok=True)
        except OSError:  # pragma: no cover - writes then fail quietly
            pass
        return
    if mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise ConfigurationError(
            f"result store root {root!r} is writable by group or others "
            f"(mode {stat.S_IMODE(mode):#o}); its entries are unpickled on "
            f"read, so only trusted users may write it"
        )


def _canonical(value: Any) -> Any:
    """A JSON-able canonical form whose text is stable and bit-faithful.

    Floats serialize as their hex form (so 0.1 and the nearest double to
    0.1 collide and nothing else does), dict keys sort, tuples and lists
    unify, and frozen dataclasses flatten to ``(class name, fields)``.
    """
    if isinstance(value, float):
        return {"~f": value.hex()}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {
            "~d": sorted(
                (str(k), _canonical(v)) for k, v in value.items()
            )
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "~dc": type(value).__name__,
            "fields": _canonical(dataclasses.asdict(value)),
        }
    raise ConfigurationError(
        f"cannot build a content hash from {type(value).__name__!r}"
    )


def stable_token(value: Any) -> str:
    """A short content hash of any canonicalizable value."""
    payload = json.dumps(_canonical(value), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


@dataclasses.dataclass(frozen=True)
class StoreStats:
    """Effectiveness counters for one :class:`ResultStore`."""

    hits: int
    misses: int
    disk_hits: int
    corrupt_dropped: int
    stale_dropped: int
    entries: int

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses


class ResultStore:
    """Content-addressed result cache, memory-fronted and disk-backed.

    ``root`` is the on-disk directory; when ``None`` it is
    ``<REPRO_CACHE_DIR>/results``, and when that variable is unset too
    the store degrades gracefully to memory-only.  A root that group or
    others can write raises :class:`~repro.errors.ConfigurationError`.
    ``max_entries`` bounds the disk footprint; the least-recently-used
    files (by access/modify time) are pruned after each write.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        *,
        code_version: int = RESULT_CODE_VERSION,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        if root is None:
            root = _default_root()
        if root is not None:
            _claim_root(root)
        self.root = root
        self.code_version = int(code_version)
        self.max_entries = max_entries
        self._memory: dict = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._corrupt_dropped = 0
        self._stale_dropped = 0

    # -- keys --------------------------------------------------------------

    def key(self, config: Any, schedule: Any = None) -> str:
        """The store key for a task: config hash, schedule hash, version.

        ``config`` is whatever identifies the deterministic part of the
        task (campaign name + parameter cell); ``schedule`` carries the
        stochastic part (derived seed, fault schedule dicts), or ``None``
        for seed-free tasks.
        """
        return (
            f"c{stable_token(config)}"
            f"-s{stable_token(schedule)}"
            f"-v{self.code_version}"
        )

    # -- lookups -----------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for a key; disk misses never raise."""
        with self._lock:
            if key in self._memory:
                self._hits += 1
                return True, self._memory[key]
        value, state = self._disk_read(key)
        with self._lock:
            if state == "hit":
                self._hits += 1
                self._disk_hits += 1
                self._memory[key] = value
                return True, value
            if state == "corrupt":
                self._corrupt_dropped += 1
            elif state == "stale":
                self._stale_dropped += 1
            self._misses += 1
        return False, None

    def put(self, key: str, value: Any) -> None:
        """Store a value under ``key`` (atomically, when disk-backed)."""
        with self._lock:
            self._memory[key] = value
        self._disk_write(key, value)

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Return the stored value, computing and storing on first use."""
        hit, value = self.get(key)
        if hit:
            return value
        value = compute()
        self.put(key, value)
        return value

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk entries survive)."""
        with self._lock:
            self._memory.clear()

    @property
    def stats(self) -> StoreStats:
        """Current effectiveness counters."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                disk_hits=self._disk_hits,
                corrupt_dropped=self._corrupt_dropped,
                stale_dropped=self._stale_dropped,
                entries=len(self._memory),
            )

    # -- disk layer --------------------------------------------------------

    def _path(self, key: str) -> Optional[str]:
        if self.root is None:
            return None
        return os.path.join(
            self.root, f"result-f{STORE_FORMAT_VERSION}-{key}.pkl"
        )

    def _disk_read(self, key: str) -> Tuple[Any, str]:
        """``(value, state)`` with state in hit/miss/corrupt/stale."""
        path = self._path(key)
        if path is None:
            return None, "miss"
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None, "miss"
        try:
            header_line, body = raw.split(b"\n", 1)
            header = json.loads(header_line.decode("utf-8"))
            if header.get("magic") != _MAGIC:
                raise ValueError("bad magic")
            if header.get("format") != STORE_FORMAT_VERSION:
                raise ValueError("bad format")
            if header.get("sha256") != hashlib.sha256(body).hexdigest():
                raise ValueError("checksum mismatch")
            if header.get("code_version") != self.code_version:
                self._drop(path)
                return None, "stale"
            return pickle.loads(body), "hit"
        except Exception:
            # Truncated write, bit rot, unpicklable junk: drop and move
            # on — the caller recomputes and rewrites.
            self._drop(path)
            return None, "corrupt"

    def _disk_write(self, key: str, value: Any) -> None:
        path = self._path(key)
        if path is None:
            return
        try:
            body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return  # unpicklable results stay memory-only
        header = json.dumps({
            "magic": _MAGIC,
            "format": STORE_FORMAT_VERSION,
            "code_version": self.code_version,
            "key": key,
            "sha256": hashlib.sha256(body).hexdigest(),
        }).encode("utf-8")
        try:
            os.makedirs(self.root, mode=0o700, exist_ok=True)
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "wb") as handle:
                handle.write(header + b"\n" + body)
            os.replace(tmp, path)
        except OSError:  # pragma: no cover - cache dir not writable
            return
        self._prune()

    @staticmethod
    def _drop(path: str) -> None:
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - racing removal
            pass

    def _prune(self) -> None:
        """Evict least-recently-used disk entries past ``max_entries``."""
        if self.max_entries is None or self.root is None:
            return
        try:
            names = [
                name for name in os.listdir(self.root)
                if name.startswith("result-") and name.endswith(".pkl")
            ]
        except OSError:  # pragma: no cover - root vanished
            return
        if len(names) <= self.max_entries:
            return
        def mtime(name: str) -> float:
            try:
                return os.path.getmtime(os.path.join(self.root, name))
            except OSError:  # pragma: no cover - racing removal
                return 0.0
        names.sort(key=mtime)
        for name in names[: len(names) - self.max_entries]:
            self._drop(os.path.join(self.root, name))
