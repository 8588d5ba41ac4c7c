"""Result stores: pluggable persistence behind the experiment harness.

A :class:`ResultStore` keeps condensed :class:`~repro.exp.runner.RunResult`
payloads (and optionally their Figure 6/7 ``.npz`` series) under
**content-addressed keys**: :func:`result_key` derives the key
``<scenario16>-<platform8>-<policy8>`` from the scenario content hash,
the registered platform spec's content hash and the policy's content
hash, so a stored entry is valid exactly as long as *what it describes*
is unchanged — renaming a scenario hits, editing it (or replacing the
platform it runs on) misses.

Two implementations ship:

* :class:`MemoryStore` — the in-process memo (no persistence, no
  series); the default when a :class:`~repro.exp.runner.GridRunner`
  has no cache directory, so repeated ``run()`` calls on one runner
  never replay a scenario twice;
* :class:`DirectoryStore` — a JSON/``.npz`` directory that any number
  of writers may share: threads, processes, and machines on a network
  filesystem.  ``dir:PATH``, ``shared:PATH`` and a bare path all name
  it.

:class:`DirectoryStore` and
:class:`~repro.exp.checkpoints.DirectoryCheckpointStore` stand on one
file layer (:class:`_FileLayer`): flat ``<root>/<key><suffix>`` files,
temp names unique per host, process and write, fsync before the
atomic rename, a bounded retry of transient ``OSError``s, and a loud
discard of unreadable files.  Any unreadable entry — truncated JSON
from a killed worker, a corrupted zip — is **discarded with a warning
naming the path** and recomputed; a stale-but-wellformed mismatch
(schema bump, different series resolution, replaced platform) is
silently treated as a miss.
"""

from __future__ import annotations

import copy
import errno
import io
import json
import os
import re
import socket
import time
import warnings
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.exp import faults as _faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exp.resilience import FailureRecord
    from repro.exp.runner import RunResult
    from repro.exp.spec import Scenario

#: default grid step of the ``.npz`` series payload (seconds)
DEFAULT_SERIES_DT = 300.0

#: ``errno`` values worth retrying on a shared/network filesystem: a
#: stale NFS handle heals on re-lookup, EAGAIN/EINTR are transient by
#: definition, EBUSY/ENOSPC may clear when a concurrent
#: pruner/cleaner finishes.
TRANSIENT_ERRNOS = frozenset(
    e
    for e in (
        getattr(errno, "ESTALE", None),
        errno.EAGAIN,
        errno.EINTR,
        errno.EBUSY,
        errno.ENOSPC,
        getattr(errno, "EDQUOT", None),
    )
    if e is not None
)

#: attempts per file write before a transient ``OSError`` abandons it
_WRITE_ATTEMPTS = 4
#: backoff before the first write retry, seconds (doubles per retry)
_RETRY_DELAY = 0.05


@dataclass
class StoreHealth:
    """Tallies of faults a store absorbed instead of propagating.

    ``discarded`` counts corrupt entries dropped (and recomputed by
    the caller — the heal path for torn writes); ``retried_writes``
    counts transient ``OSError``s absorbed by the bounded-backoff
    write retry; ``failed_writes`` counts writes abandoned after the
    retry budget (the result survives in memory; only the cache entry
    is lost).
    """

    discarded: int = 0
    retried_writes: int = 0
    failed_writes: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "discarded": self.discarded,
            "retried_writes": self.retried_writes,
            "failed_writes": self.failed_writes,
        }

#: shape of a :func:`result_key`: ``<scenario16>-<platform8>-<policy8>``
_KEY_RE = re.compile(r"[0-9a-f]{16}-[0-9a-f]{8}-[0-9a-f]{8}")


def _check_budget(max_entries: int | None, max_age: float | None) -> None:
    """The argument check every store's ``prune`` shares."""
    if max_entries is None and max_age is None:
        raise ValueError("prune needs max_entries and/or max_age")
    if max_entries is not None and max_entries < 0:
        raise ValueError("max_entries must be >= 0")
    if max_age is not None and max_age < 0:
        raise ValueError("max_age must be >= 0")


def _prune_memory(
    entries: dict,
    max_entries: int | None,
    max_age: float | None,
    lru: bool,
) -> list[str]:
    """Count-budget eviction for the memory stores, oldest write first
    (``entries`` is a dict, so it keeps write order)."""
    if max_age is not None or lru:
        raise ValueError(
            "memory stores keep no timestamps; age/LRU pruning needs "
            "a directory store"
        )
    _check_budget(max_entries, max_age)
    removed = list(entries)[: max(0, len(entries) - max_entries)]
    for key in removed:
        del entries[key]
    return removed


def _npz_bytes(arrays: Mapping[str, np.ndarray]) -> bytes:
    """A compressed ``.npz`` archive of ``arrays``, in memory."""
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return buf.getvalue()


class _FileLayer:
    """The on-disk half of both directory stores.

    An entry is a JSON document ``<root>/<key>.json`` — its commit
    file, which orders and ages it for pruning — plus an optional
    ``<root>/<key>.npz`` of arrays.  A subclass names its key pattern
    and a noun for warnings.

    Every write goes to a temp file ``<name>.tmp.<host>.<pid>.<seq>``
    — unique per machine, process and write, so concurrent writers of
    one key never share one — which is fsynced before the atomic
    ``os.replace``: a reader, on this machine or another network
    filesystem client, sees the old file or the whole new one, never a
    torn or unflushed one.
    """

    #: full-match pattern of this store's keys: stray files, temp
    #: litter and other kinds of file never surface as keys
    _key_re: re.Pattern
    #: suffixes of one entry's files; the first is its commit file
    _suffixes = (".json", ".npz")
    #: what one entry is called in warnings
    _noun: str
    _seq = count()

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _path(self, key: str, suffix: str = ".json") -> Path:
        return self.root / f"{key}{suffix}"

    def _write(self, path: Path, data: bytes) -> bool:
        """Write ``data`` to ``path`` atomically and durably.

        Transient ``OSError``s (stale NFS handles, EAGAIN, a full disk
        mid-cleanup) are retried with bounded backoff.  With the
        budget spent the write is **abandoned with a warning and a
        tally** rather than propagated: the caller still holds the
        value in memory, so losing the file must not lose the sweep.
        Other errors (permissions, a missing mount) propagate.
        Returns whether the file landed.
        """
        host = socket.gethostname() or "host"
        for attempt in range(1, _WRITE_ATTEMPTS + 1):
            tmp = path.with_name(
                f"{path.name}.tmp.{host}.{os.getpid()}.{next(self._seq)}"
            )
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(tmp, "wb") as f:
                    f.write(data)
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, path)
                return True
            except OSError as exc:
                tmp.unlink(missing_ok=True)
                if exc.errno not in TRANSIENT_ERRNOS:
                    raise
                error = exc
            if attempt < _WRITE_ATTEMPTS:
                self.health.retried_writes += 1
                time.sleep(_RETRY_DELAY * 2 ** (attempt - 1))
        self.health.failed_writes += 1
        warnings.warn(
            f"abandoning {self._noun} write {path}: {error!r} (after "
            f"{_WRITE_ATTEMPTS} attempts; it will be recomputed on demand)",
            RuntimeWarning,
            stacklevel=3,
        )
        return False

    def _read_json(self, path: Path, *with_files: Path):
        """The parsed JSON document at ``path``, or ``None`` when it is
        absent or unreadable — an unreadable one is discarded loudly,
        together with ``with_files``."""
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self._discard(exc, path, *with_files)
            return None

    def _discard(self, reason: Exception, *paths: Path) -> None:
        """Drop an unreadable entry's files, loudly: the caller
        recomputes it."""
        self.health.discarded += 1
        warnings.warn(
            f"discarding corrupt {self._noun} {paths[0]}: {reason!r}",
            RuntimeWarning,
            stacklevel=4,
        )
        for path in paths:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - races with other healers
                pass

    @staticmethod
    def _touch(path: Path) -> None:
        """Bump the access time (LRU pruning) without moving mtime."""
        try:
            os.utime(path, ns=(time.time_ns(), path.stat().st_mtime_ns))
        except OSError:  # pragma: no cover - read-only or raced store
            pass

    def _keys(self, suffix: str) -> list[str]:
        """Keys of the well-formed ``<key><suffix>`` files in the root."""
        if not self.root.is_dir():
            return []
        n = len(suffix)
        return sorted(
            p.name[:-n]
            for p in self.root.glob(f"*{suffix}")
            if self._key_re.fullmatch(p.name[:-n])
        )

    def keys(self) -> list[str]:
        """Keys of every committed entry."""
        return self._keys(".json")

    def prune(
        self,
        max_entries: int | None = None,
        *,
        max_age: float | None = None,
        lru: bool = False,
    ) -> list[str]:
        """Evict entries over the count and/or age budget (see
        :meth:`ResultStore.prune`), all files of an entry together.

        Entries are ordered and aged by their commit file's mtime, or
        its atime with ``lru`` (hits bump it).  An entry is evicted
        when it exceeds the count budget *or* the age budget — the
        union, so both constraints hold afterwards.  Ties break on the
        key, so concurrent pruners agree, and an entry another pruner
        removed first is skipped.
        """
        _check_budget(max_entries, max_age)
        ordered: list[tuple[float, str]] = []
        for key in self.keys():
            try:
                st = self._path(key).stat()
            except OSError:  # raced with another pruner
                continue
            ordered.append((st.st_atime if lru else st.st_mtime, key))
        ordered.sort()
        n_over = 0 if max_entries is None else max(0, len(ordered) - max_entries)
        cutoff = None if max_age is None else time.time() - max_age
        removed: list[str] = []
        for i, (ts, key) in enumerate(ordered):
            if i >= n_over and (cutoff is None or ts >= cutoff):
                continue
            for suffix in self._suffixes:
                self._path(key, suffix).unlink(missing_ok=True)
            removed.append(key)
        return removed


def result_key(scenario: "Scenario") -> str:
    """Content-addressed store key: scenario + platform + policy content.

    The scenario hash covers only the platform *name*; appending the
    registered spec's content hash makes a store entry stale the moment
    ``register_platform(..., replace=True)`` changes what that name
    means — instead of silently serving results from the previous
    hardware.  The policy's content hash is appended the same way (it
    is also folded into the scenario hash itself, see
    :meth:`repro.exp.Scenario.scenario_hash`): editing a registered
    policy misses, renaming it hits.
    """
    from repro.platform import get_platform

    platform_hash = get_platform(scenario.platform).content_hash()
    policy_hash = scenario.policy_spec.content_hash()
    return f"{scenario.scenario_hash()}-{platform_hash[:8]}-{policy_hash[:8]}"


class ResultStore:
    """Duck-typed protocol of a harness result store.

    ``get``/``put`` move condensed results; ``get_series``/``put_series``
    move the optional ``.npz`` series payload; ``has_series`` exists so
    the runner's hit test does not need to deserialise a payload it is
    not going to use.  ``stores_series=False`` stores never receive a
    series (the runner does not even produce one for them).
    """

    #: whether this store persists series payloads at all
    stores_series: bool = False
    #: grid step (seconds) of any series payload this store accepts
    series_dt: float = DEFAULT_SERIES_DT
    #: whether failure records survive this store's lifetime
    persists_failures: bool = False

    def get(self, key: str) -> "RunResult | None":
        raise NotImplementedError

    def put(self, key: str, result: "RunResult") -> None:
        raise NotImplementedError

    def get_series(self, key: str) -> dict[str, np.ndarray] | None:
        return None

    def put_series(self, key: str, series: Mapping[str, np.ndarray]) -> None:
        raise NotImplementedError(f"{type(self).__name__} does not store series")

    def has_series(self, key: str) -> bool:
        return self.get_series(key) is not None

    def keys(self) -> list[str]:
        """Keys of every stored result (diagnostics / merge checks)."""
        raise NotImplementedError

    # -- metadata side-channel --------------------------------------------------------

    def put_meta(self, name: str, payload: Mapping) -> None:
        """Persist a small named JSON document next to the results.

        The side-channel for harness bookkeeping that is *about* the
        store's contents without being a result — e.g. the cost
        model's observed wall times (:mod:`repro.exp.costmodel`).
        Last-writer-wins; payloads must be JSON-serialisable.  Stores
        without persistence keep it in memory for their lifetime.
        """
        raise NotImplementedError

    def get_meta(self, name: str) -> dict | None:
        """A previously stored metadata document, or ``None``.

        Metadata is advisory: a corrupt document is discarded (loudly,
        like any other unreadable entry) and the caller regenerates
        it — losing metadata never loses results.
        """
        return None

    # -- failure records --------------------------------------------------------------

    def put_failure(self, key: str, record: "FailureRecord") -> None:
        """Record a terminal failure under the key its result would
        have used, so resumed sweeps can skip or retry it."""
        raise NotImplementedError

    def get_failure(self, key: str) -> "FailureRecord | None":
        return None

    def pop_failure(self, key: str) -> bool:
        """Clear a failure record (the heal path).  Returns whether a
        record existed."""
        return False

    def failures(self) -> list["FailureRecord"]:
        """Every persisted failure record (``repro exp failures``)."""
        return []

    @property
    def health(self) -> StoreHealth:
        """Counters of absorbed faults (shared instance, mutated in
        place as the store heals/discards/retries)."""
        h = getattr(self, "_health", None)
        if h is None:
            h = StoreHealth()
            setattr(self, "_health", h)
        return h

    def prune(
        self,
        max_entries: int | None = None,
        *,
        max_age: float | None = None,
        lru: bool = False,
    ) -> list[str]:
        """Evict entries by count and/or age budget.

        At most ``max_entries`` remain afterwards, and every survivor
        is younger than ``max_age`` seconds (both constraints apply
        when both are given; at least one is required).  Returns the
        evicted keys (oldest first).  Default eviction order is
        least-recently-*written*; ``lru=True`` orders and ages entries
        by last access instead (directory stores bump an entry's
        ``atime`` on every hit).  Pruned entries are simply recomputed
        on the next request, so pruning is always safe.
        """
        raise NotImplementedError

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


class MemoryStore(ResultStore):
    """In-process memo: results live for the store's lifetime only."""

    stores_series = False

    def __init__(self) -> None:
        self._results: dict[str, "RunResult"] = {}
        self._failures: dict[str, "FailureRecord"] = {}
        self._meta: dict[str, dict] = {}

    def get(self, key: str) -> "RunResult | None":
        return self._results.get(key)

    def put_meta(self, name: str, payload: Mapping) -> None:
        # Deep copies on both sides: a caller mutating its payload (or
        # the returned dict) must not reach the stored observations —
        # the directory store's JSON round-trip isolates them for free,
        # and the cost model mutates what get_meta hands back.
        self._meta[name] = copy.deepcopy(dict(payload))

    def get_meta(self, name: str) -> dict | None:
        entry = self._meta.get(name)
        return copy.deepcopy(entry) if entry is not None else None

    def put(self, key: str, result: "RunResult") -> None:
        # Re-putting moves the key to the back of the eviction order.
        self._results.pop(key, None)
        self._results[key] = result

    def put_failure(self, key: str, record: "FailureRecord") -> None:
        self._failures[key] = record

    def get_failure(self, key: str) -> "FailureRecord | None":
        return self._failures.get(key)

    def pop_failure(self, key: str) -> bool:
        return self._failures.pop(key, None) is not None

    def failures(self) -> list["FailureRecord"]:
        return [self._failures[k] for k in sorted(self._failures)]

    def keys(self) -> list[str]:
        return sorted(self._results)

    def prune(
        self,
        max_entries: int | None = None,
        *,
        max_age: float | None = None,
        lru: bool = False,
    ) -> list[str]:
        return _prune_memory(self._results, max_entries, max_age, lru)


class DirectoryStore(_FileLayer, ResultStore):
    """A result directory: ``<dir>/<key>.json``, its ``<key>.npz``
    series and its ``<key>.fail.json`` failure record, plus named
    ``<dir>/meta/<name>.json`` documents.

    Any number of writers may share one directory — threads,
    processes, machines on a network filesystem — through the file
    layer's unique temp names and fsync-then-rename commits.  A write
    is skipped only when the entry on disk already serves a hit
    (:meth:`get` for a result, :meth:`has_series` for a series);
    anything else there — a stale schema, a series at another grid
    step — is replaced.  Concurrent writers of one key agree on its
    digests and metrics (replays are deterministic) but not on its
    bytes (results carry wall-clock fields); the last rename wins.
    """

    stores_series = True
    persists_failures = True
    _key_re = _KEY_RE
    _noun = "result-store entry"

    def __init__(
        self, root: str | Path, *, series_dt: float = DEFAULT_SERIES_DT
    ) -> None:
        super().__init__(root)
        if series_dt <= 0:
            raise ValueError("series_dt must be positive")
        self.series_dt = float(series_dt)

    # -- results ----------------------------------------------------------------------

    def get(self, key: str) -> "RunResult | None":
        from repro.exp.runner import RunResult

        path = self._path(key)
        data = self._read_json(path)
        if data is None:
            return None
        try:
            result = RunResult.from_dict(data, cached=True)
        except ValueError as exc:
            if "schema" in str(exc):
                return None  # a result/scenario schema bump is expected staleness
            self._discard(exc, path)
            return None
        except (KeyError, TypeError) as exc:
            self._discard(exc, path)
            return None
        if result.scenario.scenario_hash() != key.partition("-")[0]:
            # Content addressing is the integrity check: an entry whose
            # payload does not hash to its own key was corrupted or
            # hand-edited.
            self._discard(ValueError("stored scenario does not match key"), path)
            return None
        self._touch(path)
        return result

    def put(self, key: str, result: "RunResult") -> None:
        if self.get(key) is not None:
            return
        payload = json.dumps(result.to_dict(), allow_nan=False).encode()
        # Torn-write injection point: an armed fault plan may truncate
        # the payload here, exactly like a writer killed mid-write.
        self._write(self._path(key), _faults.mangle_payload(key, payload))

    # -- series -----------------------------------------------------------------------

    def get_series(self, key: str) -> dict[str, np.ndarray] | None:
        """The cached series, or ``None`` when absent/stale/corrupt.

        A payload recorded at a different grid step than this store's
        ``series_dt`` is treated as absent (stale resolution, not an
        error); an unreadable payload is discarded with a warning.
        """
        path = self._path(key, ".npz")
        if not path.is_file():
            return None
        try:
            # np.load(path) would open the file itself and leak it when
            # the zip directory is unreadable (it raises before handing
            # the file to a context manager); opened here, it is closed
            # on every path.
            with open(path, "rb") as fh, np.load(fh) as z:
                if "_series_dt" in z.files and float(z["_series_dt"]) != self.series_dt:
                    return None
                return {k: z[k] for k in z.files if k != "_series_dt"}
        except Exception as exc:
            self._discard(exc, path)
            return None

    def has_series(self, key: str) -> bool:
        """Cheap hit test: reads only the stored grid step.

        A payload without a recorded grid step (written by an external
        tool) is a silent miss — its resolution cannot be verified, but
        it stays on disk and :meth:`get_series` will still serve it.
        """
        path = self._path(key, ".npz")
        if not path.is_file():
            return False
        try:
            with open(path, "rb") as fh, np.load(fh) as z:
                if "_series_dt" not in z.files:
                    return False
                return float(z["_series_dt"]) == self.series_dt
        except Exception as exc:
            self._discard(exc, path)
            return False

    def put_series(self, key: str, series: Mapping[str, np.ndarray]) -> None:
        if self.has_series(key):
            return
        payload = _npz_bytes({"_series_dt": np.float64(self.series_dt), **series})
        # Torn-write injection point for the binary payload.
        self._write(self._path(key, ".npz"), _faults.mangle_payload(key, payload))

    # -- failure records --------------------------------------------------------------

    def put_failure(self, key: str, record: "FailureRecord") -> None:
        payload = json.dumps(record.to_dict(), allow_nan=False)
        self._write(self._path(key, ".fail.json"), payload.encode())

    def get_failure(self, key: str) -> "FailureRecord | None":
        from repro.exp.resilience import FailureRecord

        path = self._path(key, ".fail.json")
        data = self._read_json(path)
        if data is None:
            return None
        try:
            return FailureRecord.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            # A corrupt failure record carries no science: drop it and
            # let the scenario simply run again.
            self._discard(exc, path)
            return None

    def pop_failure(self, key: str) -> bool:
        try:
            self._path(key, ".fail.json").unlink()
            return True
        except FileNotFoundError:
            return False

    def failures(self) -> list["FailureRecord"]:
        records = [self.get_failure(key) for key in self._keys(".fail.json")]
        return [r for r in records if r is not None]

    # -- metadata side-channel --------------------------------------------------------

    _META_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]{0,63}")

    def _meta_path(self, name: str) -> Path:
        if not self._META_NAME_RE.fullmatch(name):
            raise ValueError(f"bad metadata document name {name!r}")
        return self.root / "meta" / f"{name}.json"

    def put_meta(self, name: str, payload: Mapping) -> None:
        path = self._meta_path(name)
        text = json.dumps(payload, allow_nan=False, sort_keys=True)
        self._write(path, text.encode())

    def get_meta(self, name: str) -> dict | None:
        # Metadata is advisory bookkeeping: discard and regenerate.
        payload = self._read_json(self._meta_path(name))
        return payload if isinstance(payload, dict) else None


def _spec_root(spec: str, what: str) -> str | None:
    """The directory a store spec names, or ``None`` for ``memory``.

    ``dir:PATH`` and ``shared:PATH`` are synonyms, and a bare path is
    shorthand for both; a bare keyword (``shared`` with the ``:PATH``
    forgotten) is an error, not a directory literally named
    ``shared``.
    """
    kind, sep, arg = spec.partition(":")
    if not sep and kind not in ("memory", "dir", "shared"):
        return spec
    if kind == "memory":
        if arg:
            raise ValueError(f"memory {what} takes no argument")
        return None
    if kind in ("dir", "shared"):
        if not arg:
            raise ValueError(f"{kind} {what} needs a path: {kind}:PATH")
        return arg
    raise ValueError(
        f"unknown {what} spec {spec!r}; expected memory, dir:PATH or shared:PATH"
    )


def make_store(
    spec: str, *, series_dt: float = DEFAULT_SERIES_DT
) -> ResultStore:
    """Build a store from a CLI-style spec string.

    ``memory`` — in-process memo; ``dir:PATH``, ``shared:PATH`` or a
    bare path — a :class:`DirectoryStore` at that path.
    """
    root = _spec_root(spec, "store")
    if root is None:
        return MemoryStore()
    return DirectoryStore(root, series_dt=series_dt)
