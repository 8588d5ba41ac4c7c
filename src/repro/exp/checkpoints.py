"""Persistent content-addressed checkpoints: cross-run warm starts.

PR 6's lockstep batch replay showed that everything before a cap
window's divergence onset is a *shared prefix* — but the fork only
paid off when sibling cells happened to land in the same process of
the same run.  This module makes the prefix durable: the captured
fork state (:func:`repro.sim.batch.capture_fork_state`) becomes a
versioned artifact in a :class:`CheckpointStore`, so any later run —
serial, pool worker, sharded CI job, another machine — restores the
prefix instead of replaying it.

**Checkpoint key.**  A stored prefix is valid for every scenario that
shares its cap-free content, platform and policy, at any horizon at or
beyond the stored one::

    <cap-free scenario hash:16>-<platform hash:8>-<policy hash:8>-h<horizon tag:8>

The first three segments are the *group* (:func:`checkpoint_group`):
the scenario's content hash with its cap windows stripped (name never
counts, see :meth:`~repro.exp.spec.Scenario.scenario_hash`), the
registered platform spec's content hash, and the policy spec's content
hash.  The horizon tag hashes the exact ``float.hex()`` rendering of
the fork time, so distinct horizons of one group coexist and
:meth:`CheckpointStore.best` picks the deepest one not exceeding the
requesting cell's own divergence onset.

**Artifact schema.**  One checkpoint is a JSON file plus an ``.npz``:

* ``<key>.json`` — ``{"schema": CHECKPOINT_SCHEMA, "group": ...,
  "horizon": <hexfloat>, "meta": <fork-state meta>}``.  The fork-state
  meta is pure JSON with every float rendered via ``float.hex()``
  (bit-exact round trip, including ``-inf``); its own ``version``
  field is :data:`repro.sim.batch.FORK_STATE_VERSION`.
* ``<key>.npz`` — the fork state's numpy arrays (node/power state,
  fair-share usage, the columnar metrics prefix, job allocations).

The ``.npz`` is written first and the JSON second, so the JSON is the
commit point: a torn pair is either invisible (orphan ``.npz``) or
discarded loudly on first read and re-published by the next cold run.
A wrapper-schema or fork-state-version mismatch is *silent* staleness
(the entry is left for the build that wrote it); anything unreadable
is corruption — discarded with a warning, tallied in ``health``, and
healed by the caller's cold start.  Restores are bit-identical by
construction: the persisted representation *is* the in-memory fork
representation, installed through the same
:func:`~repro.sim.batch.install_fork_state` path.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro.exp.store import (
    StoreHealth,
    _FileLayer,
    _npz_bytes,
    _prune_memory,
    _spec_root,
)
from repro.sim.batch import FORK_STATE_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exp.spec import Scenario

#: version of the artifact wrapper; the fork-state layout carries its
#: own version (:data:`repro.sim.batch.FORK_STATE_VERSION`) inside
CHECKPOINT_SCHEMA = 1

#: shape of a :func:`checkpoint_key`:
#: ``<cap-free scenario16>-<platform8>-<policy8>-h<horizon8>``
_CKPT_KEY_RE = re.compile(r"[0-9a-f]{16}-[0-9a-f]{8}-[0-9a-f]{8}-h[0-9a-f]{8}")


def checkpoint_group(scenario: "Scenario") -> str:
    """Content-addressed group: cap-free scenario + platform + policy.

    Mirrors :func:`repro.exp.store.result_key` with the cap windows
    stripped from the scenario hash — every cell of a cap sweep maps
    to the same group, which is exactly the set of cells that share a
    replay prefix.
    """
    from repro.platform import get_platform

    cap_free = scenario.with_(caps=()).scenario_hash()
    platform_hash = get_platform(scenario.platform).content_hash()
    policy_hash = scenario.policy_spec.content_hash()
    return f"{cap_free}-{platform_hash[:8]}-{policy_hash[:8]}"


def horizon_tag(horizon: float) -> str:
    """Tag of one fork horizon, hashed from its exact bit pattern."""
    digest = hashlib.sha256(float(horizon).hex().encode("ascii")).hexdigest()
    return f"h{digest[:8]}"


def checkpoint_key(group: str, horizon: float) -> str:
    return f"{group}-{horizon_tag(horizon)}"


class LRUCache:
    """Bounded LRU keyed by content hash.

    Content addressing makes entries immortal-if-present: two values
    under one key are bit-identical by construction, so there is no
    invalidation protocol — only capacity eviction.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = int(maxsize)
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        try:
            self._data.move_to_end(key)
        except KeyError:
            self.misses += 1
            return None
        self.hits += 1
        return self._data[key]

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self.hits = self.misses = 0


#: per-process memo of loaded checkpoint fork states by (root, key) —
#: fork states are multi-MB array dicts, so the bound stays tight
FORK_STATE_CACHE = LRUCache(maxsize=4)


class CheckpointStore:
    """Duck-typed protocol of a fork-state checkpoint store.

    ``best`` is the read path the replay layers use: the deepest
    stored horizon of a group that does not exceed the requesting
    cell's own divergence onset.  ``put`` persists a captured state
    under its content-addressed key; ``get``/``has`` are key-exact.
    """

    #: whether worker processes may reconstruct this store from its
    #: pickled form and still observe the same entries (directory
    #: stores: yes; a memory store pickles into an empty copy)
    shareable = False

    def get(self, key: str) -> dict | None:
        raise NotImplementedError

    def put(self, group: str, horizon: float, state: dict) -> str:
        raise NotImplementedError

    def has(self, key: str) -> bool:
        raise NotImplementedError

    def best(self, group: str, max_horizon: float) -> dict | None:
        raise NotImplementedError

    def keys(self) -> list[str]:
        raise NotImplementedError

    def prune(
        self,
        max_entries: int | None = None,
        *,
        max_age: float | None = None,
        lru: bool = False,
    ) -> list[str]:
        raise NotImplementedError

    @property
    def health(self) -> StoreHealth:
        h = getattr(self, "_health", None)
        if h is None:
            h = StoreHealth()
            setattr(self, "_health", h)
        return h


class MemoryCheckpointStore(CheckpointStore):
    """In-process checkpoint memo (tests, single-run warm starts)."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, float, dict]] = {}

    def get(self, key: str) -> dict | None:
        entry = self._entries.get(key)
        return None if entry is None else entry[2]

    def put(self, group: str, horizon: float, state: dict) -> str:
        key = checkpoint_key(group, horizon)
        self._entries.pop(key, None)  # re-putting refreshes LRU order
        self._entries[key] = (group, float(horizon), state)
        return key

    def has(self, key: str) -> bool:
        return key in self._entries

    def best(self, group: str, max_horizon: float) -> dict | None:
        best_h, best_key = -math.inf, None
        for key, (g, h, _) in self._entries.items():
            if g == group and h <= max_horizon and h > best_h:
                best_h, best_key = h, key
        return None if best_key is None else self._entries[best_key][2]

    def keys(self) -> list[str]:
        return sorted(self._entries)

    def prune(
        self,
        max_entries: int | None = None,
        *,
        max_age: float | None = None,
        lru: bool = False,
    ) -> list[str]:
        return _prune_memory(self._entries, max_entries, max_age, lru)


class DirectoryCheckpointStore(_FileLayer, CheckpointStore):
    """A checkpoint directory: ``<dir>/<key>.json`` + ``<key>.npz``.

    It stands on the same file layer as
    :class:`repro.exp.store.DirectoryStore`, so any number of
    publishers may share one directory (``dir:PATH``, ``shared:PATH``
    and a bare path all build this class).  An unreadable checkpoint
    is discarded loudly, both halves of the pair together; a schema
    mismatch is a silent miss.  An existing key is never overwritten:
    a fork state is a pure function of its key.
    """

    shareable = True
    _key_re = _CKPT_KEY_RE
    _noun = "checkpoint"

    def get(self, key: str) -> dict | None:
        jpath, npath = self._path(key), self._path(key, ".npz")
        if not jpath.is_file():
            return None
        # Fork states are content-addressed, so a cached entry can
        # only go stale through the filesystem: pruning (the
        # ``is_file`` probe above) or on-disk damage.  A hit must
        # match the ``.npz``'s recorded stat signature — anything
        # that changed the bytes falls through to the real loader,
        # which detects corruption loudly.  Hits still bump the
        # atime so LRU pruning sees cached readers.
        cached = FORK_STATE_CACHE.get((str(self.root), key))
        if cached is not None and self._npz_sig(key) == cached["sig"]:
            self._touch(jpath)
            return {"meta": dict(cached["meta"]), "arrays": dict(cached["arrays"])}
        wrapper = self._read_json(jpath, npath)
        if wrapper is None:
            return None
        try:
            schema = wrapper["schema"]
            group = wrapper["group"]
            meta = wrapper["meta"]
        except (KeyError, TypeError) as exc:
            self._discard(exc, jpath, npath)
            return None
        if schema != CHECKPOINT_SCHEMA:
            return None  # wrapper-schema bump is expected staleness
        if not isinstance(meta, dict) or meta.get("version") != FORK_STATE_VERSION:
            return None  # fork-state layout bump: same silent miss
        # Content addressing is the integrity check: the key must spell
        # out the stored group and the stored horizon's exact bits.
        if not key.startswith(f"{group}-h") or not key.endswith(
            horizon_tag(float.fromhex(meta["horizon"]))
        ):
            self._discard(
                ValueError("stored checkpoint does not match key"), jpath, npath
            )
            return None
        try:
            # Opened here so a truncated .npz cannot leak the file
            # (see DirectoryStore.get_series).
            with open(npath, "rb") as fh, np.load(fh) as z:
                arrays = {name: z[name] for name in z.files}
        except Exception as exc:
            self._discard(exc, jpath, npath)
            return None
        self._touch(jpath)
        # Memoise the loaded state (read-only arrays shared between
        # the cache and every borrower — install_fork_state only ever
        # reads them), sparing repeat warm starts the .npz decompress.
        for arr in arrays.values():
            arr.setflags(write=False)
        FORK_STATE_CACHE.put(
            (str(self.root), key),
            {"meta": meta, "arrays": arrays, "sig": self._npz_sig(key)},
        )
        return {"meta": dict(meta), "arrays": dict(arrays)}

    def _npz_sig(self, key: str) -> tuple[int, int] | None:
        """Cheap change detector for the cached fork state: the
        ``.npz``'s ``(mtime_ns, size)``, ``None`` when unreadable."""
        try:
            st = self._path(key, ".npz").stat()
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def put(self, group: str, horizon: float, state: dict) -> str:
        key = checkpoint_key(group, horizon)
        if self.has(key):
            return key
        wrapper = {
            "schema": CHECKPOINT_SCHEMA,
            "group": group,
            "horizon": float(horizon).hex(),
            "meta": state["meta"],
        }
        payload = json.dumps(wrapper, allow_nan=False).encode()
        # Arrays first, JSON second: the JSON is the commit point, so
        # a torn pair is invisible rather than half-readable.
        if self._write(self._path(key, ".npz"), _npz_bytes(state["arrays"])):
            self._write(self._path(key), payload)
        return key

    def has(self, key: str) -> bool:
        return self._path(key).is_file()

    def _peek_horizon(self, key: str) -> float | None:
        """The stored horizon, from the JSON wrapper only (no arrays)."""
        try:
            wrapper = json.loads(self._path(key).read_text(encoding="utf-8"))
            if wrapper["schema"] != CHECKPOINT_SCHEMA:
                return None
            return float.fromhex(wrapper["horizon"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None  # get() on the winner discards what it must

    def best(self, group: str, max_horizon: float) -> dict | None:
        prefix = f"{group}-h"
        candidates = [
            (h, key)
            for key in self.keys()
            if key.startswith(prefix)
            and (h := self._peek_horizon(key)) is not None
            and h <= max_horizon
        ]
        # Deepest horizon first; a corrupt winner is discarded by get()
        # and the next-deepest entry serves instead.
        for _, key in sorted(candidates, reverse=True):
            state = self.get(key)
            if state is not None:
                return state
        return None


class WarmStart:
    """Binds a checkpoint store to one group: the duck-typed adapter
    :func:`repro.sim.batch.run_replay_batch` consumes.

    ``load`` serves the deepest stored horizon not exceeding the
    batch's own fork time; ``publish`` persists a freshly captured
    prefix (skipping the write when the exact key already exists —
    checkpoint content is a pure function of its key, so the stored
    bytes are already identical).  Every probe and publish is counted
    into ``counts`` as ``checkpoints.hits``, ``checkpoints.misses`` or
    ``checkpoints.publishes``.
    """

    def __init__(
        self,
        store: CheckpointStore,
        group: str,
        counts: Counter | None = None,
    ) -> None:
        self.store = store
        self.group = group
        self.counts = counts if counts is not None else Counter()

    def load(self, max_horizon: float) -> dict | None:
        state = self.store.best(self.group, max_horizon)
        if state is None:
            self.counts["checkpoints.misses"] += 1
        else:
            self.counts["checkpoints.hits"] += 1
        return state

    def publish(self, horizon: float, state: dict) -> None:
        if self.store.has(checkpoint_key(self.group, horizon)):
            return
        self.store.put(self.group, horizon, state)
        self.counts["checkpoints.publishes"] += 1


def make_checkpoint_store(spec: str) -> CheckpointStore:
    """Build a checkpoint store from a CLI-style spec string.

    ``memory`` — in-process memo; ``dir:PATH``, ``shared:PATH`` or a
    bare path — a :class:`DirectoryCheckpointStore` at that path.
    """
    root = _spec_root(spec, "checkpoint store")
    if root is None:
        return MemoryCheckpointStore()
    return DirectoryCheckpointStore(root)
