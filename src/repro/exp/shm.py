"""Zero-copy shared-memory data plane for pool sweeps.

What crosses the driver↔worker boundary of a pool backend, beyond the
task envelopes themselves, moves through this module:

* **Array transport** — :class:`SharedArena` places NumPy payloads
  (series grids from ``run_scenario_with_series``) into named
  :mod:`multiprocessing.shared_memory` segments.  Workers return a
  tiny :class:`ShmPayload` descriptor — ``(segment, dtype, shape,
  offset)`` per array — and the driver adopts it as zero-copy
  ``np.ndarray`` views, so a group's series payloads cost one memcpy
  instead of pickle → pipe → unpickle (two serialisations plus two
  kernel copies).  Lifecycle is explicit: the adopting side closes
  *and unlinks*; an ``atexit`` reaper sweeps anything left adopted,
  and :func:`reap_prefix` reclaims segments orphaned by a worker that
  died mid-write (tied into the pool respawn state machine).  When
  shm is unavailable — platform without ``/dev/shm`` semantics,
  payload under :data:`MIN_SHM_BYTES`, ``REPRO_SHM=0`` — placement
  returns ``None`` and the caller falls back to the pickle path;
  results are bit-identical either way (the golden digests never
  flow through the segment, only bulk series data does).

* **Group envelope** — :class:`GroupEnvelope` is the wire form of one
  lockstep group: the cap-free base scenario once, then per-cell
  ``(name, caps)`` deltas, with each cell's content hash pinned so a
  drifting reconstruction fails loudly.

* **Transfer accounting** — bytes shipped through pickle, bytes
  shared through segments, segments and pickle fallbacks are counted
  into the sweep's counter as ``transfer.*`` and surface in
  ``SweepReport.transfer``; :func:`transfer_summary` renders them.
"""

from __future__ import annotations

import atexit
import itertools
import os
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exp.spec import Scenario

__all__ = [
    "MIN_SHM_BYTES",
    "GroupEnvelope",
    "SharedArena",
    "ShmAdoptError",
    "ShmPayload",
    "ShmView",
    "arena",
    "format_bytes",
    "live_segments",
    "new_prefix",
    "reap_prefix",
    "set_shm_enabled",
    "shm_available",
    "status_line",
]

#: payloads smaller than this ship pickled — a segment costs two
#: syscalls plus a descriptor round-trip, which only pays off once the
#: memcpy it saves is big enough to notice
MIN_SHM_BYTES = 1 << 16

#: segment offsets are cache-line aligned so adopted views start clean
_ALIGN = 64

_SHM_DIR = "/dev/shm"  # POSIX shm namespace; absent => enumeration off

_seq = itertools.count()
_enabled_override: bool | None = None


def _shm_module():
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - minimal builds
        return None
    return shared_memory


def set_shm_enabled(flag: bool | None) -> None:
    """Force the data plane on/off (``None`` restores the env default).

    The ``shm-off`` column of the equivalence matrix and the CLI's
    ``REPRO_SHM=0`` both funnel through here: disabling shm forces the
    pickle fallback everywhere, which must stay bit-identical.
    """
    global _enabled_override
    _enabled_override = flag


def shm_available() -> bool:
    """Whether array payloads may ride shared-memory segments."""
    if _enabled_override is not None:
        return _enabled_override and _shm_module() is not None
    if os.environ.get("REPRO_SHM", "").strip().lower() in {"0", "off", "no"}:
        return False
    return _shm_module() is not None


def new_prefix() -> str:
    """A fresh driver-owned segment-name prefix.

    Every segment a backend's workers create carries its backend's
    prefix, so the driver can enumerate (and reap) exactly its own
    orphans after killing a worker — without ever touching segments
    of a concurrent runner in the same process.
    """
    return f"rs{os.getpid():x}a{next(_seq):x}-"


# -- descriptors -----------------------------------------------------------------------


@dataclass(frozen=True)
class ShmBlock:
    """One array inside a segment: ``(key, dtype, shape, offset)``."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ShmPayload:
    """Picklable descriptor of one placed segment (replaces the bulk
    array pickle on the wire; a few hundred bytes regardless of
    payload size)."""

    segment: str
    blocks: tuple[ShmBlock, ...]
    nbytes: int


class ShmAdoptError(RuntimeError):
    """A descriptor's segment could not be attached (the worker died
    after placing it and a reaper already reclaimed the segment, or
    the platform dropped it)."""


class ShmView:
    """Adopted segment: zero-copy read-only array views plus explicit
    ``close()`` (unmap + unlink).  Context manager."""

    def __init__(self, shm: Any, payload: ShmPayload) -> None:
        self._shm = shm
        self.segment = payload.segment
        self.nbytes = payload.nbytes
        self.arrays: dict[str, np.ndarray] = {}
        buf = shm.buf
        for b in payload.blocks:
            n = int(np.prod(b.shape, dtype=np.int64)) if b.shape else 1
            a = np.frombuffer(
                buf, dtype=np.dtype(b.dtype), count=n, offset=b.offset
            ).reshape(b.shape)
            a.flags.writeable = False
            self.arrays[b.key] = a

    def __enter__(self) -> "ShmView":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Unmap and unlink; idempotent.  Views become invalid."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        self.arrays = {}
        try:
            shm.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            warnings.warn(
                f"shm segment {self.segment} still has live array views; "
                "leaking the mapping until they are released",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - raced with a reaper
            # The segment is already gone; still send the unregister
            # the attach-time registration is waiting for.
            SharedArena._untrack(shm)


class SharedArena:
    """Places and adopts shm-backed array payloads.

    One process-wide instance (:data:`arena`) serves both roles:
    workers :meth:`place` payloads (create + copy + detach — the
    *driver* owns the unlink), the driver :meth:`adopt`\\ s descriptors
    into zero-copy views.  Live adoptions are tracked so the
    ``atexit`` reaper can close-and-unlink anything a crashed sweep
    left behind.
    """

    def __init__(self) -> None:
        self._live: dict[str, ShmView] = {}
        self._atexit_registered = False

    # -- worker side ----------------------------------------------------------------

    def place(
        self,
        arrays: Mapping[str, np.ndarray],
        *,
        prefix: str | None = None,
        min_bytes: int | None = None,
    ) -> ShmPayload | None:
        """Copy ``arrays`` into a fresh named segment.

        Returns the descriptor, or ``None`` when the pickle fallback
        should carry the payload instead (shm unavailable, payload
        under the size guard, or segment creation failed).
        """
        mod = _shm_module()
        if mod is None or not shm_available():
            return None
        floor = MIN_SHM_BYTES if min_bytes is None else min_bytes
        blocks: list[tuple[str, np.ndarray, int]] = []
        total = 0
        for key, arr in arrays.items():
            a = np.ascontiguousarray(arr)
            total = -(-total // _ALIGN) * _ALIGN  # round up
            blocks.append((key, a, total))
            total += a.nbytes
        if total < floor:
            return None
        name = f"{prefix or new_prefix()}{os.getpid():x}x{next(_seq):x}"
        try:
            seg = mod.SharedMemory(name=name, create=True, size=max(total, 1))
        except OSError:  # pragma: no cover - exhausted /dev/shm etc.
            return None
        try:
            buf = seg.buf
            out_blocks = []
            for key, a, off in blocks:
                dst = np.frombuffer(
                    buf, dtype=a.dtype, count=a.size, offset=off
                ).reshape(a.shape)
                np.copyto(dst, a)
                # Release the view's buffer export immediately: any
                # surviving export would make ``seg.close()`` below
                # raise ``BufferError``.
                del dst
            del buf
            for key, a, off in blocks:
                out_blocks.append(ShmBlock(key, a.dtype.str, a.shape, off))
            payload = ShmPayload(seg.name, tuple(out_blocks), total)
        except Exception:  # pragma: no cover - defensive: no orphan on error
            try:
                seg.close()
            except BufferError:
                pass
            try:
                seg.unlink()
            except OSError:
                pass
            raise
        # The adopter owns the unlink: detach locally and tell this
        # process's resource tracker to forget the segment, so a
        # worker exiting cleanly does not tear it down under the
        # driver (nor warn about a "leak" it no longer owns).
        self._untrack(seg)
        seg.close()
        return payload

    @staticmethod
    def _untrack(seg: Any) -> None:
        try:  # pragma: no branch
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker impl drift
            pass

    # -- driver side ----------------------------------------------------------------

    def adopt(self, payload: ShmPayload) -> ShmView:
        """Attach a descriptor as zero-copy views; the returned view's
        ``close()`` (or the atexit reaper) unlinks the segment."""
        mod = _shm_module()
        if mod is None:
            raise ShmAdoptError("shared_memory unavailable in this process")
        try:
            seg = mod.SharedMemory(name=payload.segment)
        except (OSError, ValueError) as exc:
            raise ShmAdoptError(
                f"cannot attach shm segment {payload.segment!r}: {exc}"
            ) from exc
        # No _untrack here: attaching registered the name with the
        # resource tracker, and ``ShmView.close()``'s unlink sends the
        # matching unregister — the tracker stays balanced and serves
        # as the backstop if this process dies before closing.
        view = ShmView(seg, payload)
        orig_close = view.close
        live = self._live

        def close() -> None:
            live.pop(payload.segment, None)
            orig_close()

        view.close = close  # type: ignore[method-assign]
        live[payload.segment] = view
        if not self._atexit_registered:
            atexit.register(self.reap)
            self._atexit_registered = True
        return view

    def reap(self) -> int:
        """Close-and-unlink every still-adopted view (atexit safety
        net); returns how many were reclaimed."""
        views = list(self._live.values())
        self._live.clear()
        for view in views:
            view.close()
        return len(views)

    @property
    def live_segments(self) -> tuple[str, ...]:
        return tuple(self._live)


#: the process-wide arena
arena = SharedArena()


def reap_prefix(prefix: str) -> int:
    """Unlink every orphaned segment under ``prefix``.

    Called after a pool's workers are dead (respawn after a crash or
    a timeout kill, and backend shutdown): any segment still carrying
    the backend's prefix was placed by a worker whose descriptor
    never reached the driver — a leak unless reclaimed here.
    Segments the driver currently holds adopted are skipped.
    """
    if not prefix or not os.path.isdir(_SHM_DIR):
        return 0
    mod = _shm_module()
    if mod is None:  # pragma: no cover - minimal builds
        return 0
    reaped = 0
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - racing namespace teardown
        return 0
    adopted = set(arena.live_segments)
    for name in names:
        if not name.startswith(prefix) or name in adopted:
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
            reaped += 1
        except OSError:  # pragma: no cover - raced with another reaper
            pass
    return reaped


def live_segments(prefix: str = "rs") -> set[str]:
    """Names of live ``/dev/shm`` segments under ``prefix`` (empty set
    where the namespace is not enumerable) — the leak-check probe."""
    if not os.path.isdir(_SHM_DIR):
        return set()
    try:
        return {n for n in os.listdir(_SHM_DIR) if n.startswith(prefix)}
    except OSError:  # pragma: no cover
        return set()


# -- envelopes -------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupEnvelope:
    """Self-contained wire form of one lockstep group.

    ``base`` is the cap-free base scenario, shipped once per group;
    cells are ``(name, caps)`` deltas on it, and ``hashes`` pin each
    reconstructed cell's content hash, so a worker whose
    reconstruction drifts fails loudly instead of replaying the wrong
    spec.
    """

    base: "Scenario"
    cells: tuple[tuple[str, tuple], ...]
    hashes: tuple[str, ...]

    @classmethod
    def pack(cls, scenarios: Sequence["Scenario"]) -> "GroupEnvelope":
        return cls(
            base=scenarios[0].with_(caps=()),
            cells=tuple((sc.name, sc.caps) for sc in scenarios),
            hashes=tuple(sc.scenario_hash() for sc in scenarios),
        )

    def resolve(self) -> "tuple[Scenario, ...]":
        """Reconstruct the group's scenarios in this process."""
        cells = tuple(
            self.base.with_(name=name, caps=caps) for name, caps in self.cells
        )
        for sc, expected in zip(cells, self.hashes):
            got = sc.scenario_hash()
            if got != expected:
                raise ValueError(
                    f"group envelope integrity failure: cell {sc.name!r} "
                    f"reconstructed to {got}, envelope pinned {expected}"
                )
        return cells


# -- transfer accounting ---------------------------------------------------------------


def format_bytes(n: int) -> str:
    """``2.4 MB``-style human size (SI, one decimal)."""
    size = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if size < 1000.0 or unit == "GB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1000.0
    return f"{size:.1f} GB"  # pragma: no cover


def transfer_summary(t: Mapping[str, int]) -> str:
    """The ``SweepReport.summary()`` fragment for a transfer dict."""
    parts = [f"{format_bytes(t.get('bytes_shipped', 0))} shipped"]
    if t.get("bytes_shared"):
        parts.append(
            f"{format_bytes(t['bytes_shared'])} shm "
            f"({t.get('segments', 0)} seg)"
        )
    if t.get("fallbacks"):
        parts.append(f"{t['fallbacks']} pickle fallback(s)")
    return "transfer: " + ", ".join(parts)


def status_line() -> str:
    """The ``exp run --plan`` line on the data plane's state here."""
    return (
        "data plane: shm array transport "
        + ("on" if shm_available() else "off (pickle fallback)")
        + " — series payloads ride /dev/shm segments; REPRO_SHM=0 forces pickle"
    )
