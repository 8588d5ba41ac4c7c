"""Deterministic fault injection for the experiment harness.

A :class:`FaultPlan` is a seed-driven, fully serialisable description
of *which scenarios fail, how, and on which attempts*.  Installing a
plan (:func:`install_plan`, or the :func:`injected` context manager)
arms the harness-wide injection points:

* :func:`maybe_fire` — called by the scenario work path at the start
  of every attempt.  In a **pool worker process** a ``crash`` fault
  hard-kills the worker (``os._exit``) and a ``hang`` fault sleeps
  past any reasonable timeout, exactly like a segfaulted or wedged
  production worker.  **In-process** (serial/batch backends, where a
  hard exit would take the whole harness down) the same plan raises
  :class:`InjectedCrash` / :class:`InjectedHang` instead — observable,
  classifiable stand-ins for the unrecoverable thing;
* :func:`mangle_payload` — called by the directory result store on
  every result and series write.  A ``corrupt`` fault truncates the
  serialised payload mid-write, modelling a torn write on a network
  filesystem; the store's corrupt-entry healing discards it on the
  next read and the runner recomputes.

Every decision is a pure function of the plan content plus the
scenario hash and attempt number, so a chaos run is exactly
reproducible: the same seed fails the same scenarios in the same way,
whatever backend executes them.  Plans round-trip through JSON and are
shipped to pool workers inside the task payload, so ``spawn`` workers
inject identically to ``fork`` workers and the driver process.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

#: injectable failure modes
FAULT_KINDS = ("crash", "hang", "transient", "corrupt")


class InjectedFault(Exception):
    """Base of every in-process injected failure."""


class InjectedCrash(InjectedFault):
    """In-process stand-in for a hard worker death (segfault/OOM-kill)."""


class InjectedHang(InjectedFault):
    """In-process stand-in for a wedged worker (raised, since an
    in-process sleep could never be interrupted)."""


class InjectedTransient(InjectedFault):
    """A transient, retryable error (flaky filesystem, spurious EIO)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: scenario (by content hash), kind, duration.

    ``times`` is how many *attempts* the fault fires on (attempt 1 is
    the first execution): ``times=1`` fails once and then heals, so a
    single retry recovers; ``times=None`` fires on every attempt — a
    **poison** scenario that can only be quarantined.
    """

    scenario_hash: str
    kind: str
    times: int | None = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.times is not None and self.times < 1:
            raise ValueError(f"fault times must be >= 1 or None, got {self.times}")

    def fires_on(self, attempt: int) -> bool:
        return self.times is None or attempt <= self.times

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario_hash": self.scenario_hash,
            "kind": self.kind,
            "times": self.times,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultSpec":
        return cls(
            scenario_hash=str(d["scenario_hash"]),
            kind=str(d["kind"]),
            times=None if d.get("times") is None else int(d["times"]),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of :class:`FaultSpec`s plus firing knobs.

    ``hang_seconds`` bounds an injected worker hang: long enough to
    trip any sane per-scenario timeout, short enough that a leaked
    hung worker still unwinds eventually instead of pinning a CI job.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int | None = None
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        specs = tuple(
            s if isinstance(s, FaultSpec) else FaultSpec.from_dict(s)
            for s in self.specs
        )
        object.__setattr__(self, "specs", specs)
        hashes = [s.scenario_hash for s in specs]
        if len(set(hashes)) != len(hashes):
            raise ValueError("a scenario can carry at most one planned fault")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")

    @classmethod
    def random(
        cls,
        scenario_hashes: Iterable[str],
        seed: int,
        *,
        rate: float = 0.5,
        kinds: Sequence[str] = FAULT_KINDS,
        times: int | None = 1,
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """Seed-driven plan over a scenario set.

        Selection iterates the hashes in sorted order (so the plan is
        independent of grid expansion order) and assigns the chosen
        kinds round-robin after a seeded shuffle, guaranteeing every
        kind appears once the selection is large enough.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        unknown = [k for k in kinds if k not in FAULT_KINDS]
        if unknown:
            raise ValueError(f"unknown fault kinds {unknown}")
        rng = random.Random(seed)
        chosen = [h for h in sorted(set(scenario_hashes)) if rng.random() < rate]
        order = list(kinds)
        rng.shuffle(order)
        specs = tuple(
            FaultSpec(h, order[i % len(order)], times=times)
            for i, h in enumerate(chosen)
        )
        return cls(specs=specs, seed=seed, hang_seconds=hang_seconds)

    # -- lookup -----------------------------------------------------------------------

    def fault_for(self, scenario_hash: str) -> FaultSpec | None:
        for spec in self.specs:
            if spec.scenario_hash == scenario_hash:
                return spec
        return None

    def should_fire(
        self, scenario_hash: str, attempt: int, *, kind: str | None = None
    ) -> FaultSpec | None:
        spec = self.fault_for(scenario_hash)
        if spec is None or not spec.fires_on(attempt):
            return None
        if kind is not None and spec.kind != kind:
            return None
        return spec

    def kinds_planned(self) -> dict[str, int]:
        """Planned fault count per kind (diagnostics / CI gating)."""
        counts: dict[str, int] = {}
        for spec in self.specs:
            counts[spec.kind] = counts.get(spec.kind, 0) + 1
        return counts

    # -- serialisation ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "specs": [s.to_dict() for s in self.specs],
            "seed": self.seed,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in d.get("specs", ())),
            seed=None if d.get("seed") is None else int(d["seed"]),
            hang_seconds=float(d.get("hang_seconds", 30.0)),
        )


def parse_fault_plan(spec: str, scenario_hashes: Iterable[str]) -> FaultPlan:
    """Build a plan from a CLI spec string.

    ``seed:N`` — seeded random plan at the default rate over the
    scenario set; ``seed:N:RATE`` adjusts the selection rate;
    ``seed:N:RATE:TIMES`` also sets how many attempts each fault fires
    on (``*`` = every attempt, a poison plan).  ``@PATH`` loads a JSON
    plan written by :meth:`FaultPlan.to_dict`.
    """
    import json

    if spec.startswith("@"):
        return FaultPlan.from_dict(
            json.loads(Path(spec[1:]).read_text(encoding="utf-8"))
        )
    parts = spec.split(":")
    if parts[0] != "seed" or len(parts) < 2 or len(parts) > 4:
        raise ValueError(
            f"bad fault-plan spec {spec!r}: expected seed:N[:RATE[:TIMES]] "
            "or @plan.json"
        )
    try:
        seed = int(parts[1])
        rate = float(parts[2]) if len(parts) > 2 else 0.5
        times: int | None = 1
        if len(parts) > 3:
            times = None if parts[3] == "*" else int(parts[3])
    except ValueError:
        raise ValueError(f"bad fault-plan spec {spec!r}") from None
    return FaultPlan.random(scenario_hashes, seed, rate=rate, times=times)


# -- installation -------------------------------------------------------------------

#: the armed plan of this process (None = injection disabled)
_ACTIVE: FaultPlan | None = None
#: driver-side corrupt-write charges already consumed, per scenario hash
_CORRUPT_FIRED: dict[str, int] = {}


def active_plan() -> FaultPlan | None:
    return _ACTIVE


def install_plan(plan: FaultPlan | Mapping[str, Any] | None) -> None:
    """Arm ``plan`` in this process (``None`` disarms).

    Re-installing an identical plan keeps the corrupt-write charge
    ledger (pool workers re-install per task); a different plan resets
    it.
    """
    global _ACTIVE
    if plan is not None and not isinstance(plan, FaultPlan):
        plan = FaultPlan.from_dict(plan)
    if plan != _ACTIVE:
        _CORRUPT_FIRED.clear()
    _ACTIVE = plan


@contextlib.contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the block (tests/CLI)."""
    previous = _ACTIVE
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def _in_worker_process() -> bool:
    return multiprocessing.parent_process() is not None


def maybe_fire(scenario_hash: str, attempt: int = 1) -> None:
    """Fire the planned execution fault for this scenario/attempt.

    Called at the start of every scenario attempt.  ``corrupt`` faults
    are not execution faults and never fire here (see
    :func:`mangle_payload`).
    """
    plan = _ACTIVE
    if plan is None:
        return
    spec = plan.should_fire(scenario_hash, attempt)
    if spec is None or spec.kind == "corrupt":
        return
    if spec.kind == "transient":
        raise InjectedTransient(
            f"injected transient fault (scenario {scenario_hash}, "
            f"attempt {attempt})"
        )
    if spec.kind == "crash":
        if _in_worker_process():
            os._exit(73)  # hard death: no atexit, no cleanup, like a segfault
        raise InjectedCrash(
            f"injected crash (scenario {scenario_hash}, attempt {attempt})"
        )
    # hang
    if _in_worker_process():
        time.sleep(plan.hang_seconds)
        return  # a hang that outlives the timeout was killed long ago
    raise InjectedHang(
        f"injected hang (scenario {scenario_hash}, attempt {attempt})"
    )


def _take_corrupt(key: str) -> bool:
    """Consume one corrupt-write charge for a store key, if planned.

    Store keys embed the scenario hash as their first component; the
    charge ledger lives driver-side because store writes do.
    """
    plan = _ACTIVE
    if plan is None:
        return False
    scenario_hash = key.partition("-")[0]
    spec = plan.fault_for(scenario_hash)
    if spec is None or spec.kind != "corrupt":
        return False
    fired = _CORRUPT_FIRED.get(scenario_hash, 0)
    if spec.times is not None and fired >= spec.times:
        return False
    _CORRUPT_FIRED[scenario_hash] = fired + 1
    return True


def mangle_payload(key: str, payload: bytes) -> bytes:
    """Torn-write injection point for serialised store payloads (the
    result JSON and the series ``.npz``)."""
    if _take_corrupt(key):
        return payload[: max(1, len(payload) // 2)]
    return payload
