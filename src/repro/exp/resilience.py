"""Fault tolerance: retries, timeouts, failure records, sweep reports.

The vocabulary shared by every execution backend and the
:class:`~repro.exp.runner.GridRunner`:

* :class:`RetryPolicy` — how many attempts a scenario gets, which
  errors are worth retrying (transient I/O, injected faults, worker
  deaths) versus fatal (a deterministic replay raising ``ValueError``
  will raise it again), and an exponential backoff schedule whose
  jitter is **deterministic** (keyed on the task label and attempt),
  so two chaos runs with the same plan wait the same milliseconds;
* :class:`TaskFailure` — a backend's in-band "this item terminally
  failed" outcome, yielded where a result would have been so one
  failure no longer aborts a whole sweep;
* :class:`FailureRecord` — the persisted form: scenario identity,
  failure kind, attempts, quarantine state.  Stores keep these
  alongside results (``<key>.fail.json``) so a resumed sweep knows
  what failed last time and can skip or retry it;
* :class:`SweepReport` — the structured outcome of one
  :meth:`GridRunner.sweep`: results, failures, skips, heals, the
  store's health counters, and one :class:`collections.Counter` of
  everything else the sweep tallied.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence, Tuple

from repro.exp.faults import (
    InjectedCrash,
    InjectedFault,
    InjectedHang,
    InjectedTransient,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exp.runner import RunResult

#: terminal failure kinds
FAILURE_KINDS = ("crash", "timeout", "error")

#: what a backend yields per scenario: ``(index, result_or_TaskFailure)``
TaskOutcome = Tuple[int, Any]

#: the keys of each dict view of :attr:`SweepReport.counts`; the
#: counter holds them as ``<view>.<key>``
_COUNT_VIEWS = {
    "checkpoints": ("hits", "misses", "publishes"),
    "transfer": ("bytes_shipped", "bytes_shared", "segments", "fallbacks"),
    "groups": ("n_groups", "n_batched_cells", "n_singletons", "n_degraded_groups"),
}

#: ``GridRunner`` terminal-failure dispositions
ON_ERROR_MODES = ("raise", "skip", "quarantine")


class SweepError(RuntimeError):
    """A sweep lost scenarios it was not allowed to lose.

    Raised under ``on_error="raise"`` when a scenario fails terminally
    (carrying the failure records), and by the runner's defensive
    accounting when a backend silently drops results.
    """

    def __init__(self, message: str, failures: Sequence["FailureRecord"] = ()):
        super().__init__(message)
        self.failures = list(failures)


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget, error classification, and backoff schedule.

    ``max_attempts`` counts executions, not retries: ``1`` means fail
    on the first error (the pre-fault-tolerance behaviour), ``4``
    means one try plus up to three retries.  Worker crashes and
    timeouts are always considered retryable — they are environmental,
    not a property of the scenario — while ordinary exceptions retry
    only when :meth:`is_retryable` accepts them: a deterministic
    replay that raised ``ValueError`` once will raise it every time,
    so burning attempts on it is pointless.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    retryable: tuple[type[BaseException], ...] = (
        InjectedFault,
        OSError,
        ConnectionError,
        TimeoutError,
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")

    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, self.retryable)

    def backoff(self, label: str, attempt: int) -> float:
        """Seconds to wait before attempt ``attempt + 1``.

        Exponential in the attempt number with a deterministic jitter
        multiplier in ``[0.5, 1.0)`` derived from ``(label, attempt)``
        — spreading a thundering herd of retries without making the
        schedule (and thus any timing-sensitive chaos test)
        irreproducible.
        """
        if self.base_delay == 0:
            return 0.0
        raw = self.base_delay * self.factor ** max(0, attempt - 1)
        digest = hashlib.sha256(f"{label}:{attempt}".encode()).digest()
        jitter = 0.5 + (int.from_bytes(digest[:4], "big") / 2**32) * 0.5
        return min(self.max_delay, raw * jitter)


@dataclass(frozen=True)
class TaskFailure:
    """In-band terminal failure of one work item.

    Backends yield this where the item's result would have gone; the
    runner turns it into a :class:`FailureRecord`.  ``exception``
    carries the original driver-side exception object when one exists
    (worker crashes and timeouts have none), so ``on_error="raise"``
    can re-raise exactly what the caller would have seen before fault
    tolerance existed.
    """

    kind: str  # crash | timeout | error
    error_type: str
    message: str
    attempts: int
    exception: BaseException | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}")


@dataclass(frozen=True)
class FailureRecord:
    """Persisted per-scenario failure state.

    Written next to the result store entry the scenario would have
    produced (``<key>.fail.json``), so resumed sweeps see exactly
    which cell failed, how, and whether it was quarantined — and a
    later successful run of the same key deletes it (the heal path).
    """

    scenario_name: str
    scenario_hash: str
    key: str
    backend: str
    kind: str
    error_type: str
    message: str
    attempts: int
    quarantined: bool = False
    skipped: bool = False
    recorded_at: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario_name": self.scenario_name,
            "scenario_hash": self.scenario_hash,
            "key": self.key,
            "backend": self.backend,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "skipped": self.skipped,
            "recorded_at": self.recorded_at,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FailureRecord":
        return cls(
            scenario_name=str(d["scenario_name"]),
            scenario_hash=str(d["scenario_hash"]),
            key=str(d["key"]),
            backend=str(d["backend"]),
            kind=str(d["kind"]),
            error_type=str(d["error_type"]),
            message=str(d["message"]),
            attempts=int(d["attempts"]),
            quarantined=bool(d.get("quarantined", False)),
            skipped=bool(d.get("skipped", False)),
            recorded_at=float(d.get("recorded_at", 0.0)),
        )


@dataclass
class SweepReport:
    """Structured outcome of one :meth:`GridRunner.sweep`.

    ``results`` holds every successful :class:`RunResult` in input
    order (minus failed/skipped/foreign-shard slots).  ``failures``
    are this sweep's terminal losses (quarantined or not);
    ``skipped`` are known-bad scenarios not re-attempted under
    ``on_error="skip"``; ``healed`` are scenarios whose persisted
    failure record was cleared by a successful re-run.

    Every count of the sweep lives in one :class:`collections.Counter`,
    ``counts``: the runner, the backend, the warm-start adapter and
    each pool task add to it (a worker fills its own and the pool merges
    it).  ``n_hits``, ``n_executed``, ``n_retries``, ``checkpoints``,
    ``transfer`` and ``groups`` are views of it.
    """

    results: list["RunResult"] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    skipped: list[FailureRecord] = field(default_factory=list)
    healed: list[str] = field(default_factory=list)  # scenario names
    backend: str = ""
    wall_seconds: float = 0.0
    store_health: dict[str, int] = field(default_factory=dict)
    #: ``hits`` (result-store hits), ``executed``, ``retries``, and the
    #: ``<view>.<key>`` entries of :data:`_COUNT_VIEWS`
    counts: Counter = field(default_factory=Counter)

    n_hits = property(lambda self: self.counts["hits"])
    n_executed = property(lambda self: self.counts["executed"])
    #: re-executions, charged or not: a pool break or a timeout kill
    #: also re-runs the innocent cells it took down
    n_retries = property(lambda self: self.counts["retries"])
    checkpoints = property(lambda self: self._view("checkpoints"))
    transfer = property(lambda self: self._view("transfer"))
    groups = property(lambda self: self._view("groups"))

    def _view(self, name: str) -> dict[str, int]:
        """One :data:`_COUNT_VIEWS` entry as a dict with every key, or
        ``{}`` when the counter holds none of its keys: no checkpoint
        probe, nothing across a process boundary, no grouped backend."""
        keys = {k: f"{name}.{k}" for k in _COUNT_VIEWS[name]}
        if not any(full in self.counts for full in keys.values()):
            return {}
        return {k: self.counts[full] for k, full in keys.items()}

    @property
    def quarantined(self) -> list[FailureRecord]:
        return [f for f in self.failures if f.quarantined]

    @property
    def unquarantined_losses(self) -> list[FailureRecord]:
        """Failures that were neither quarantined nor deliberately
        skipped — the losses a chaos gate must reject."""
        return [f for f in self.failures if not f.quarantined and not f.skipped]

    @property
    def ok(self) -> bool:
        """Whether the sweep completed with zero losses of any kind."""
        return not self.failures and not self.skipped

    def summary(self) -> str:
        parts = [
            f"{len(self.results)} result(s)",
            f"{self.n_hits} cached",
            f"{self.n_executed} executed",
        ]
        if self.n_retries:
            parts.append(f"{self.n_retries} retr{'y' if self.n_retries == 1 else 'ies'}")
        if self.failures:
            parts.append(
                f"{len(self.failures)} failed "
                f"({len(self.quarantined)} quarantined)"
            )
        if self.skipped:
            parts.append(f"{len(self.skipped)} skipped (known failures)")
        if self.healed:
            parts.append(f"{len(self.healed)} healed")
        g = self.groups
        if g and g.get("n_groups"):
            degraded = g.get("n_degraded_groups", 0)
            parts.append(
                f"{g['n_groups']} lockstep group(s) "
                f"({g.get('n_batched_cells', 0)} cell(s) batched"
                + (f", {degraded} degraded" if degraded else "")
                + ")"
            )
        ck = self.checkpoints
        if ck and any(ck.values()):
            parts.append(
                f"warm starts: {ck.get('hits', 0)} hit(s), "
                f"{ck.get('misses', 0)} miss(es), "
                f"{ck.get('publishes', 0)} published"
            )
        if self.transfer and any(self.transfer.values()):
            from repro.exp.shm import transfer_summary

            parts.append(transfer_summary(self.transfer))
        return ", ".join(parts)


def classify_failure(exc: BaseException) -> str:
    """Map an exception to a :class:`FailureRecord` kind."""
    if isinstance(exc, InjectedCrash):
        return "crash"
    if isinstance(exc, (InjectedHang, TimeoutError)):
        return "timeout"
    return "error"


def run_with_retry(
    call: Callable[[int], Any],
    *,
    label: str,
    retry: RetryPolicy | None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[Any, int]:
    """In-process attempt loop shared by the serial and batch paths.

    ``call(attempt)`` runs one attempt (1-based).  Returns ``(outcome,
    retries)`` where the outcome is the call's return value or a
    :class:`TaskFailure`; exceptions the policy classifies as fatal
    fail immediately with the original exception attached.
    """
    policy = retry if retry is not None else RetryPolicy(max_attempts=1)
    attempt = 0
    while True:
        attempt += 1
        try:
            return call(attempt), attempt - 1
        except Exception as exc:  # noqa: BLE001 - classified below
            retriable = policy.is_retryable(exc)
            if retriable and attempt < policy.max_attempts:
                sleep(policy.backoff(label, attempt))
                continue
            return (
                TaskFailure(
                    kind=classify_failure(exc),
                    error_type=type(exc).__name__,
                    message=str(exc),
                    attempts=attempt,
                    exception=exc,
                ),
                attempt - 1,
            )
