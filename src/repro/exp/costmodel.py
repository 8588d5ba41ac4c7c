"""Group-level cost model: calibrated estimates + LPT scheduling.

The pool executor (:class:`repro.exp.backends.PoolBackend`)
dispatches lockstep groups and single cells to pool workers.  Its
makespan is gated by whichever unit lands *last*, so dispatch order
matters: a heavy unit submitted at the end idles every other worker
while it finishes alone.  This module estimates each unit's cost and orders
dispatch longest-processing-time-first (LPT) — the classic greedy
bound of makespan ``<= (4/3 - 1/3m) * OPT`` — so the sweep approaches
``total/workers`` instead of ``total/workers + heaviest``.

Two estimate sources, in preference order:

* **observed** — mean per-cell wall seconds of earlier runs of the
  same cap-free group, persisted as result-store metadata
  (:data:`COST_META`, see :meth:`repro.exp.store.ResultStore.put_meta`);
* **cold** — a pure function of the scenario spec: replay cost grows
  with the simulated duration, the job pressure (``overload``) and the
  scaled machine size (jobs are generated to fill capacity), with
  per-interval weights for the class mixes' job granularity.  Cold
  estimates are additionally *calibrated*: every observation also
  records the ratio of observed seconds to the cold estimate, and the
  per-platform mean ratio rescales cold estimates for groups never
  seen before.

A group of ``n`` cells does not cost ``n`` cells: everything before
the earliest cap window is a shared prefix replayed once (PR 6), so
the group estimate is ``cell * (shared + n * (1 - shared))`` with
``shared`` the prefix fraction of the replay horizon.

Estimates order work; they never change results.  A wildly wrong
estimate costs wall clock only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exp.spec import Scenario

#: result-store metadata document holding observed costs
COST_META = "costmodel"

#: schema version of the metadata document
COST_META_SCHEMA = 1

#: cold-estimate rate before any calibration: seconds of wall clock
#: per cost unit (one simulated hour of a 1k-core machine at unit
#: pressure).  Deliberately rough — LPT only needs relative order, and
#: the first observed sweep calibrates the absolute scale away.
DEFAULT_RATE = 0.02

#: per-interval weight of the job-class mix: smaller jobs mean more
#: jobs (and more events) per unit of delivered capacity
INTERVAL_WEIGHTS = {
    "medianjob": 1.0,
    "smalljob": 1.6,
    "bigjob": 0.7,
    "24h": 1.0,
}

#: cap on remembered group observations so the metadata document (and
#: every sweep's read of it) stays bounded
MAX_OBSERVED_GROUPS = 512


def _group_key(scenario: "Scenario") -> str:
    """Observation key: the cap-free scenario hash (the lockstep-group
    identity, platform/policy content folded into the hash itself)."""
    return scenario.with_(caps=()).scenario_hash()


def _shared_fraction(scenarios: Sequence["Scenario"]) -> float:
    """Fraction of the replay horizon the group replays once.

    A proxy for the PR 6 divergence onset: nothing can diverge before
    the earliest cap window opens.  An uncapped cell never diverges,
    so it does not lower the bound (``default=duration``).
    """
    base = scenarios[0]
    duration = base.effective_duration
    if duration <= 0:
        return 0.0
    earliest = min(
        min((c.start for c in sc.caps), default=duration) for sc in scenarios
    )
    return max(0.0, min(1.0, earliest / duration))


@dataclass(frozen=True)
class GroupEstimate:
    """One scheduled unit of a batch×pool sweep plan."""

    group: str  #: cap-free scenario hash (lockstep-group identity)
    label: str  #: display name (the first member's scenario name)
    indices: tuple[int, ...]  #: member positions in the submitted list
    seconds: float  #: estimated group wall seconds
    source: str  #: "observed" | "calibrated" | "cold"

    @property
    def n_cells(self) -> int:
        return len(self.indices)


class CostModel:
    """Per-cell cost estimates refined by persisted observations.

    Construct via :meth:`from_store` to pick up earlier sweeps'
    observations; call :meth:`observe` as results land and
    :meth:`flush` once per sweep to persist the refined state.
    """

    def __init__(self, meta: Mapping[str, Any] | None = None) -> None:
        self._groups: dict[str, dict[str, float]] = {}
        self._rates: dict[str, dict[str, float]] = {}
        self._dirty = False
        if meta and meta.get("schema") == COST_META_SCHEMA:
            for key, entry in dict(meta.get("groups", {})).items():
                try:
                    self._groups[str(key)] = {
                        "mean": float(entry["mean"]),
                        "n": float(entry["n"]),
                    }
                except (KeyError, TypeError, ValueError):
                    continue  # a malformed entry costs an estimate, not a sweep
            for key, entry in dict(meta.get("rates", {})).items():
                try:
                    self._rates[str(key)] = {
                        "mean": float(entry["mean"]),
                        "n": float(entry["n"]),
                    }
                except (KeyError, TypeError, ValueError):
                    continue

    @classmethod
    def from_store(cls, store: Any) -> "CostModel":
        """Seed from a result store's metadata document (stores without
        a metadata side-channel yield an uncalibrated model)."""
        get_meta = getattr(store, "get_meta", None)
        meta = get_meta(COST_META) if callable(get_meta) else None
        return cls(meta)

    # -- estimation -------------------------------------------------------------------

    @staticmethod
    def cold_cell_units(scenario: "Scenario") -> float:
        """Spec-only cost units of one cell (platform-aware, rateless)."""
        from repro.platform import get_platform

        spec = get_platform(scenario.platform)
        cores = max(1.0, spec.full_machine_cores * scenario.scale)
        hours = scenario.effective_duration / 3600.0
        weight = INTERVAL_WEIGHTS.get(scenario.interval, 1.0)
        # Jobs scale with capacity x pressure; event cost grows a bit
        # more than linearly in machine size (queue depth), hence the
        # sqrt-boosted core term.
        return hours * scenario.overload * weight * (cores / 1000.0) ** 0.5

    def estimate_cell(self, scenario: "Scenario") -> tuple[float, str]:
        """Estimated wall seconds of one cell, and the estimate source."""
        observed = self._groups.get(_group_key(scenario))
        if observed is not None and observed["n"] > 0:
            return observed["mean"], "observed"
        units = self.cold_cell_units(scenario)
        rate = self._rates.get(scenario.platform)
        if rate is not None and rate["n"] > 0:
            return units * rate["mean"], "calibrated"
        return units * DEFAULT_RATE, "cold"

    def estimate_group(
        self, scenarios: Sequence["Scenario"], indices: Sequence[int]
    ) -> GroupEstimate:
        """Estimated cost of one lockstep group (prefix sharing folded
        in: the pre-window prefix is replayed once, not ``n`` times)."""
        members = [scenarios[i] for i in indices]
        cell, source = self.estimate_cell(members[0])
        shared = _shared_fraction(members)
        n = len(members)
        return GroupEstimate(
            group=_group_key(members[0]),
            label=members[0].name,
            indices=tuple(indices),
            seconds=cell * (shared + n * (1.0 - shared)),
            source=source,
        )

    # -- refinement -------------------------------------------------------------------

    def observe(self, scenario: "Scenario", cell_seconds: float) -> None:
        """Fold one executed cell's wall seconds into the model."""
        if not (cell_seconds > 0) or math.isinf(cell_seconds):
            return
        key = _group_key(scenario)
        entry = self._groups.setdefault(key, {"mean": 0.0, "n": 0.0})
        entry["n"] += 1
        entry["mean"] += (cell_seconds - entry["mean"]) / entry["n"]
        units = self.cold_cell_units(scenario)
        if units > 0:
            rate = self._rates.setdefault(
                scenario.platform, {"mean": 0.0, "n": 0.0}
            )
            rate["n"] += 1
            rate["mean"] += (cell_seconds / units - rate["mean"]) / rate["n"]
        self._dirty = True

    def to_meta(self) -> dict[str, Any]:
        groups = self._groups
        if len(groups) > MAX_OBSERVED_GROUPS:
            # Keep the best-sampled groups; ties break on the key so
            # concurrent flushers converge.
            keep = sorted(groups, key=lambda k: (-groups[k]["n"], k))
            groups = {k: groups[k] for k in keep[:MAX_OBSERVED_GROUPS]}
        return {
            "schema": COST_META_SCHEMA,
            "groups": {k: dict(v) for k, v in sorted(groups.items())},
            "rates": {k: dict(v) for k, v in sorted(self._rates.items())},
        }

    def flush(self, store: Any) -> None:
        """Persist observations to the store's metadata side-channel
        (no-op for stores without one, or with nothing new)."""
        put_meta = getattr(store, "put_meta", None)
        if not self._dirty or not callable(put_meta):
            return
        put_meta(COST_META, self.to_meta())
        self._dirty = False


def lpt_order(estimates: Sequence[GroupEstimate]) -> list[GroupEstimate]:
    """Longest-processing-time-first dispatch order (ties break on the
    group key, so a plan is deterministic for a given model state)."""
    return sorted(estimates, key=lambda e: (-e.seconds, e.group))


def assign_workers(
    estimates: Sequence[GroupEstimate], workers: int
) -> list[tuple[GroupEstimate, int]]:
    """Greedy LPT placement onto ``workers`` identical workers.

    Returns ``(estimate, worker_index)`` pairs in dispatch order — the
    plan ``repro exp run --plan`` prints, and the order the batch-pool
    backend submits.  With one worker everything lands on worker 0 and
    the order is pure LPT.
    """
    workers = max(1, int(workers))
    loads = [0.0] * workers
    placed: list[tuple[GroupEstimate, int]] = []
    for est in lpt_order(estimates):
        w = min(range(workers), key=lambda i: (loads[i], i))
        loads[w] += est.seconds
        placed.append((est, w))
    return placed


def plan_table(
    placed: Sequence[tuple[GroupEstimate, int]], workers: int
) -> str:
    """Plain-text rendering of an LPT plan (``repro exp run --plan``)."""
    header = (
        f"{'group':<18} {'scenario':<28} {'cells':>5} {'est':>8} "
        f"{'src':>10} {'worker':>6}"
    )
    lines = [header, "-" * len(header)]
    total = 0.0
    loads = [0.0] * max(1, int(workers))
    for est, w in placed:
        total += est.seconds
        loads[w] += est.seconds
        lines.append(
            f"{est.group[:16]:<18} {est.label:<28.28} {est.n_cells:>5d} "
            f"{est.seconds:>7.1f}s {est.source:>10} {w:>6d}"
        )
    makespan = max(loads) if placed else 0.0
    lines.append(
        f"{len(placed)} group(s), {sum(e.n_cells for e, _ in placed)} "
        f"cell(s); est total {total:.1f}s, est makespan {makespan:.1f}s "
        f"on {max(1, int(workers))} worker(s)"
    )
    return "\n".join(lines)
