"""Unit cost estimates + LPT scheduling.

The pool executor (:class:`repro.exp.backends.PoolBackend`)
dispatches lockstep groups and single cells to pool workers.  Its
makespan is gated by whichever unit lands *last*, so dispatch order
matters: a heavy unit submitted at the end idles every other worker
while it finishes alone.  This module estimates each unit's cost and orders
dispatch longest-processing-time-first (LPT) — the classic greedy
bound of makespan ``<= (4/3 - 1/3m) * OPT`` — so the sweep approaches
``total/workers`` instead of ``total/workers + heaviest``.

An estimate is a pure function of the scenario specs: replay cost
grows with the simulated duration, the job pressure (``overload``)
and the scaled machine size (jobs are generated to fill capacity),
with per-interval weights for the class mixes' job granularity.

A group of ``n`` cells does not cost ``n`` cells: everything before
the earliest cap window is a shared prefix replayed once (PR 6), so
the group estimate is ``cell * (shared + n * (1 - shared))`` with
``shared`` the prefix fraction of the replay horizon.

Estimates order work; they never change results.  A wildly wrong
estimate costs wall clock only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exp.spec import Scenario

#: seconds of wall clock per cost unit (one simulated hour of a
#: 1k-core machine at unit pressure).  Deliberately rough: LPT only
#: needs relative order, so the rate only sets the seconds
#: ``repro exp run --plan`` prints.
DEFAULT_RATE = 0.02

#: per-interval weight of the job-class mix: smaller jobs mean more
#: jobs (and more events) per unit of delivered capacity
INTERVAL_WEIGHTS = {
    "medianjob": 1.0,
    "smalljob": 1.6,
    "bigjob": 0.7,
    "24h": 1.0,
}


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

    @property
    def n_cells(self) -> int:
        return len(self.indices)


def estimate_cell(scenario: "Scenario") -> float:
    """Estimated wall seconds of one cell (platform-aware; caps do not
    enter, so every cell of one lockstep group estimates alike)."""
    from repro.platform import get_platform

    spec = get_platform(scenario.platform)
    cores = max(1.0, spec.full_machine_cores * scenario.scale)
    hours = scenario.effective_duration / 3600.0
    weight = INTERVAL_WEIGHTS.get(scenario.interval, 1.0)
    # Jobs scale with capacity x pressure; event cost grows a bit
    # more than linearly in machine size (queue depth), hence the
    # sqrt-boosted core term.
    units = hours * scenario.overload * weight * (cores / 1000.0) ** 0.5
    return units * DEFAULT_RATE


def estimate_group(
    scenarios: Sequence["Scenario"], indices: Sequence[int]
) -> GroupEstimate:
    """Estimated cost of one lockstep group (prefix sharing folded
    in: the pre-window prefix is replayed once, not ``n`` times)."""
    members = [scenarios[i] for i in indices]
    shared = _shared_fraction(members)
    n = len(members)
    return GroupEstimate(
        group=members[0].with_(caps=()).scenario_hash(),
        label=members[0].name,
        indices=tuple(indices),
        seconds=estimate_cell(members[0]) * (shared + n * (1.0 - shared)),
    )


def lpt_order(estimates: Sequence[GroupEstimate]) -> list[GroupEstimate]:
    """Longest-processing-time-first dispatch order (ties break on the
    group key, so a plan is deterministic for given scenarios)."""
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
        f"{'group':<18} {'scenario':<28} {'cells':>5} {'est':>8} {'worker':>6}"
    )
    lines = [header, "-" * len(header)]
    total = 0.0
    loads = [0.0] * max(1, int(workers))
    for est, w in placed:
        total += est.seconds
        loads[w] += est.seconds
        lines.append(
            f"{est.group[:16]:<18} {est.label:<28.28} {est.n_cells:>5d} "
            f"{est.seconds:>7.1f}s {w:>6d}"
        )
    makespan = max(loads) if placed else 0.0
    lines.append(
        f"{len(placed)} unit(s), {sum(e.n_cells for e, _ in placed)} "
        f"cell(s); est total {total:.1f}s, est makespan {makespan:.1f}s "
        f"on {max(1, int(workers))} worker(s)"
    )
    return "\n".join(lines)
