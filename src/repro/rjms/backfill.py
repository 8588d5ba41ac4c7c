"""EASY backfilling (Mu'alem & Feitelson), node-count level.

The highest-priority job that cannot start ("the blocker") gets a
reservation at the *shadow time* — the earliest instant enough nodes
free up, per the running jobs' (stretched) walltimes.  Lower-priority
jobs may start out of order iff they cannot delay the blocker:

* they finish before the shadow time, or
* they fit in the ``extra_nodes`` the blocker leaves unused.

The paper points out that backfilling barely works on the Curie trace
because requested walltimes exceed runtimes ~12000-fold; that
behaviour emerges here for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class BackfillWindow:
    """The EASY reservation protecting the blocked head-of-queue job."""

    #: when the blocker is expected to be able to start
    shadow_time: float
    #: nodes that remain free at the shadow time beyond the blocker's
    #: need: backfilled jobs of any length may use up to this many
    extra_nodes: int

    def admits(self, n_nodes: int, expected_end: float) -> bool:
        """May a job of ``n_nodes`` ending at ``expected_end`` backfill?"""
        return expected_end <= self.shadow_time or n_nodes <= self.extra_nodes


def easy_backfill_window(
    blocker_nodes: int,
    free_nodes: int,
    running: Iterable[tuple[float, int]],
    now: float,
    *,
    presorted: bool = False,
) -> BackfillWindow:
    """Compute the blocker's shadow time and spare-node allowance.

    Parameters
    ----------
    blocker_nodes:
        Nodes the blocked job needs.
    free_nodes:
        Nodes free right now.
    running:
        ``(expected_end, n_nodes)`` of every running job (expected end
        per stretched walltime).
    now:
        Current time.
    presorted:
        ``running`` is already sorted by expected end (stably), so the
        per-call sort can be skipped — the controller keeps its running
        jobs in this order, in an index it updates at every start, end
        and re-stretch rather than re-sorting per pass.

    A blocker already satisfiable node-wise (blocked by power, not by
    nodes) gets ``shadow_time = now``: backfilled jobs must then fit
    inside the spare nodes, mirroring SLURM's reservation of the
    blocker's resources.
    """
    if blocker_nodes <= 0:
        raise ValueError("blocker needs at least one node")
    if free_nodes < 0:
        raise ValueError("free_nodes cannot be negative")
    if free_nodes >= blocker_nodes:
        return BackfillWindow(now, free_nodes - blocker_nodes)
    available = free_nodes
    ordered = running if presorted else sorted(running, key=lambda r: r[0])
    for end, n in ordered:
        if end < now:
            # Job overdue vs its walltime (possible only through
            # clock skew); treat as freeing now.
            end = now
        available += n
        if available >= blocker_nodes:
            return BackfillWindow(end, available - blocker_nodes)
    # Even all running jobs ending would not free enough nodes (the
    # blocker is wider than the machine's live partition).
    return BackfillWindow(math.inf, free_nodes)
