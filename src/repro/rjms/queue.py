"""Pending queue with vectorised multifactor priority.

SLURM's first scheduling phase selects jobs "after prioritization
among the group of pending jobs ... multifactor priorities such as job
age and job size or even more sophisticated features like
fair-sharing" (Section IV-A).  The queue keeps parallel NumPy arrays
(swap-remove on start) so a full priority ordering costs one
vectorised expression plus an ``argsort`` per scheduling pass — the
pass rate is the simulator's hot path.  Two of the columns (node
count, requested walltime) are there for the pass itself: it screens
its ranked candidates against exact node and time bounds by array
indexing before running Algorithm 2 on any of them, and under an
active cap it skips the ranking altogether when even the narrowest
pending job cannot fit the headroom (:meth:`PendingQueue.min_nodes`).

A pass ranks a queue of a thousand jobs or more, so the ranking is
bound by NumPy call overhead rather than arithmetic, and it is written
to make few calls while keeping every priority's bits:

* the size term never changes while a job waits, so :meth:`add`
  stores it as a column, ``w_size * (cores / total_cores)``: the same
  two IEEE operations on the same operands as the vector expression;
* the three terms are summed into one buffer in place, in the order
  ``(age + fair-share) + size`` of the plain expression; the fair-share
  weight multiplies the per-user factors before the gather, which
  gives the same products element by element;
* the age clip is skipped when it cannot bind.  The queue keeps the
  least and greatest submit time it was ever given; when the greatest
  is not after ``now`` and ``(now - least) / max_age <= 1``, every
  pending job's ``(now - submit) / max_age`` lies in [0, 1], because
  IEEE subtraction and division round monotonically, so the clip would
  return its input unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rjms.config import PriorityWeights
from repro.rjms.fairshare import FairShare
from repro.rjms.job import Job

_INITIAL_CAPACITY = 256


class PendingQueue:
    """Priority-ordered pending jobs."""

    def __init__(
        self,
        total_cores: int,
        weights: PriorityWeights,
        fairshare: FairShare,
    ) -> None:
        if total_cores <= 0:
            raise ValueError("total_cores must be positive")
        self.total_cores = total_cores
        self.weights = weights
        self.fairshare = fairshare
        cap = _INITIAL_CAPACITY
        self._ids = np.empty(cap, dtype=np.int64)
        self._submit = np.empty(cap, dtype=np.float64)
        #: the weighted size term, ``w_size * (cores / total_cores)``
        self._size = np.empty(cap, dtype=np.float64)
        self._users = np.empty(cap, dtype=np.int64)
        self._nodes = np.empty(cap, dtype=np.int64)
        self._walltime = np.empty(cap, dtype=np.float64)
        self._n = 0
        self._row_of: dict[int, int] = {}
        self._jobs: dict[int, Job] = {}
        #: least and greatest submit time ever queued (the age clip test)
        self._submit_min = math.inf
        self._submit_max = -math.inf

    def __len__(self) -> int:
        return self._n

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._row_of

    def job(self, job_id: int) -> Job:
        return self._jobs[job_id]

    def _grow(self) -> None:
        cap = len(self._ids) * 2
        self._ids = np.resize(self._ids, cap)
        self._submit = np.resize(self._submit, cap)
        self._size = np.resize(self._size, cap)
        self._users = np.resize(self._users, cap)
        self._nodes = np.resize(self._nodes, cap)
        self._walltime = np.resize(self._walltime, cap)

    def add(self, job: Job) -> None:
        jid = job.job_id
        if jid in self._row_of:
            raise ValueError(f"job {jid} already queued")
        if self._n == len(self._ids):
            self._grow()
        row = self._n
        submit = float(job.spec.submit_time)
        self._ids[row] = jid
        self._submit[row] = submit
        self._size[row] = self.weights.job_size * (float(job.cores) / self.total_cores)
        self._users[row] = job.user
        self._nodes[row] = job.n_nodes
        self._walltime[row] = job.spec.walltime
        self._submit_min = min(self._submit_min, submit)
        self._submit_max = max(self._submit_max, submit)
        self._row_of[jid] = row
        self._jobs[jid] = job
        self._n += 1

    def remove(self, job_id: int) -> Job:
        row = self._row_of.pop(job_id)
        job = self._jobs.pop(job_id)
        last = self._n - 1
        if row != last:
            for arr in (
                self._ids,
                self._submit,
                self._size,
                self._users,
                self._nodes,
                self._walltime,
            ):
                arr[row] = arr[last]
            self._row_of[int(self._ids[row])] = row
        self._n = last
        return job

    def min_nodes(self) -> int:
        """Node count of the narrowest pending job (queue must be
        non-empty)."""
        return int(self._nodes[: self._n].min())

    def priorities(self, now: float) -> np.ndarray:
        """Multifactor priority of every pending job (queue row order).

        ``priority = w_age * min(age/max_age, 1)
                   + w_fairshare * fs(user)
                   + w_size * cores/total_cores``

        computed in place in one buffer (see the module docstring).
        """
        n = self._n
        if n == 0:
            return np.empty(0, dtype=np.float64)
        w = self.weights
        prio = np.subtract(now, self._submit[:n])
        prio /= w.max_age
        if not (
            self._submit_max <= now and (now - self._submit_min) / w.max_age <= 1.0
        ):
            np.clip(prio, 0.0, 1.0, out=prio)
        prio *= w.age
        fs = self.fairshare.factors(now)
        fs *= w.fairshare
        prio += fs[self._users[:n]]
        prio += self._size[:n]
        return prio

    def order(
        self, now: float, limit: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pending jobs, highest priority first, as ``(ids, n_nodes,
        walltimes)``: the ranked job ids and, aligned with them, each
        job's node count and requested walltime.

        Ties break deterministically by (submit time, job id) — FCFS.
        ``limit`` returns only the first ``limit`` jobs — the same
        prefix a full ordering would produce, but via an O(n) partial
        selection instead of an O(n log n) sort of the whole queue
        (the scheduling pass only ever examines ``backfill_depth``
        candidates).
        """
        n = self._n
        if n == 0:
            rows = np.empty(0, dtype=np.int64)
        else:
            prio = self.priorities(now)
            ids = self._ids[:n]
            submit = self._submit[:n]
            if limit is not None and 0 < limit < n:
                # Smallest value of the top-`limit` priorities; keeping
                # *every* entry at that value makes the boundary ties
                # resolve exactly as the full lexsort would.
                k = n - limit
                thresh = np.partition(prio, k)[k]
                cand = (prio >= thresh).nonzero()[0]
                idx = np.lexsort((ids[cand], submit[cand], -prio[cand]))
                rows = cand[idx[:limit]]
            else:
                # lexsort: last key is primary.
                rows = np.lexsort((ids, submit, -prio))
        return self._ids[rows], self._nodes[rows], self._walltime[rows]

    def jobs_in_order(self, now: float) -> list[Job]:
        return [self._jobs[int(j)] for j in self.order(now)[0]]
