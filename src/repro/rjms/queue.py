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
indexing before running Algorithm 2 on any of them.
"""

from __future__ import annotations

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
        self._cores = np.empty(cap, dtype=np.float64)
        self._users = np.empty(cap, dtype=np.int64)
        self._nodes = np.empty(cap, dtype=np.int64)
        self._walltime = np.empty(cap, dtype=np.float64)
        self._n = 0
        self._row_of: dict[int, int] = {}
        self._jobs: dict[int, Job] = {}

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
        self._cores = np.resize(self._cores, cap)
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
        self._ids[row] = jid
        self._submit[row] = job.spec.submit_time
        self._cores[row] = job.cores
        self._users[row] = job.user
        self._nodes[row] = job.n_nodes
        self._walltime[row] = job.spec.walltime
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
                self._cores,
                self._users,
                self._nodes,
                self._walltime,
            ):
                arr[row] = arr[last]
            self._row_of[int(self._ids[row])] = row
        self._n = last
        return job

    def priorities(self, now: float) -> np.ndarray:
        """Multifactor priority of every pending job (queue row order).

        ``priority = w_age * min(age/max_age, 1)
                   + w_fairshare * fs(user)
                   + w_size * cores/total_cores``
        """
        n = self._n
        if n == 0:
            return np.empty(0, dtype=np.float64)
        w = self.weights
        age = np.clip((now - self._submit[:n]) / w.max_age, 0.0, 1.0)
        size = self._cores[:n] / self.total_cores
        fs = self.fairshare.factors(now)[self._users[:n]]
        return w.age * age + w.fairshare * fs + w.job_size * size

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
                part = np.argpartition(prio, n - limit)
                thresh = prio[part[n - limit]]
                cand = np.flatnonzero(prio >= thresh)
                idx = np.lexsort((ids[cand], submit[cand], -prio[cand]))
                rows = cand[idx][:limit]
            else:
                # lexsort: last key is primary.
                rows = np.lexsort((ids, submit, -prio))
        return self._ids[rows], self._nodes[rows], self._walltime[rows]

    def jobs_in_order(self, now: float) -> list[Job]:
        return [self._jobs[int(j)] for j in self.order(now)[0]]
