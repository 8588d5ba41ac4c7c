"""Replay instrumentation: power/utilisation time series and job records.

The paper's post-treatment phase collects "jobs state, outputs and
characteristics" after each replay and derives three headline metrics
(Figure 8): total consumed energy, number of launched jobs, and work
(accumulated CPU time), plus the utilisation/power stacked time series
of Figures 6 and 7.

The recorder stores step functions sampled at every change, so energy
and work are *exact* integrals, not grid approximations; grids are
only used when exporting plot series.

Storage is columnar (structure-of-arrays): one preallocated float64
time column, a 2D ``cores_by_freq`` matrix, and a 2D scalar-field
matrix, all grown by amortized doubling.  Recording a sample is a few
row writes with no per-event allocation, same-timestamp updates
collapse onto the last row in place, and the integrals/grid exports
are vectorised ``searchsorted``/``diff`` expressions.  The integrals
accumulate with ``cumsum`` (strictly sequential, like the scalar
running total the original per-sample implementation used), so every
metric is bit-identical to the historical list-of-dataclasses
recorder.  The trace digest reads the columns themselves
(:meth:`MetricsRecorder.sample_columns`); :class:`SeriesSample`
survives as a thin row view for the tests.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

#: scalar column layout of the structure-of-arrays store
_OFF, _POWER, _IDLE, _DOWN, _INFRA, _BONUS, _BUSY = range(7)
_N_SCALARS = 7

_INITIAL_CAPACITY = 1024


@dataclass(frozen=True)
class SeriesSample:
    """One step-function sample (values hold until the next sample)."""

    time: float
    cores_by_freq: tuple[float, ...]
    off_cores: float
    power_watts: float
    idle_watts: float
    down_watts: float
    infra_watts: float
    bonus_watts: float
    #: power drawn by allocated (busy) nodes only — the basis of
    #: SLURM's per-job energy accounting
    busy_watts: float = 0.0


@dataclass
class JobRecord:
    """Outcome of one job in a replay."""

    job_id: int
    cores: int
    n_nodes: int
    submit_time: float
    start_time: float | None = None
    end_time: float | None = None
    freq_ghz: float | None = None
    #: runtime stretch factor of the assigned frequency
    degradation: float = 1.0
    state: str = "pending"

    @property
    def wait_time(self) -> float | None:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time


class MetricsRecorder:
    """Collects step-function series and per-job outcomes.

    Parameters
    ----------
    frequencies:
        Ascending DVFS frequencies; ``cores_by_freq`` samples follow
        this order.
    """

    def __init__(self, frequencies: Sequence[float]) -> None:
        self.frequencies = tuple(frequencies)
        self._nf = len(self.frequencies)
        cap = _INITIAL_CAPACITY
        self._t = np.empty(cap, dtype=np.float64)
        self._cbf = np.empty((cap, self._nf), dtype=np.float64)
        self._scal = np.empty((cap, _N_SCALARS), dtype=np.float64)
        self._n = 0
        self.jobs: dict[int, JobRecord] = {}
        self._finalized_at: float | None = None
        #: job start times in recording order (engine time is monotone,
        #: so these stay sorted; the flag guards the general case)
        self._launch_times: list[float] = []
        self._launch_sorted = True
        #: end times of jobs that finished in state "completed"
        self._completion_times: list[float] = []
        self._completion_sorted = True

    # -- recording -------------------------------------------------------------------

    def _grow(self) -> None:
        cap = len(self._t) * 2
        n = self._n
        t = np.empty(cap, dtype=np.float64)
        t[:n] = self._t[:n]
        cbf = np.empty((cap, self._nf), dtype=np.float64)
        cbf[:n] = self._cbf[:n]
        scal = np.empty((cap, _N_SCALARS), dtype=np.float64)
        scal[:n] = self._scal[:n]
        self._t, self._cbf, self._scal = t, cbf, scal

    def sample(
        self,
        time: float,
        *,
        cores_by_freq: Sequence[float],
        off_cores: float,
        power_watts: float,
        idle_watts: float,
        down_watts: float,
        infra_watts: float,
        bonus_watts: float,
        busy_watts: float = 0.0,
    ) -> None:
        """Record the cluster state at ``time`` (monotone non-decreasing).

        A sample at the same instant as the previous one overwrites it
        in place (same-timestamp collapse), so bursts of events at one
        simulated instant cost one row, not many.
        """
        n = self._n
        if len(cores_by_freq) != self._nf:
            raise ValueError("cores_by_freq length mismatch")
        if n:
            last = self._t[n - 1]
            if time < last:
                raise ValueError(f"sample at {time} before last {last}")
            if time == last:
                row = n - 1
            else:
                if n == len(self._t):
                    self._grow()
                row = n
                self._t[row] = time
                self._n = n + 1
        else:
            row = 0
            self._t[0] = time
            self._n = 1
        self._cbf[row] = cores_by_freq
        self._scal[row] = (
            off_cores,
            power_watts,
            idle_watts,
            down_watts,
            infra_watts,
            bonus_watts,
            busy_watts,
        )

    def finalize(self, time: float) -> None:
        """Close the step functions at the end of the replay window."""
        n = self._n
        if n and time > self._t[n - 1]:
            if n == len(self._t):
                self._grow()
            self._t[n] = time
            self._cbf[n] = self._cbf[n - 1]
            self._scal[n] = self._scal[n - 1]
            self._n = n + 1
        self._finalized_at = time

    # -- job bookkeeping ----------------------------------------------------------------

    def job_submitted(self, job_id: int, cores: int, n_nodes: int, time: float) -> None:
        if job_id in self.jobs:
            raise ValueError(f"job {job_id} already recorded")
        self.jobs[job_id] = JobRecord(
            job_id=job_id, cores=cores, n_nodes=n_nodes, submit_time=time
        )

    def job_started(
        self, job_id: int, time: float, freq_ghz: float, degradation: float = 1.0
    ) -> None:
        rec = self.jobs[job_id]
        rec.start_time = time
        rec.freq_ghz = freq_ghz
        rec.degradation = degradation
        rec.state = "running"
        lt = self._launch_times
        if lt and time < lt[-1]:
            self._launch_sorted = False
        lt.append(time)

    def job_finished(self, job_id: int, time: float, state: str = "completed") -> None:
        rec = self.jobs[job_id]
        rec.end_time = time
        rec.state = state
        if state == "completed":
            ct = self._completion_times
            if ct and time < ct[-1]:
                self._completion_sorted = False
            ct.append(time)

    # -- exact integrals -------------------------------------------------------------------

    def _segment_bounds(
        self, t0: float, t1: float
    ) -> tuple[int, int, int, np.ndarray] | None:
        """Step-function segmentation of [t0, t1): sample indices
        ``(i, start, j1)`` and the segment boundary array.

        ``i`` is the sample at or before t0 (clamped to the first
        sample when t0 precedes the series — the first value then
        holds from t0, with *no* segment split at ``t[0]``, exactly
        like the original running-total loop); interior boundaries are
        the sample times in ``[start, j1)``.
        """
        n = self._n
        if t1 <= t0 or n == 0:
            return None
        t = self._t[:n]
        j0 = int(np.searchsorted(t, t0, side="right"))
        j1 = int(np.searchsorted(t, t1, side="left"))
        i = j0 - 1 if j0 > 0 else 0
        start = i + 1
        m = max(j1 - start, 0)
        bounds = np.empty(m + 2, dtype=np.float64)
        bounds[0] = t0
        bounds[1:-1] = t[start:j1]
        bounds[-1] = t1
        return i, start, j1, bounds

    @staticmethod
    def _accumulate(vals: np.ndarray, bounds: np.ndarray) -> float:
        """Sum of per-segment products, accumulated sequentially
        (``cumsum``) — reproducing the scalar running total of the
        original implementation bit for bit."""
        prods = vals * np.diff(bounds)
        return float(prods.cumsum()[-1])

    def _integral(self, values: np.ndarray, t0: float, t1: float) -> float:
        """Integral of a per-sample step function (column) over [t0, t1).

        The value before the first sample holds the first value; the
        value after the last sample holds the last.
        """
        seg = self._segment_bounds(t0, t1)
        if seg is None:
            return 0.0
        i, start, j1, bounds = seg
        vals = np.empty(max(j1 - start, 0) + 1, dtype=np.float64)
        vals[0] = values[i]
        vals[1:] = values[start:j1]
        return self._accumulate(vals, bounds)

    def energy_joules(self, t0: float, t1: float) -> float:
        """Exact energy consumed over ``[t0, t1)``."""
        return self._integral(self._scal[: self._n, _POWER], t0, t1)

    def work_core_seconds(self, t0: float, t1: float) -> float:
        """Accumulated CPU time (the paper's "work") over ``[t0, t1)``."""
        if self._nf == 0:
            return 0.0
        seg = self._segment_bounds(t0, t1)
        if seg is None:
            return 0.0
        i, start, j1, bounds = seg
        # Row sums only over the covered samples.  Sequential per-row
        # accumulation (cumsum) matches Python's left-to-right sum over
        # the historical per-sample tuples.
        hi = max(j1, start)
        sums = self._cbf[i:hi].cumsum(axis=1)[:, -1]
        vals = np.empty(max(j1 - start, 0) + 1, dtype=np.float64)
        vals[0] = sums[0]
        vals[1:] = sums[start - i : j1 - i]
        return self._accumulate(vals, bounds)

    def job_energy_joules(self, t0: float, t1: float) -> float:
        """Energy drawn by allocated nodes only over ``[t0, t1)`` —
        what SLURM's per-job energy accounting would report."""
        return self._integral(self._scal[: self._n, _BUSY], t0, t1)

    def effective_work_core_seconds(
        self, t0: float, t1: float, cores_per_node: int
    ) -> float:
        """Degradation-corrected work: allocated core-seconds divided
        by each job's runtime stretch — the *computation* actually
        delivered, unlike raw accumulated CPU time which inflates for
        slowed jobs."""
        if t1 <= t0:
            return 0.0
        total = 0.0
        for r in self.jobs.values():
            if r.start_time is None:
                continue
            end = r.end_time if r.end_time is not None else t1
            lo = max(r.start_time, t0)
            hi = min(end, t1)
            if hi > lo:
                total += r.n_nodes * cores_per_node * (hi - lo) / r.degradation
        return total

    def _sorted_launches(self) -> list[float]:
        if not self._launch_sorted:
            self._launch_times.sort()
            self._launch_sorted = True
        return self._launch_times

    def _sorted_completions(self) -> list[float]:
        if not self._completion_sorted:
            self._completion_times.sort()
            self._completion_sorted = True
        return self._completion_times

    def launched_jobs(self, t0: float, t1: float) -> int:
        """Jobs whose execution started within ``[t0, t1)``."""
        starts = self._sorted_launches()
        return max(
            0, bisect.bisect_left(starts, t1) - bisect.bisect_left(starts, t0)
        )

    def completed_jobs(self, t0: float, t1: float) -> int:
        ends = self._sorted_completions()
        return max(0, bisect.bisect_left(ends, t1) - bisect.bisect_left(ends, t0))

    def mean_wait_time(self) -> float | None:
        waits = [r.wait_time for r in self.jobs.values() if r.wait_time is not None]
        return float(np.mean(waits)) if waits else None

    # -- plot series export --------------------------------------------------------------------

    def to_grid(self, t0: float, t1: float, dt: float) -> Mapping[str, np.ndarray]:
        """Resample the step functions on a regular grid.

        Returns arrays keyed ``time``, ``cores@<ghz>`` (one per DVFS
        step), ``off_cores``, ``power``, ``idle_power``, ``bonus`` —
        the data behind Figures 6 and 7.
        """
        if dt <= 0 or t1 <= t0:
            raise ValueError("need dt > 0 and t1 > t0")
        grid = np.arange(t0, t1 + dt / 2, dt)
        out: dict[str, np.ndarray] = {"time": grid}
        n = self._n
        if n == 0:
            zero = np.zeros_like(grid)
            for ghz in self.frequencies:
                out[f"cores@{ghz:g}"] = zero
            out["off_cores"] = zero
            out["power"] = zero
            out["idle_power"] = zero
            out["bonus"] = zero
            return out
        idx = np.clip(np.searchsorted(self._t[:n], grid, side="right") - 1, 0, None)
        for k, ghz in enumerate(self.frequencies):
            out[f"cores@{ghz:g}"] = self._cbf[idx, k]
        out["off_cores"] = self._scal[idx, _OFF]
        out["power"] = self._scal[idx, _POWER]
        out["idle_power"] = self._scal[idx, _IDLE]
        out["bonus"] = self._scal[idx, _BONUS]
        return out

    @property
    def n_samples(self) -> int:
        return self._n

    @property
    def times(self) -> np.ndarray:
        """Recorded sample times (read-only view, in time order)."""
        view = self._t[: self._n]
        view.flags.writeable = False
        return view

    def sample_columns(self) -> list[np.ndarray]:
        """The recorded samples field by field, in :class:`SeriesSample`
        order: ``time``, one ``cores_by_freq`` column per frequency,
        then ``off_cores`` and the power, idle, down, infra, bonus and
        busy watts.  Read-only views, in time order."""
        n = self._n
        columns = [self._t[:n], *self._cbf[:n].T, *self._scal[:n].T]
        for column in columns:
            column.flags.writeable = False
        return columns

    @property
    def samples(self) -> tuple[SeriesSample, ...]:
        """The recorded step-function samples, in time order.

        A materialised row view over the columnar store, kept for the
        invariant tests.
        """
        t = self._t
        cbf = self._cbf
        scal = self._scal
        return tuple(
            SeriesSample(
                time=float(t[i]),
                cores_by_freq=tuple(cbf[i].tolist()),
                off_cores=scal[i, _OFF].item(),
                power_watts=scal[i, _POWER].item(),
                idle_watts=scal[i, _IDLE].item(),
                down_watts=scal[i, _DOWN].item(),
                infra_watts=scal[i, _INFRA].item(),
                bonus_watts=scal[i, _BONUS].item(),
                busy_watts=scal[i, _BUSY].item(),
            )
            for i in range(self._n)
        )
