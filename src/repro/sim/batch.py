"""Batched replay: N cap schedules of one workload in one process.

Grid cells of a powercap sweep differ only in their cap windows; the
workload, the machine, the policy and the scheduler configuration are
shared.  So the only work the cells can share is the replay before any
cell's caps can act on it, and that is what this module shares:

* **Shared prefix** — before the earliest instant at which any cell's
  cap set can influence its replay (the divergence onset, computed
  conservatively per cell, see :func:`_divergence_onset`), all cells
  are provably byte-identical.  One donor cell replays that prefix
  once (:meth:`SimEngine.run_before` keeps events *at* the fork time
  pending), then every sibling is forked from a structured checkpoint
  of the donor's engine/controller/recorder state.  Whenever the bound
  is not strictly positive, every cell replays from time zero —
  correctness never depends on the fork, only the speedup does.

* **Warm starts** — the same checkpoint, persisted by
  :mod:`repro.exp.checkpoints`, lets a later batch (of any size, one
  cell included) install the prefix instead of replaying it.

After the fork each cell runs to the end of the replay on its own: no
cell reads another, and :meth:`SimEngine.run` makes one continuous
run identical to any chunking of it.

Bit-identity is the contract: a batched cell produces the same trace
digest as :func:`repro.sim.replay.run_replay` on the same scenario.
Event-queue tie order survives the fork because the (time, kind, seq)
ordering only consults ``seq`` *within* a kind, and kinds partition
the event sources: the fork reconstructs submissions in workload
order, job completions in donor creation order, and at most one
scheduling pass — exactly the relative orders a solo replay produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.machine import Machine
from repro.core.online import FrequencySelector
from repro.core.policies import Policy
from repro.rjms.config import SchedulerConfig
from repro.rjms.controller import Controller
from repro.rjms.job import Job, JobState
from repro.rjms.reservations import PowercapReservation
from repro.sim.engine import EventKind, SimEngine
from repro.sim.metrics import JobRecord, MetricsRecorder
from repro.sim.replay import ReplayResult
from repro.workload.spec import JobSpec

__all__ = [
    "FORK_STATE_VERSION",
    "capture_fork_state",
    "install_fork_state",
    "run_replay_batch",
]

#: version of the fork-state layout below; bumped whenever the captured
#: field set changes, so persisted checkpoints from older layouts are
#: rejected instead of misinstalled
FORK_STATE_VERSION = 2

#: event kinds a donor may have pending at a checkpoint; anything else
#: (in-flight node transitions, foreign timers) vetoes the warm start
_FORKABLE_KINDS = frozenset(
    {
        EventKind.POWERCAP_BEGIN,
        EventKind.POWERCAP_END,
        EventKind.JOB_END,
        EventKind.JOB_SUBMIT,
        EventKind.SCHED_PASS,
    }
)


@dataclass
class _Cell:
    """One replay of the batch."""

    engine: SimEngine
    recorder: MetricsRecorder
    controller: Controller


def _fork_slack(controller: Controller, specs: Sequence[JobSpec]) -> float:
    """Seconds before a cap window during which frequency decisions may
    already differ between cells.

    A plain single-step selector without the strict-future or
    cluster-rule ablations decides identically whether or not a future
    window is in view (the only step either fits or is taken via the
    soft fallback, and the ``soft`` flag is never consumed), so its
    slack is zero.  Any other selector is bounded conservatively by
    the longest stretched walltime in the workload: a decision at
    ``t`` can only see windows starting before ``t + walltime * deg``.
    """
    policy = controller.policy
    selector = controller.freq_selector
    cfg = controller.config
    if (
        type(selector) is FrequencySelector
        and len(policy.frequency_indices_desc()) == 1
        and not cfg.strict_future_caps
        and not cfg.cluster_frequency_rule
    ):
        return 0.0
    max_walltime = max((s.walltime for s in specs), default=0.0)
    max_deg = max(
        policy.degradation(policy.freq_table.steps[i].ghz)
        for i in policy.frequency_indices_desc()
    )
    return max_walltime * max_deg


def _divergence_onset(cell: _Cell, slack: float) -> float:
    """Earliest instant at which this cell's reservations can alter its
    replay relative to the cap-free baseline.

    Strictly before the returned time the cell's behaviour is provably
    independent of its cap set: active-cap effects start at each
    window's ``start``, pre-window frequency steering at ``start -
    slack``, and shutdown reservations protect their nodes from one
    drain horizon ahead of the window (``-inf`` for the default
    infinite horizon — such cells never warm-start).
    """
    ctl = cell.controller
    if not ctl.policy.enforces_caps:
        return math.inf
    onset = math.inf
    for cap in ctl.registry.powercaps:
        onset = min(onset, cap.start - slack)
    horizon = ctl.config.reservation_drain_horizon
    for sd in ctl.registry.shutdowns:
        if math.isinf(horizon):
            return -math.inf
        onset = min(onset, sd.start - horizon)
    return onset


def _checkpoint_safe(donor: _Cell) -> bool:
    """Whether the donor's post-prefix state is fork-reconstructible."""
    eng = donor.engine
    if eng._n_cancelled:
        return False
    if any(ev.kind not in _FORKABLE_KINDS for ev in eng._queue):
        return False
    if donor.controller._shutdown_wanted.any():
        return False
    return True


# -- fork-state serialisation ------------------------------------------------------
#
# The captured state is a two-part structure.  ``meta`` holds scalars
# only, every float rendered through ``float.hex()`` so parsing it back
# is bit-exact (including ``inf``/``-inf``); its size does not grow
# with the workload.  ``arrays`` is a dict of typed numpy columns: the
# node/power state, the fair-share usage, the columnar metrics prefix
# and the job tables — one row per controller job and per recorder job,
# plus the running, rejected and queued ids and the pending
# completions.  In the job tables ids, node counts and frequency
# indices are int64 with -1 for ``None``; times, frequencies and
# degradations are float64 with NaN for ``None`` (no captured value can
# be NaN: every time comes from the engine clock, which refuses
# non-finite times, and every frequency from the frequency table); a
# state is its int8 index in :data:`_JOB_STATES`.  The split matches
# the persisted artifact layout of :mod:`repro.exp.checkpoints` — a
# ``.json`` file plus an ``.npz`` — so the in-memory fork and a
# store-restored warm start install the exact same representation
# through the exact same code path.

#: job states in code order; a recorder's job state is a state's value
_JOB_STATES = tuple(JobState)
_JOB_STATE_CODE = {state: code for code, state in enumerate(_JOB_STATES)}
_REC_STATES = tuple(state.value for state in _JOB_STATES)
_REC_STATE_CODE = {state: code for code, state in enumerate(_REC_STATES)}


def _hx(x: float) -> str:
    return float(x).hex()


def _unhx(s: str) -> float:
    return float.fromhex(s)


def _ints(values) -> np.ndarray:
    """An int64 column; ``None`` becomes -1."""
    return np.array([-1 if v is None else v for v in values], dtype=np.int64)


def _floats(values) -> np.ndarray:
    """A float64 column; ``None`` becomes NaN."""
    return np.array(
        [math.nan if v is None else v for v in values], dtype=np.float64
    )


def _opt_ints(column: np.ndarray) -> list[int | None]:
    return [None if v < 0 else v for v in column.tolist()]


def _opt_floats(column: np.ndarray) -> list[float | None]:
    return [None if v != v else v for v in column.tolist()]


def capture_fork_state(donor: _Cell, fork_t: float) -> dict:
    """Snapshot the donor's dynamic state at the fork horizon.

    Preconditions: the donor has replayed its prefix via
    ``run_before(fork_t)`` and :func:`_checkpoint_safe` holds.  The
    snapshot covers exactly the state :func:`install_fork_state`
    rebuilds: job tables (with allocation vectors), pending queue
    layout, fair-share usage, accountant arrays and scalars,
    controller caches, the columnar metrics prefix, and the pending
    completion/scheduling events.  All orderings that carry tie-break
    meaning (job-table insertion, queue rows, completion seq order)
    are preserved as row order.
    """
    ctl = donor.controller
    eng = donor.engine
    rec = donor.recorder
    acct = ctl.accountant

    jobs = list(ctl.jobs.values())
    node_chunks = [
        np.asarray(job.nodes, dtype=np.int64) for job in jobs if job.nodes is not None
    ]
    rec_jobs = list(rec.jobs.values())

    pass_time = None
    if ctl._pass_pending:
        pass_time = _hx(
            next(
                ev.time
                for ev in eng._queue
                if ev.kind == EventKind.SCHED_PASS and not ev.cancelled
            )
        )
    # Completions in donor creation order (seq order within JOB_END),
    # so same-instant completions replay in tie order.
    ends = sorted(ctl._end_events.items(), key=lambda kv: kv[1].seq)

    dq = ctl.queue
    meta = {
        "version": FORK_STATE_VERSION,
        "horizon": _hx(fork_t),
        "now": _hx(eng._now),
        "processed": int(eng._processed),
        "fair_last_decay": _hx(ctl.fairshare._last_decay),
        "acct_node_watts_sum": _hx(acct._node_watts_sum),
        "acct_n_dark_chassis": int(acct._n_dark_chassis),
        "acct_n_dark_racks": int(acct._n_dark_racks),
        "acct_version": int(acct.version),
        "last_pass": _hx(ctl._last_pass),
        "pass_time": pass_time,
        "rec_n": int(rec._n),
        "launch_sorted": bool(rec._launch_sorted),
        "completion_sorted": bool(rec._completion_sorted),
    }
    n = rec._n
    arrays = {
        "acct_state": acct.state.copy(),
        "acct_freq_index": acct.freq_index.copy(),
        "acct_node_watts": acct._node_watts.copy(),
        "acct_off_per_chassis": acct._off_per_chassis.copy(),
        "acct_dark_per_rack": acct._dark_per_rack.copy(),
        "acct_busy_count_by_freq": acct.busy_count_by_freq.copy(),
        "acct_count_by_state": acct.count_by_state.copy(),
        "cores_by_freq": ctl._cores_by_freq.copy(),
        "fair_usage": ctl.fairshare._usage.copy(),
        "rec_t": rec._t[:n].copy(),
        "rec_cbf": rec._cbf[:n].copy(),
        "rec_scal": rec._scal[:n].copy(),
        "launch_times": np.asarray(rec._launch_times, dtype=np.float64),
        "completion_times": np.asarray(rec._completion_times, dtype=np.float64),
        # controller jobs, in job-table insertion order
        "job_id": _ints(ctl.jobs),
        "job_n_nodes": _ints([job.n_nodes for job in jobs]),
        "job_state": np.array(
            [_JOB_STATE_CODE[job.state] for job in jobs], dtype=np.int8
        ),
        "job_n_alloc": _ints(
            [None if job.nodes is None else len(job.nodes) for job in jobs]
        ),
        "job_freq_index": _ints([job.freq_index for job in jobs]),
        "job_freq_ghz": _floats([job.freq_ghz for job in jobs]),
        "job_degradation": _floats([job.degradation for job in jobs]),
        "job_start_time": _floats([job.start_time for job in jobs]),
        "job_end_time": _floats([job.end_time for job in jobs]),
        "job_nodes": (
            np.concatenate(node_chunks)
            if node_chunks
            else np.empty(0, dtype=np.int64)
        ),
        "running": _ints(ctl.running),
        "rejected": _ints(ctl.rejected),
        "queue": dq._ids[: dq._n].copy(),
        "end_job_id": _ints([jid for jid, _ in ends]),
        "end_time": _floats([ev.time for _, ev in ends]),
        # recorder jobs, in recording order
        "rec_job_id": _ints(rec.jobs),
        "rec_job_cores": _ints([r.cores for r in rec_jobs]),
        "rec_job_n_nodes": _ints([r.n_nodes for r in rec_jobs]),
        "rec_job_submit_time": _floats([r.submit_time for r in rec_jobs]),
        "rec_job_start_time": _floats([r.start_time for r in rec_jobs]),
        "rec_job_end_time": _floats([r.end_time for r in rec_jobs]),
        "rec_job_freq_ghz": _floats([r.freq_ghz for r in rec_jobs]),
        "rec_job_degradation": _floats([r.degradation for r in rec_jobs]),
        "rec_job_state": np.array(
            [_REC_STATE_CODE[r.state] for r in rec_jobs], dtype=np.int8
        ),
    }
    return {"meta": meta, "arrays": arrays}


def install_fork_state(
    cell: _Cell, state: dict, specs: Sequence[JobSpec]
) -> None:
    """Install a captured fork state into a freshly constructed cell.

    The cell keeps its own construction-time reservation events (they
    all lie at or beyond the checkpoint horizon); the install
    reconstructs the dynamic state on top: job tables, node/power
    state, metrics prefix, pending completions, the pending scheduling
    pass and the not-yet-replayed submissions.  Job objects are built
    fresh per cell — nothing is shared with the capture or with other
    installs of the same state.
    """
    meta = state["meta"]
    if meta["version"] != FORK_STATE_VERSION:
        raise ValueError(
            f"fork-state version {meta['version']} != {FORK_STATE_VERSION}"
        )
    arrays = state["arrays"]
    horizon = _unhx(meta["horizon"])
    sctl = cell.controller
    sr = cell.recorder

    # -- job objects (shared per-cell copy map: running/jobs/queue alias) ----
    # Every table keys on the spec's own id object, as a replay's tables
    # do: the cells of a sweep share their id ints instead of each
    # holding fresh ones.
    spec_by_id = {s.job_id: s for s in specs}
    nodes_flat = np.asarray(arrays["job_nodes"], dtype=np.int64)
    pos = 0
    jobmap: dict[int, Job] = {}
    for jid, n_nodes, code, n_alloc, freq_index, ghz, deg, start, end in zip(
        arrays["job_id"].tolist(),
        arrays["job_n_nodes"].tolist(),
        arrays["job_state"].tolist(),
        arrays["job_n_alloc"].tolist(),
        _opt_ints(arrays["job_freq_index"]),
        _opt_floats(arrays["job_freq_ghz"]),
        arrays["job_degradation"].tolist(),
        _opt_floats(arrays["job_start_time"]),
        _opt_floats(arrays["job_end_time"]),
    ):
        spec = spec_by_id[jid]
        nodes = None
        if n_alloc >= 0:
            nodes = nodes_flat[pos : pos + n_alloc].copy()
            pos += n_alloc
        jobmap[spec.job_id] = Job(
            spec,
            n_nodes,
            _JOB_STATES[code],
            nodes,
            freq_index,
            ghz,
            deg,
            start,
            end,
        )
    sctl.jobs = dict(jobmap)
    running = [jobmap[jid] for jid in arrays["running"].tolist()]
    sctl.running = {job.job_id: job for job in running}
    sctl.rejected = arrays["rejected"].tolist()

    # -- pending queue: re-add in donor row order reproduces the exact
    #    swap-remove layout (and therefore every later ordering)
    for jid in arrays["queue"].tolist():
        sctl.queue.add(jobmap[jid])

    # -- fair-share decay chain ---------------------------------------------
    np.copyto(sctl.fairshare._usage, arrays["fair_usage"])
    sctl.fairshare._last_decay = _unhx(meta["fair_last_decay"])

    # -- power accounting (copied into the cell's own arrays) ---------------
    sa = sctl.accountant
    np.copyto(sa.state, arrays["acct_state"])
    np.copyto(sa.freq_index, arrays["acct_freq_index"])
    np.copyto(sa._node_watts, arrays["acct_node_watts"])
    np.copyto(sa._off_per_chassis, arrays["acct_off_per_chassis"])
    np.copyto(sa._dark_per_rack, arrays["acct_dark_per_rack"])
    np.copyto(sa.busy_count_by_freq, arrays["acct_busy_count_by_freq"])
    np.copyto(sa.count_by_state, arrays["acct_count_by_state"])
    sa._node_watts_sum = _unhx(meta["acct_node_watts_sum"])
    sa._n_dark_chassis = meta["acct_n_dark_chassis"]
    sa._n_dark_racks = meta["acct_n_dark_racks"]
    sa.version = meta["acct_version"]

    # -- controller scalars and caches --------------------------------------
    np.copyto(sctl._cores_by_freq, arrays["cores_by_freq"])
    sctl._last_pass = _unhx(meta["last_pass"])
    sctl._free_version = -1
    sctl._mask_key = None
    # The running-job index is derived state: rebuilt here, not stored
    # (a "running_version" meta key is ignored).
    sctl._reindex_running()

    # -- metrics prefix ------------------------------------------------------
    n = meta["rec_n"]
    cap = max(len(sr._t), n)
    t = np.empty(cap, dtype=np.float64)
    t[:n] = arrays["rec_t"]
    cbf = np.empty((cap, sr._cbf.shape[1]), dtype=np.float64)
    cbf[:n] = arrays["rec_cbf"]
    scal = np.empty((cap, sr._scal.shape[1]), dtype=np.float64)
    scal[:n] = arrays["rec_scal"]
    sr._t, sr._cbf, sr._scal = t, cbf, scal
    sr._n = n
    # JobRecord fields, positionally: id, cores, n_nodes, submit, start,
    # end, frequency, degradation, state
    sr.jobs = {
        row[0]: JobRecord(*row)
        for row in zip(
            [spec_by_id[jid].job_id for jid in arrays["rec_job_id"].tolist()],
            arrays["rec_job_cores"].tolist(),
            arrays["rec_job_n_nodes"].tolist(),
            arrays["rec_job_submit_time"].tolist(),
            _opt_floats(arrays["rec_job_start_time"]),
            _opt_floats(arrays["rec_job_end_time"]),
            _opt_floats(arrays["rec_job_freq_ghz"]),
            arrays["rec_job_degradation"].tolist(),
            [_REC_STATES[code] for code in arrays["rec_job_state"].tolist()],
        )
    }
    sr._launch_times = arrays["launch_times"].tolist()
    sr._launch_sorted = bool(meta["launch_sorted"])
    sr._completion_times = arrays["completion_times"].tolist()
    sr._completion_sorted = bool(meta["completion_sorted"])

    # -- pending events ------------------------------------------------------
    for jid, end in zip(arrays["end_job_id"].tolist(), arrays["end_time"].tolist()):
        job = jobmap[jid]
        sctl._end_events[job.job_id] = cell.engine.at(
            end,
            lambda j=job: sctl._on_job_end(j),
            kind=EventKind.JOB_END,
        )
    if meta["pass_time"] is not None:
        cell.engine.at(
            _unhx(meta["pass_time"]), sctl._sched_pass, kind=EventKind.SCHED_PASS
        )
        sctl._pass_pending = True
    # Submissions the prefix did not reach, in workload order.
    for spec in specs:
        if spec.submit_time >= horizon:
            cell.engine.at(
                spec.submit_time,
                lambda s=spec: sctl.submit(s),
                kind=EventKind.JOB_SUBMIT,
            )

    # -- clock last: every event above lies at or beyond the horizon ---------
    cell.engine.restore_clock(_unhx(meta["now"]), meta["processed"])


def _schedule_submissions(cell: _Cell, specs: Sequence[JobSpec]) -> None:
    for spec in specs:
        cell.engine.at(
            spec.submit_time,
            lambda s=spec: cell.controller.submit(s),
            kind=EventKind.JOB_SUBMIT,
        )


def run_replay_batch(
    machine: Machine,
    jobs: Sequence[JobSpec],
    policy: Policy | str,
    *,
    duration: float,
    caps_per_cell: Sequence[Sequence[PowercapReservation]],
    config: SchedulerConfig | None = None,
    platform=None,
    warm_start=None,
) -> list[ReplayResult]:
    """Replay one workload under N cap sets, sharing the prefix before
    any cap can act.

    Equivalent to N calls of :func:`repro.sim.replay.run_replay` with
    identical ``machine``/``jobs``/``policy``/``config`` and the i-th
    cap list — bit for bit, including the trace digest — but replaying
    the pre-window prefix once when the divergence analysis allows.
    After the fork each cell runs to ``duration`` alone, and its power
    accountant is cross-checked against a recomputation
    (:meth:`~repro.cluster.power.PowerAccountant.verify`).

    ``warm_start``, when given, is a duck-typed checkpoint adapter
    (see :class:`repro.exp.checkpoints.WarmStart`) with two methods:
    ``load(max_horizon)`` returns a previously captured fork state at
    a horizon ``<= max_horizon`` or ``None``, and ``publish(horizon,
    state)`` persists a freshly captured one.  On a hit *every* cell —
    including the would-be donor — installs the stored state instead
    of replaying the shared prefix; on a miss the donor's freshly
    computed prefix is published for future runs.  A batch of one cell
    with a warm-start adapter is exactly a solo replay that can skip
    its prefix; without one it is exactly a solo replay.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not caps_per_cell:
        raise ValueError("need at least one cell")
    specs = [s for s in jobs if s.submit_time <= duration]

    cells: list[_Cell] = []
    for caps in caps_per_cell:
        engine = SimEngine()
        recorder = MetricsRecorder(machine.freq_table.frequencies)
        # A string policy resolves inside Controller, as in run_replay.
        controller = Controller(
            machine,
            policy,
            engine,
            config=config,
            powercaps=list(caps),
            recorder=recorder,
            platform=platform,
        )
        cells.append(_Cell(engine, recorder, controller))

    slack = _fork_slack(cells[0].controller, specs)
    fork_t = min(
        min(_divergence_onset(c, slack) for c in cells), duration
    )

    state = None
    if fork_t > 0 and warm_start is not None:
        state = warm_start.load(fork_t)
    if state is not None:
        # Store hit: nobody replays the prefix — every cell (donor
        # included) installs the persisted checkpoint.  The stored
        # horizon may be below this batch's fork_t (a sweep with
        # earlier windows published it), which only shortens the
        # shared prefix.
        for cell in cells:
            install_fork_state(cell, state, specs)
    elif fork_t > 0 and (len(cells) > 1 or warm_start is not None):
        donor = cells[0]
        _schedule_submissions(donor, specs)
        donor.engine.run_before(fork_t)
        if _checkpoint_safe(donor):
            state = capture_fork_state(donor, fork_t)
            for sib in cells[1:]:
                install_fork_state(sib, state, specs)
            if warm_start is not None:
                warm_start.publish(fork_t, state)
        else:  # pragma: no cover - insurance against future event kinds
            for sib in cells[1:]:
                _schedule_submissions(sib, specs)
    else:
        for cell in cells:
            _schedule_submissions(cell, specs)

    results = []
    for cell in cells:
        # The donor resumes at its fork horizon: run(until) continues
        # exactly where run_before stopped.
        cell.engine.run(until=duration)
        cell.controller.accountant.verify()
        cell.recorder.finalize(duration)
        results.append(
            ReplayResult(
                machine=machine,
                policy=cell.controller.policy,
                duration=duration,
                recorder=cell.recorder,
                controller=cell.controller,
                n_submitted=len(specs),
            )
        )
    return results
