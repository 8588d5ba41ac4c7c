"""Batched lockstep replay: N same-platform replays in one process.

Grid cells of a powercap sweep differ only in their cap windows; the
workload, the machine, the policy and the scheduler configuration are
shared.  This module replays N such cells together:

* **Array facade** — every cell's :class:`~repro.cluster.power.
  PowerAccountant` state is re-homed into one scenario-major
  structure-of-arrays (:class:`BatchNodeArrays`), mirroring the
  columnar metrics recorder: per-scenario rows, per-node columns.
  Each accountant keeps operating on its own row *view*, so all its
  vectorised transitions work unchanged, while whole-batch readouts
  (node states, power accounting) are single NumPy reductions.

* **Shared event horizon** — the cells advance in lockstep between
  the union of their reservation-window boundaries, one
  ``engine.run(until=boundary)`` slice per cell per chunk.  Chunked
  advancement is observationally identical to one continuous run: the
  engine clock never moves past the last processed event of a drained
  queue (see :meth:`SimEngine.run`), so slicing introduces no
  spurious clock motion.

* **Checkpointed warm-starts** — before the earliest instant at which
  any cell's cap set can influence its replay, all cells are
  provably byte-identical.  One donor cell replays that shared prefix
  once (:meth:`SimEngine.run_before` keeps events *at* the fork time
  pending), then every sibling is forked from a structured checkpoint
  of the donor's engine/controller/recorder state.  Divergence onset
  is computed conservatively per cell (see :func:`_divergence_onset`);
  whenever the bound is not strictly positive, the batch falls back to
  plain lockstep from time zero — correctness never depends on the
  warm start, only the speedup does.

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
from typing import Any, Mapping, Sequence

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.power import PowerAccountant
from repro.core.online import FrequencySelector
from repro.core.policies import Policy, make_policy
from repro.rjms.config import SchedulerConfig
from repro.rjms.controller import Controller
from repro.rjms.job import Job, JobState
from repro.rjms.reservations import PowercapReservation
from repro.sim.engine import EventKind, SimEngine
from repro.sim.metrics import JobRecord, MetricsRecorder
from repro.sim.replay import ReplayResult
from repro.workload.spec import JobSpec

__all__ = [
    "BatchNodeArrays",
    "FORK_STATE_VERSION",
    "capture_fork_state",
    "fork_state_nbytes",
    "install_fork_state",
    "run_replay_batch",
]

#: version of the fork-state layout below; bumped whenever the captured
#: field set changes, so persisted checkpoints from older layouts are
#: rejected instead of misinstalled
FORK_STATE_VERSION = 1

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


class BatchNodeArrays:
    """Scenario-major structure-of-arrays over N power accountants.

    Row ``i`` holds cell ``i``'s node-state, frequency and power
    vectors; adopting an accountant repoints its attributes at the
    row's views, so every incremental transition it performs lands in
    the shared matrices while the accountant's own code is untouched
    (row slices of a C-contiguous matrix are themselves contiguous,
    so fancy indexing and ``np.add.at`` work identically on them).

    The running-job tables and the metrics series stay per-cell — the
    pending queue and the recorder are already columnar SoA — and the
    facade unifies the remaining hot state: node state, DVFS indices,
    per-node watts, enclosure darkness counters and the busy/state
    histograms that power accounting reads.
    """

    def __init__(self, accountants: Sequence[PowerAccountant]) -> None:
        if not accountants:
            raise ValueError("need at least one accountant")
        base = accountants[0]
        n_nodes = base.topology.n_nodes
        for acct in accountants:
            if (
                acct.topology.n_nodes != n_nodes
                or acct.topology.n_chassis != base.topology.n_chassis
                or acct.topology.racks != base.topology.racks
                or len(acct.freq_table) != len(base.freq_table)
            ):
                raise ValueError("accountants must share one platform shape")
        n = len(accountants)
        self.n_cells = n
        self.n_nodes = n_nodes
        self.state = np.empty((n, n_nodes), dtype=np.int8)
        self.freq_index = np.empty((n, n_nodes), dtype=np.int16)
        self.node_watts = np.empty((n, n_nodes), dtype=np.float64)
        self.off_per_chassis = np.empty(
            (n, base.topology.n_chassis), dtype=np.int32
        )
        self.dark_per_rack = np.empty((n, base.topology.racks), dtype=np.int32)
        self.busy_count_by_freq = np.empty(
            (n, len(base.freq_table)), dtype=np.int64
        )
        self.count_by_state = np.empty(
            (n, len(base.count_by_state)), dtype=np.int64
        )
        for row, acct in enumerate(accountants):
            self._adopt(row, acct)
        self._accountants = tuple(accountants)

    def _adopt(self, row: int, acct: PowerAccountant) -> None:
        """Copy ``acct``'s vectors into row ``row`` and re-home its
        attributes onto the row views."""
        self.state[row] = acct.state
        acct.state = self.state[row]
        self.freq_index[row] = acct.freq_index
        acct.freq_index = self.freq_index[row]
        self.node_watts[row] = acct._node_watts
        acct._node_watts = self.node_watts[row]
        self.off_per_chassis[row] = acct._off_per_chassis
        acct._off_per_chassis = self.off_per_chassis[row]
        self.dark_per_rack[row] = acct._dark_per_rack
        acct._dark_per_rack = self.dark_per_rack[row]
        self.busy_count_by_freq[row] = acct.busy_count_by_freq
        acct.busy_count_by_freq = self.busy_count_by_freq[row]
        self.count_by_state[row] = acct.count_by_state
        acct.count_by_state = self.count_by_state[row]

    # -- whole-batch readouts ----------------------------------------------------------

    def total_node_watts(self) -> np.ndarray:
        """Per-cell sum of node watts (one reduction over the batch)."""
        return self.node_watts.sum(axis=1)

    def total_power(self) -> np.ndarray:
        """Per-cell instantaneous cluster power (incl. infrastructure)."""
        return np.array([a.total_power() for a in self._accountants])

    def busy_nodes(self) -> np.ndarray:
        """Per-cell count of BUSY nodes."""
        return self.busy_count_by_freq.sum(axis=1)

    def verify(self) -> None:
        """Cross-check every adopted accountant against its row."""
        for row, acct in enumerate(self._accountants):
            assert acct.state.base is self.state, "row view detached"
            acct.verify()


@dataclass
class _Cell:
    """One replay of the batch."""

    engine: SimEngine
    recorder: MetricsRecorder
    controller: Controller


def _fork_slack(policy: Policy, controller: Controller, specs: Sequence[JobSpec]) -> float:
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
# The captured state is a two-part structure: ``meta`` is pure JSON
# (every float rendered through ``float.hex()`` so parsing it back is
# bit-exact, including ``inf``/``-inf``), ``arrays`` is a dict of numpy
# arrays.  The split matches the persisted artifact layout of
# :mod:`repro.exp.checkpoints` — a ``.json`` file plus an ``.npz`` —
# so the in-memory fork and a store-restored warm start install the
# exact same representation through the exact same code path.


def _hx(x: float) -> str:
    return float(x).hex()


def _hx_opt(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


def _unhx(s: str) -> float:
    return float.fromhex(s)


def _unhx_opt(s: str | None) -> float | None:
    return None if s is None else float.fromhex(s)


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
    are preserved as explicit lists.
    """
    ctl = donor.controller
    eng = donor.engine
    rec = donor.recorder
    acct = ctl.accountant

    jobs_meta = []
    node_chunks = []
    for jid, job in ctl.jobs.items():
        jobs_meta.append(
            {
                "id": int(jid),
                "n_nodes": int(job.n_nodes),
                "state": job.state.value,
                "n_alloc": -1 if job.nodes is None else int(len(job.nodes)),
                "freq_index": None if job.freq_index is None else int(job.freq_index),
                "freq_ghz": _hx_opt(job.freq_ghz),
                "degradation": _hx(job.degradation),
                "start_time": _hx_opt(job.start_time),
                "end_time": _hx_opt(job.end_time),
            }
        )
        if job.nodes is not None:
            node_chunks.append(np.asarray(job.nodes, dtype=np.int64))

    rec_jobs = [
        {
            "id": int(jid),
            "cores": int(r.cores),
            "n_nodes": int(r.n_nodes),
            "submit_time": _hx(r.submit_time),
            "start_time": _hx_opt(r.start_time),
            "end_time": _hx_opt(r.end_time),
            "freq_ghz": _hx_opt(r.freq_ghz),
            "degradation": _hx(r.degradation),
            "state": r.state,
        }
        for jid, r in rec.jobs.items()
    ]

    pass_time = None
    if ctl._pass_pending:
        pass_time = _hx(
            next(
                ev.time
                for ev in eng._queue
                if ev.kind == EventKind.SCHED_PASS and not ev.cancelled
            )
        )

    dq = ctl.queue
    meta = {
        "version": FORK_STATE_VERSION,
        "horizon": _hx(fork_t),
        "now": _hx(eng._now),
        "processed": int(eng._processed),
        "jobs": jobs_meta,
        "running": [int(jid) for jid in ctl.running],
        "rejected": [int(jid) for jid in ctl.rejected],
        "queue": [int(dq._ids[row]) for row in range(dq._n)],
        "fair_last_decay": _hx(ctl.fairshare._last_decay),
        "acct": {
            "node_watts_sum": _hx(acct._node_watts_sum),
            "n_dark_chassis": int(acct._n_dark_chassis),
            "n_dark_racks": int(acct._n_dark_racks),
            "version": int(acct.version),
        },
        "last_pass": _hx(ctl._last_pass),
        "pass_time": pass_time,
        # Completions in donor creation order (seq order within
        # JOB_END), so same-instant completions replay in tie order.
        "end_events": [
            [int(jid), _hx(ev.time)]
            for jid, ev in sorted(
                ctl._end_events.items(), key=lambda kv: kv[1].seq
            )
        ],
        "rec_n": int(rec._n),
        "rec_jobs": rec_jobs,
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
        "job_nodes": (
            np.concatenate(node_chunks)
            if node_chunks
            else np.empty(0, dtype=np.int64)
        ),
    }
    return {"meta": meta, "arrays": arrays}


def fork_state_nbytes(state: Mapping[str, Any]) -> int:
    """Total array payload of a captured fork state, in bytes.

    The number that matters to the data plane: it is what a pool
    worker would pickle (or place in a shm segment) to move the state
    across a process boundary, and what the fork-state cache holds
    resident per entry.
    """
    return int(sum(a.nbytes for a in state.get("arrays", {}).values()))


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
    spec_by_id = {s.job_id: s for s in specs}
    nodes_flat = np.asarray(arrays["job_nodes"], dtype=np.int64)
    pos = 0
    jobmap: dict[int, Job] = {}
    for jm in meta["jobs"]:
        job = Job(spec=spec_by_id[jm["id"]], n_nodes=jm["n_nodes"])
        job.state = JobState(jm["state"])
        n_alloc = jm["n_alloc"]
        if n_alloc >= 0:
            job.nodes = nodes_flat[pos : pos + n_alloc].copy()
            pos += n_alloc
        job.freq_index = jm["freq_index"]
        job.freq_ghz = _unhx_opt(jm["freq_ghz"])
        job.degradation = _unhx(jm["degradation"])
        job.start_time = _unhx_opt(jm["start_time"])
        job.end_time = _unhx_opt(jm["end_time"])
        jobmap[jm["id"]] = job
    sctl.jobs = dict(jobmap)
    sctl.running = {jid: jobmap[jid] for jid in meta["running"]}
    sctl.rejected = list(meta["rejected"])

    # -- pending queue: re-add in donor row order reproduces the exact
    #    swap-remove layout (and therefore every later ordering)
    for jid in meta["queue"]:
        sctl.queue.add(jobmap[jid])

    # -- fair-share decay chain ---------------------------------------------
    np.copyto(sctl.fairshare._usage, arrays["fair_usage"])
    sctl.fairshare._last_decay = _unhx(meta["fair_last_decay"])

    # -- power accounting (row views stay adopted; copy in place) ------------
    sa = sctl.accountant
    np.copyto(sa.state, arrays["acct_state"])
    np.copyto(sa.freq_index, arrays["acct_freq_index"])
    np.copyto(sa._node_watts, arrays["acct_node_watts"])
    np.copyto(sa._off_per_chassis, arrays["acct_off_per_chassis"])
    np.copyto(sa._dark_per_rack, arrays["acct_dark_per_rack"])
    np.copyto(sa.busy_count_by_freq, arrays["acct_busy_count_by_freq"])
    np.copyto(sa.count_by_state, arrays["acct_count_by_state"])
    am = meta["acct"]
    sa._node_watts_sum = _unhx(am["node_watts_sum"])
    sa._n_dark_chassis = am["n_dark_chassis"]
    sa._n_dark_racks = am["n_dark_racks"]
    sa.version = am["version"]

    # -- controller scalars and caches --------------------------------------
    np.copyto(sctl._cores_by_freq, arrays["cores_by_freq"])
    sctl._last_pass = _unhx(meta["last_pass"])
    sctl._free_version = -1
    sctl._mask_key = None
    # The running-job index is derived state: rebuilt here, not stored
    # (a "running_version" key written by older captures is ignored).
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
    sr.jobs = {
        rj["id"]: JobRecord(
            job_id=rj["id"],
            cores=rj["cores"],
            n_nodes=rj["n_nodes"],
            submit_time=_unhx(rj["submit_time"]),
            start_time=_unhx_opt(rj["start_time"]),
            end_time=_unhx_opt(rj["end_time"]),
            freq_ghz=_unhx_opt(rj["freq_ghz"]),
            degradation=_unhx(rj["degradation"]),
            state=rj["state"],
        )
        for rj in meta["rec_jobs"]
    }
    sr._launch_times = [float(x) for x in arrays["launch_times"]]
    sr._launch_sorted = bool(meta["launch_sorted"])
    sr._completion_times = [float(x) for x in arrays["completion_times"]]
    sr._completion_sorted = bool(meta["completion_sorted"])

    # -- pending events ------------------------------------------------------
    for jid, time_hex in meta["end_events"]:
        sctl._end_events[jid] = cell.engine.at(
            _unhx(time_hex),
            lambda j=jobmap[jid]: sctl._on_job_end(j),
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
    """Replay one workload under N cap sets in a single lockstep batch.

    Equivalent to N calls of :func:`repro.sim.replay.run_replay` with
    identical ``machine``/``jobs``/``policy``/``config`` and the i-th
    cap list — bit for bit, including the trace digest — but sharing
    one process, one scenario-major node-state matrix, and (when the
    divergence analysis allows) one replayed pre-window prefix.

    ``warm_start``, when given, is a duck-typed checkpoint adapter
    (see :class:`repro.exp.checkpoints.WarmStart`) with two methods:
    ``load(max_horizon)`` returns a previously captured fork state at
    a horizon ``<= max_horizon`` or ``None``, and ``publish(horizon,
    state)`` persists a freshly captured one.  On a hit *every* cell —
    including the would-be donor — installs the stored state instead
    of replaying the shared prefix; on a miss the donor's freshly
    computed prefix is published for future runs.  A batch of one cell
    with a warm-start adapter is exactly a solo replay that can skip
    its prefix.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not caps_per_cell:
        raise ValueError("need at least one cell")
    if isinstance(policy, str):
        policy = (
            platform.make_policy(policy, machine.freq_table)
            if platform is not None
            else make_policy(policy, machine.freq_table)
        )
    specs = [s for s in jobs if s.submit_time <= duration]

    cells: list[_Cell] = []
    for caps in caps_per_cell:
        engine = SimEngine()
        recorder = MetricsRecorder(machine.freq_table.frequencies)
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

    batch = BatchNodeArrays([c.controller.accountant for c in cells])

    slack = _fork_slack(policy, cells[0].controller, specs)
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
        # earlier windows published it); all reservation boundaries
        # still lie at or beyond fork_t, so lockstep is unaffected.
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
            fork_t = 0.0
    else:
        fork_t = 0.0
        for cell in cells:
            _schedule_submissions(cell, specs)

    # Lockstep: advance every cell to each shared window boundary, then
    # to the end of the replay.  A cell already past a boundary (the
    # donor after a vetoed fork) treats the slice as a no-op.
    edges = sorted(
        {
            b
            for cell in cells
            for b in cell.controller.registry.boundaries()
            if fork_t < b < duration
        }
    )
    for horizon in edges:
        for cell in cells:
            cell.engine.run(until=horizon)
    for cell in cells:
        cell.engine.run(until=duration)

    batch.verify()

    results = []
    for cell in cells:
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
