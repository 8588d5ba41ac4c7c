"""The central RJMS controller (the simulated ``slurmctld``).

Owns the cluster state (through the power accountant), the pending
queue, the reservations, and the two-phase powercap algorithm:

* the **offline** phase runs when powercap reservations are
  registered — it plans grouped switch-off reservations (Algorithm 1,
  :class:`repro.core.offline.OfflinePlanner`);
* the **online** phase runs inside every scheduling pass — it selects
  each starting job's CPU frequency against the active and planned
  caps (Algorithm 2, :class:`repro.core.online.FrequencySelector`).

Scheduling passes implement SLURM's pipeline: multifactor priority
ordering, FCFS until the first blocked job, then EASY backfilling
bounded by ``backfill_depth``.

Most candidates of a pass cannot start for reasons that need no
frequency decision, so the pass screens its ranked candidates with
array bounds first and runs Algorithm 2, the EASY check and node
placement (``_try_start``) only on those that pass all three:

(a) ``n_nodes <= free_total``;
(b) once the blocker's EASY window exists: ``n_nodes <= extra_nodes``
    or ``now + walltime <= shadow_time``;
(c) when ``n_nodes > free_clear``: no pending shutdown reservation
    starts before ``now + walltime``.

Each bound is one of ``_try_start``'s own checks with the expected
end ``now + walltime * degradation`` replaced by ``now + walltime``.
That is exact, not a heuristic: every degradation factor is at least 1
(``degradation_factor`` rejects ``degmin < 1``), and IEEE multiplication
and addition round monotonically, so ``now + walltime * degradation >=
now + walltime`` holds in floating point too; the EASY test and
``ShutdownReservation.overlaps`` only get harder to pass as the end
grows.  A candidate that fails a bound is one ``_try_start`` would
reject without side effects, and the first candidate that fails,
screened or not, still becomes the blocker.  Power rejections are not
screened per candidate: they still go through ``decide``.

Before the screen, an **active-cap gate** skips the passes an active
cap cannot admit anything in (the paper's default waits for running
jobs to drain under the cap).  When a cap is active and even the
narrowest pending job, at the selector's cheapest allowed step
(``FrequencySelector.d_min``), draws more than the headroom,
``narrowest * d_min > (cap - power) + tol``
(:func:`~repro.core.online.active_cap_rejects`), the pass advances
the fair-share decay, as the ranking it skips would have, and
returns.  That is exact too: every selector rejects a job whose extra
draw exceeds the active headroom plus that same tolerance at every
step it may choose (Algorithm 2's ladder walk and its final strict
gate, the top-only walk of SHUT, IDLE and ADAPTIVE's model branch,
TRACK's walk down from its setpoint, the ``cluster_frequency_rule``
ablation), comparing the same float expression; for ``n >=
narrowest`` and any allowed step delta ``d >= d_min >= 0``, ``n * d
>= narrowest * d_min`` holds in floating point, as IEEE
multiplication rounds monotonically.  So every ranked candidate would
fail ``decide``, nothing would start, and a pass that starts nothing
changes no state but the decay.  A step drawing less than idle
(``d_min < 0``) disables the gate.

The pass reads the running jobs through an **index** updated where
the running set changes (a start, an end, a re-stretch) and rebuilt
by a fork install, not through a walk over every running job:

* the EASY order, ``(expected_end, n_nodes)`` kept sorted by
  ``(expected_end, start sequence)`` with ``bisect`` — the order a
  stable sort by end over ``running`` gives, as ``running`` is in
  start order and a re-stretch keeps a job's place there (and its
  sequence number);
* each running job's ``(expected_end, busy delta watts)`` in
  ``running`` order, which :class:`~repro.core.online.PowercapView`
  adds to each future window's base one at a time, exactly the
  additions a walk over the jobs makes.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.states import NodeState
from repro.core.offline import OfflinePlanner, ShutdownPlan
from repro.core.online import PowercapView, active_cap_rejects
from repro.core.policies import Policy, make_policy
from repro.rjms.backfill import BackfillWindow, easy_backfill_window
from repro.rjms.config import SchedulerConfig
from repro.rjms.fairshare import FairShare
from repro.rjms.job import Job, JobState
from repro.rjms.queue import PendingQueue
from repro.rjms.reservations import (
    PowercapReservation,
    ReservationRegistry,
    ShutdownReservation,
)
from repro.sim.engine import EventKind, SimEngine
from repro.sim.metrics import MetricsRecorder
from repro.workload.spec import JobSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.spec import PlatformSpec


class _PassAllocator:
    """Node allocation bookkeeping for one scheduling pass.

    Free nodes are split into a *reserved* segment (member of some
    shutdown reservation) and a *clear* segment.  Jobs whose expected
    execution overlaps a shutdown window may only take clear nodes;
    other jobs consume reserved nodes first, leaving clear capacity
    for window-crossing jobs.  Node ids are consumed in ascending
    order inside each segment, which packs enclosures naturally.
    """

    def __init__(self, free_ids: np.ndarray, reserved_mask: np.ndarray) -> None:
        in_res = reserved_mask[free_ids]
        self._reserved = free_ids[in_res]
        self._clear = free_ids[~in_res]
        self._p_res = 0
        self._p_clear = 0

    @property
    def free_total(self) -> int:
        return (len(self._reserved) - self._p_res) + (len(self._clear) - self._p_clear)

    @property
    def free_clear(self) -> int:
        return len(self._clear) - self._p_clear

    def take(self, n: int, *, clear_only: bool) -> np.ndarray | None:
        """Consume ``n`` nodes, or return None without consuming."""
        if clear_only:
            if self.free_clear < n:
                return None
            out = self._clear[self._p_clear : self._p_clear + n]
            self._p_clear += n
            return out
        if self.free_total < n:
            return None
        n_res = min(n, len(self._reserved) - self._p_res)
        parts = []
        if n_res:
            parts.append(self._reserved[self._p_res : self._p_res + n_res])
            self._p_res += n_res
        n_clear = n - n_res
        if n_clear:
            parts.append(self._clear[self._p_clear : self._p_clear + n_clear])
            self._p_clear += n_clear
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class Controller:
    """Simulated resource and job management controller."""

    def __init__(
        self,
        machine: Machine,
        policy: Policy | str,
        engine: SimEngine,
        *,
        config: SchedulerConfig | None = None,
        powercaps: Sequence[PowercapReservation] = (),
        recorder: MetricsRecorder | None = None,
        platform: "PlatformSpec | None" = None,
    ) -> None:
        self.machine = machine
        # A string policy resolves against the platform's degradation
        # model when one is given; bare strings keep the paper's
        # constants (the pre-registry behaviour).
        if isinstance(policy, str):
            policy = (
                platform.make_policy(policy, machine.freq_table)
                if platform is not None
                else make_policy(policy, machine.freq_table)
            )
        self.policy = policy
        self.engine = engine
        self.config = config or SchedulerConfig()
        self.accountant = machine.new_accountant()
        self.registry = ReservationRegistry(machine.n_nodes)
        self.fairshare = FairShare(self.config.n_users)
        self.queue = PendingQueue(
            machine.total_cores, self.config.priority, self.fairshare
        )
        # The two phases come from the policy's strategy objects
        # (repro.policy.strategies): the shutdown-planning strategy
        # parameterises the offline planner, the frequency-selection
        # strategy builds the online selector — no policy-kind
        # branching in the controller itself.
        self.offline_planner = OfflinePlanner(machine, self.policy)
        self.freq_selector = self.policy.frequency_strategy.build_selector(
            self.policy, config=self.config, planner=self.offline_planner
        )
        self.recorder = recorder or MetricsRecorder(machine.freq_table.frequencies)
        self.running: dict[int, Job] = {}
        self.jobs: dict[int, Job] = {}
        self.shutdown_plans: list[ShutdownPlan] = []
        #: jobs too wide for the machine, dropped at submission
        self.rejected: list[int] = []
        #: per-node count of active shutdown reservations wanting it off
        self._shutdown_wanted = np.zeros(machine.n_nodes, dtype=np.int16)
        #: cores currently computing per DVFS step (utilisation series)
        self._cores_by_freq = np.zeros(len(machine.freq_table), dtype=np.float64)
        self._pass_pending = False
        self._last_pass = -math.inf
        self._end_events: dict[int, object] = {}
        #: idle free list, cached against the accountant's version so a
        #: pass skips the O(n_nodes) scan when no node changed state
        self._free_ids = np.empty(0, dtype=np.int64)
        self._free_version = -1
        #: reservation mask cache, keyed by the indices of the pending
        #: shutdown reservations (their node sets never change)
        self._reserved_mask = np.zeros(machine.n_nodes, dtype=bool)
        self._mask_key: tuple[int, ...] | None = None
        #: the running-job index (module docstring): ``(expected_end,
        #: n_nodes)`` in EASY order with its ``(expected_end, start
        #: seq)`` sort keys, each job's key, and each job's
        #: ``(expected_end, busy delta watts)`` in running order
        self._easy_keys: list[tuple[float, int]] = []
        self._easy_rows: list[tuple[float, int]] = []
        self._easy_key_of: dict[int, tuple[float, int]] = {}
        self._power_rows: dict[int, tuple[float, float]] = {}
        self._next_seq = 0

        if self.policy.enforces_caps:
            for cap in powercaps:
                self._register_powercap(cap)
        self._record()

    # -- reservation / offline phase -------------------------------------------------------

    def _register_powercap(self, cap: PowercapReservation) -> None:
        """Register a cap window and run the offline phase for it."""
        self.registry.add_powercap(cap)
        plan = self.offline_planner.plan(cap)
        self.shutdown_plans.append(plan)
        if plan.reservation is not None:
            self.registry.add_shutdown(plan.reservation)
            self._schedule_window_events(plan.reservation)
        self.engine.at(
            max(cap.start, self.engine.now),
            lambda c=cap: self._on_cap_begin(c),
            kind=EventKind.POWERCAP_BEGIN,
        )
        if math.isfinite(cap.end):
            self.engine.at(
                cap.end, lambda: self._request_pass(), kind=EventKind.POWERCAP_END
            )

    def _schedule_window_events(self, sd: ShutdownReservation) -> None:
        self.engine.at(
            max(sd.start, self.engine.now),
            lambda s=sd: self._on_shutdown_begin(s),
            kind=EventKind.POWERCAP_BEGIN,
        )
        if math.isfinite(sd.end):
            self.engine.at(
                sd.end, lambda s=sd: self._on_shutdown_end(s), kind=EventKind.POWERCAP_END
            )

    # -- job submission --------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job | None:
        """Accept a job into the pending queue.

        Jobs wider than the machine are rejected (they could never
        run), mirroring a submit-time limit check.
        """
        n_nodes = self.machine.nodes_for_cores(spec.cores)
        if n_nodes > self.machine.n_nodes:
            self.rejected.append(spec.job_id)
            return None
        job = Job(spec=spec, n_nodes=n_nodes)
        self.jobs[spec.job_id] = job
        self.queue.add(job)
        self.recorder.job_submitted(spec.job_id, spec.cores, n_nodes, self.engine.now)
        self._request_pass()
        return job

    # -- event handlers -----------------------------------------------------------------------

    def _on_job_end(self, job: Job, *, killed: bool = False) -> None:
        now = self.engine.now
        job.finish(now, killed=killed)
        self.running.pop(job.job_id)
        self._unindex(job.job_id)
        del self._power_rows[job.job_id]
        self._end_events.pop(job.job_id, None)
        assert job.nodes is not None and job.freq_index is not None
        self._release_nodes(job.nodes)
        # Utilisation/work is accounted in *allocated* cores (whole
        # nodes), like SLURM's CPUTime for exclusive-node jobs and the
        # paper's sleep-job replay.
        self._cores_by_freq[job.freq_index] -= job.n_nodes * self.machine.cores_per_node
        elapsed = now - (job.start_time or now)
        self.fairshare.record_usage(job.user, job.cores * elapsed, now)
        self.recorder.job_finished(
            job.job_id, now, state="killed" if killed else "completed"
        )
        self._record()
        self._request_pass()

    def _release_nodes(self, nodes: np.ndarray) -> None:
        """Return nodes to IDLE — or straight to OFF when a shutdown
        reservation is waiting for them (deferred switch-off of nodes
        that were still running jobs at the window start)."""
        wanted = self._shutdown_wanted[nodes] > 0
        to_off = nodes[wanted]
        to_idle = nodes[~wanted]
        if to_idle.size:
            self.accountant.set_state(to_idle, NodeState.IDLE)
        if to_off.size:
            self._power_off(to_off)

    def _power_off(self, nodes: np.ndarray) -> None:
        delay = self.config.shutdown_delay
        if delay > 0:
            self.accountant.set_state(nodes, NodeState.SHUTTING_DOWN)
            self.engine.after(
                delay,
                lambda n=nodes: self._finish_power_off(n),
                kind=EventKind.NODE_TRANSITION,
            )
        else:
            self.accountant.set_state(nodes, NodeState.OFF)

    def _finish_power_off(self, nodes: np.ndarray) -> None:
        still_wanted = self._shutdown_wanted[nodes] > 0
        if still_wanted.any():
            self.accountant.set_state(nodes[still_wanted], NodeState.OFF)
        back = nodes[~still_wanted]
        if back.size:
            # The window ended during the transition.
            self.accountant.set_state(back, NodeState.IDLE)
        self._record()
        self._request_pass()

    def _on_shutdown_begin(self, sd: ShutdownReservation) -> None:
        self._shutdown_wanted[sd.nodes] += 1
        state = self.accountant.state[sd.nodes]
        idle = sd.nodes[state == NodeState.IDLE]
        if idle.size:
            self._power_off(idle)
        self._record()
        self._request_pass()

    def _on_shutdown_end(self, sd: ShutdownReservation) -> None:
        self._shutdown_wanted[sd.nodes] -= 1
        free_again = sd.nodes[self._shutdown_wanted[sd.nodes] == 0]
        state = self.accountant.state[free_again]
        off = free_again[state == NodeState.OFF]
        if off.size:
            delay = self.config.boot_delay
            if delay > 0:
                self.accountant.set_state(off, NodeState.BOOTING)
                self.engine.after(
                    delay,
                    lambda n=off: self._finish_boot(n),
                    kind=EventKind.NODE_TRANSITION,
                )
            else:
                self.accountant.set_state(off, NodeState.IDLE)
        self._record()
        self._request_pass()

    def _finish_boot(self, nodes: np.ndarray) -> None:
        still_wanted = self._shutdown_wanted[nodes] > 0
        back = nodes[~still_wanted]
        if back.size:
            self.accountant.set_state(back, NodeState.IDLE)
        if still_wanted.any():
            self.accountant.set_state(nodes[still_wanted], NodeState.OFF)
        self._record()
        self._request_pass()

    def _on_cap_begin(self, cap: PowercapReservation) -> None:
        """Cap window opens.  Default: wait for drain if over budget;
        with ``dynamic_rescaling``: lower running jobs' frequencies
        first (Section VIII future work); with ``kill_on_violation``:
        kill the youngest running jobs until the cluster fits (the
        paper's "extreme actions")."""
        if self.config.dynamic_rescaling and self.policy.uses_dvfs:
            self._rescale_running_jobs(cap.watts)
        if self.config.kill_on_violation:
            victims = sorted(
                self.running.values(),
                key=lambda j: (-(j.start_time or 0.0), j.job_id),
            )
            for job in victims:
                if self.accountant.total_power() <= cap.watts:
                    break
                ev = self._end_events.get(job.job_id)
                if ev is not None:
                    SimEngine.cancel(ev)
                self._on_job_end(job, killed=True)
        self._record()
        self._request_pass()

    def _rescale_running_jobs(self, cap_watts: float) -> None:
        """Step running jobs down the policy's frequency ladder until
        the cluster fits under ``cap_watts`` (or everything is at the
        lowest allowed step).

        The remaining execution is re-stretched by the ratio of the
        new and old degradation factors; the completion event moves
        accordingly.  Youngest jobs are slowed first (they have the
        most execution left to benefit from power savings).
        """
        allowed_desc = self.policy.frequency_indices_desc()
        lowest = allowed_desc[-1]
        pos_of = {idx: pos for pos, idx in enumerate(allowed_desc)}
        victims = sorted(
            self.running.values(),
            key=lambda j: (-(j.start_time or 0.0), j.job_id),
        )
        now = self.engine.now
        changed = False
        while self.accountant.total_power() > cap_watts:
            stepped = False
            for job in victims:
                assert job.freq_index is not None and job.nodes is not None
                pos = pos_of.get(job.freq_index)
                if pos is None or job.freq_index == lowest:
                    continue
                new_index = allowed_desc[pos + 1]
                new_ghz = self.machine.freq_table.steps[new_index].ghz
                new_deg = self.policy.degradation(new_ghz)
                old_deg = job.degradation
                # The job's *scheduled* completion, which already folds
                # in any earlier re-stretches; recomputing it from
                # start_time + stretched_runtime is only valid for a
                # job's first down-step and would inflate the remaining
                # work of every later one.
                ev_old = self._end_events.get(job.job_id)
                old_end = (
                    ev_old.time
                    if ev_old is not None
                    else job.start_time + job.stretched_runtime
                )
                remaining = max(old_end - now, 0.0)
                # Re-stretch only the remaining execution.
                new_remaining = remaining * (new_deg / old_deg)
                self.accountant.set_state(
                    job.nodes, NodeState.BUSY, freq_index=new_index
                )
                cores = job.n_nodes * self.machine.cores_per_node
                self._cores_by_freq[job.freq_index] -= cores
                self._cores_by_freq[new_index] += cores
                # expected_end stretches with the new degradation: the
                # job re-enters the index under its old start sequence
                seq = self._unindex(job.job_id)
                job.freq_index = new_index
                job.freq_ghz = new_ghz
                job.degradation = new_deg
                self._index(job, seq)
                ev = self._end_events.get(job.job_id)
                if ev is not None:
                    SimEngine.cancel(ev)
                new_ev = self.engine.at(
                    now + new_remaining,
                    lambda j=job: self._on_job_end(j),
                    kind=EventKind.JOB_END,
                )
                self._end_events[job.job_id] = new_ev
                rec = self.recorder.jobs.get(job.job_id)
                if rec is not None:
                    rec.freq_ghz = new_ghz
                    rec.degradation = new_deg
                changed = True
                stepped = True
                if self.accountant.total_power() <= cap_watts:
                    break
            if not stepped:
                break
        if changed:
            self._record()

    # -- scheduling pass ---------------------------------------------------------------------

    def _request_pass(self) -> None:
        if self._pass_pending:
            return
        now = self.engine.now
        at = now
        if self.config.min_pass_interval > 0:
            at = max(now, self._last_pass + self.config.min_pass_interval)
        self._pass_pending = True
        self.engine.at(at, self._sched_pass, kind=EventKind.SCHED_PASS)

    def _free_idle_ids(self) -> np.ndarray:
        """Idle node ids, rescanned only when the accountant changed."""
        acct = self.accountant
        if self._free_version != acct.version:
            self._free_ids = np.flatnonzero(acct.state == NodeState.IDLE)
            self._free_version = acct.version
        return self._free_ids

    def _pending_shutdowns(self, now: float) -> list[ShutdownReservation]:
        """Shutdown reservations protecting nodes at ``now``, with the
        reservation mask refreshed only when the pending set changes.

        Reservations start protecting their nodes one drain horizon
        ahead of the window (see SchedulerConfig); their node sets are
        immutable, so the mask is keyed by the identities of the
        pending reservations (the registry keeps them alive, and —
        unlike list positions — identities survive the registry
        re-sorting on a later ``add_shutdown``).
        """
        horizon = self.config.reservation_drain_horizon
        pending = [
            sd
            for sd in self.registry.shutdowns
            if sd.end > now and (math.isinf(horizon) or now >= sd.start - horizon)
        ]
        key = tuple(id(sd) for sd in pending)
        if key != self._mask_key:
            self._reserved_mask[:] = False
            for sd in pending:
                self._reserved_mask[sd.nodes] = True
            self._mask_key = key
        return pending

    # -- running-job index (see the module docstring) ----------------------------------------

    def _index(self, job: Job, seq: int) -> None:
        """Enter a running job under start sequence ``seq``; a job
        already in the index (a re-stretch) keeps its running-order
        place."""
        end = job.expected_end
        key = (end, seq)
        i = bisect.bisect_left(self._easy_keys, key)
        self._easy_keys.insert(i, key)
        self._easy_rows.insert(i, (end, job.n_nodes))
        self._easy_key_of[job.job_id] = key
        self._power_rows[job.job_id] = (
            end,
            self.accountant.busy_delta_watts(job.n_nodes, job.freq_index),
        )

    def _unindex(self, job_id: int) -> int:
        """Take a job out of the EASY order; returns its start sequence."""
        key = self._easy_key_of.pop(job_id)
        i = bisect.bisect_left(self._easy_keys, key)
        del self._easy_keys[i]
        del self._easy_rows[i]
        return key[1]

    def _reindex_running(self) -> None:
        """Rebuild the running-job index from :attr:`running` (after a
        fork install replaced it), numbering the jobs in running order."""
        self._easy_keys, self._easy_rows = [], []
        self._easy_key_of, self._power_rows = {}, {}
        for seq, job in enumerate(self.running.values()):
            self._index(job, seq)
        self._next_seq = len(self.running)

    def _sched_pass(self) -> None:
        self._pass_pending = False
        now = self.engine.now
        self._last_pass = now
        # Feedback selectors may re-select *running* jobs' frequencies
        # against the observed consumption before any admission
        # decision; the paper's Algorithm 2 selectors never do
        # (tracks_observed False), keeping the drained-pass fast path.
        if self.freq_selector.tracks_observed and self.policy.enforces_caps:
            target = self.freq_selector.pass_rescale_watts(
                self.registry.cap_at(now)
            )
            if target is not None and self.accountant.total_power() > target:
                self._rescale_running_jobs(target)
        if len(self.queue) == 0:
            return

        free_ids = self._free_idle_ids()
        if free_ids.size == 0:
            if not self.config.backfill:
                return
            # Nothing can start (every allocation needs >= 1 node) and
            # a pass mutates nothing else — except that the priority
            # ordering it would have computed advances the fair-share
            # usage decay.  Apply that decay step explicitly so the
            # fast path leaves bit-identical state behind.
            self.fairshare.decay_to(now)
            return
        # The active-cap gate (see the module docstring): no candidate
        # could pass `decide`, so the pass would start nothing; keep
        # only the decay step its ranking would have taken.
        if self.policy.enforces_caps:
            cap = self.registry.cap_at(now)
            if math.isfinite(cap) and active_cap_rejects(
                self.queue.min_nodes(),
                self.freq_selector.d_min,
                cap,
                self.accountant.total_power(),
            ):
                self.fairshare.decay_to(now)
                return
        pending_sds = self._pending_shutdowns(now)
        alloc = _PassAllocator(free_ids, self._reserved_mask)
        ids, widths, walltimes = self.queue.order(
            now, limit=self.config.backfill_depth
        )
        # The screen (see the module docstring): a candidate reaches
        # _try_start only if (a) it fits the free nodes, (b) it fits
        # the blocker's EASY window, and (c) it fits the clear nodes or
        # ends before every pending shutdown starts.  `ends` is a floor
        # on each expected end, as no degradation factor is below 1, so
        # a candidate failing a bound is one _try_start would reject
        # without side effects.
        ends = now + walltimes
        clear_of_shutdowns = ends <= min(
            (sd.start for sd in pending_sds), default=math.inf
        )
        view: PowercapView | None = None
        #: per-pass memo of frequency decisions keyed by the decision's
        #: full input (n_nodes, walltime); the view only changes when a
        #: job starts, which clears the memo (walltimes cluster on the
        #: default limit and the queue-menu grains, so blocked passes
        #: collapse to a handful of distinct ladder walks)
        decide_cache: dict[tuple[int, float], object] = {}

        def try_start(pos: int, window: BackfillWindow | None) -> bool:
            nonlocal view
            if view is None:
                # Built on first use: nothing has started yet this
                # pass, so it sees what a pass-start view would.
                view = (
                    PowercapView(
                        self.registry, self.accountant, now, self._power_rows.values()
                    )
                    if self.policy.enforces_caps
                    else PowercapView(ReservationRegistry(0), self.accountant, now, ())
                )
            job = self.queue.job(int(ids[pos]))
            return self._try_start(
                job, now, view, alloc, pending_sds, window, decide_cache
            )

        # FCFS: candidates start in priority order until one cannot,
        # by bound (a) or (c) or inside _try_start.
        pos = 0
        while pos < len(ids):
            fits = widths[pos] <= alloc.free_total and (
                clear_of_shutdowns[pos] or widths[pos] <= alloc.free_clear
            )
            if not (fits and try_start(pos, None)):
                break
            pos += 1
        if pos == len(ids) or alloc.free_total == 0 or not self.config.backfill:
            return
        # That candidate is the blocker: compute its EASY reservation.
        window = easy_backfill_window(
            self.queue.job(int(ids[pos])).n_nodes,
            alloc.free_total,
            self._easy_rows,
            now,
            presorted=True,
        )
        in_window = (widths <= window.extra_nodes) | (ends <= window.shadow_time)
        # Backfill: only candidates inside all three bounds reach
        # _try_start.  A rejection changes nothing, so the screen is
        # recomputed only after a start.
        pos += 1
        while pos < len(ids):
            could_start = (
                in_window
                & (widths <= alloc.free_total)
                & (clear_of_shutdowns | (widths <= alloc.free_clear))
            )
            for p in (pos + np.flatnonzero(could_start[pos:])).tolist():
                if try_start(p, window):
                    pos = p + 1
                    break
            else:
                return

    def _try_start(
        self,
        job: Job,
        now: float,
        view: PowercapView,
        alloc: _PassAllocator,
        pending_sds: list[ShutdownReservation],
        window: BackfillWindow | None,
        decide_cache: dict[tuple[int, float], object] | None = None,
    ) -> bool:
        # Online phase: frequency decision (Algorithm 2).  The decision
        # is a pure function of (n_nodes, walltime) and the pass view,
        # so identical candidates reuse the memoised result until a
        # start changes the view.
        key = (job.n_nodes, job.spec.walltime)
        decision = decide_cache.get(key) if decide_cache is not None else None
        if decision is None:
            decision = self.freq_selector.decide(job.n_nodes, job.spec.walltime, view)
            if decide_cache is not None:
                decide_cache[key] = decision
        if not decision.ok:
            return False
        expected_end = now + job.spec.walltime * decision.degradation
        # EASY constraint for backfilled jobs.
        if window is not None and not window.admits(job.n_nodes, expected_end):
            return False
        # Node selection: stay off nodes whose shutdown window overlaps
        # the job's expected execution.
        overlap = any(sd.overlaps(now, expected_end) for sd in pending_sds)
        nodes = alloc.take(job.n_nodes, clear_only=overlap)
        if nodes is None:
            return False
        self._start_job(job, nodes, decision, now)
        view.note_start(job.n_nodes, decision.freq_index, expected_end)
        if decide_cache is not None:
            decide_cache.clear()
        return True

    def _start_job(self, job, nodes: np.ndarray, decision, now: float) -> None:
        self.queue.remove(job.job_id)
        job.start(
            now, nodes, decision.freq_index, decision.freq_ghz, decision.degradation
        )
        self.running[job.job_id] = job
        self._index(job, self._next_seq)
        self._next_seq += 1
        self.accountant.set_state(nodes, NodeState.BUSY, freq_index=decision.freq_index)
        self._cores_by_freq[decision.freq_index] += job.n_nodes * self.machine.cores_per_node
        ev = self.engine.at(
            now + job.stretched_runtime,
            lambda j=job: self._on_job_end(j),
            kind=EventKind.JOB_END,
        )
        self._end_events[job.job_id] = ev
        self.recorder.job_started(
            job.job_id, now, decision.freq_ghz, decision.degradation
        )
        self._record()

    # -- instrumentation ------------------------------------------------------------------------

    def _record(self) -> None:
        acct = self.accountant
        ft = self.machine.freq_table
        topo = self.machine.topology
        counts = acct.count_by_state
        off_nodes = int(counts[NodeState.OFF] + counts[NodeState.SHUTTING_DOWN])
        dark_nodes = acct.n_dark_chassis * topo.nodes_per_chassis
        self.recorder.sample(
            self.engine.now,
            cores_by_freq=self._cores_by_freq,
            off_cores=off_nodes * self.machine.cores_per_node,
            power_watts=acct.total_power(),
            idle_watts=float(counts[NodeState.IDLE]) * ft.idle_watts,
            down_watts=float(counts[NodeState.OFF] - dark_nodes) * ft.down_watts,
            infra_watts=(
                (topo.n_chassis - acct.n_dark_chassis) * topo.chassis_watts
                + (topo.racks - acct.n_dark_racks) * topo.rack_watts
            ),
            bonus_watts=acct.bonus_watts(),
            busy_watts=float((acct.busy_count_by_freq * ft.watts_array).sum()),
        )

    # -- convenience readings ----------------------------------------------------------------------

    @property
    def n_pending(self) -> int:
        return len(self.queue)

    @property
    def n_running(self) -> int:
        return len(self.running)

    def utilization(self) -> float:
        """Fraction of the machine's cores currently computing."""
        return float(self._cores_by_freq.sum()) / self.machine.total_cores
