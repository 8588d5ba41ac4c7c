"""The scheduling pass's candidate screen against the unscreened loop.

``Controller._sched_pass`` screens its ranked candidates with exact
node and time bounds and runs ``_try_start`` (Algorithm 2, the EASY
check, node placement) only on those inside all of them; under an
active cap it skips the whole pass when even the narrowest pending job
cannot fit, and it reads the running jobs through an index.
:func:`reference_sched_pass` is the loop without the screen, the gate
or the index: every candidate goes through ``_try_start`` in priority
order, and the EASY order and the power view are computed from
``running`` itself.  The two must replay every scenario
bit-identically — same trace digest, and every job started at the same
instant, frequency and nodes.
"""

import math
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.curie import curie_machine
from repro.cluster.frequency import FrequencyTable
from repro.core.online import _EPS, PowercapView, active_cap_rejects
from repro.exp.runner import replay_scenario, trace_digest
from repro.exp.spec import CapWindow, Scenario
from repro.platform import get_platform
from repro.rjms.backfill import easy_backfill_window
from repro.rjms.config import PriorityWeights, SchedulerConfig
from repro.rjms.controller import Controller, _PassAllocator
from repro.rjms.job import JobState
from repro.rjms.reservations import (
    PowercapReservation,
    ReservationRegistry,
    ShutdownReservation,
)
from repro.sim import batch
from repro.sim.engine import EventKind, SimEngine
from repro.workload.spec import JobSpec

HOUR = 3600.0

#: each platform at a few dozen nodes
SMALL_SCALES = {"curie": 1 / 56, "fatnode": 1.0, "manythin": 0.125}
POLICIES = ("NONE", "IDLE", "SHUT", "DVFS", "MIX", "ADAPTIVE", "TRACK")


def reference_easy_order(ctl: Controller) -> list[tuple[float, int]]:
    """``(expected_end, n_nodes)`` of every running job, stably sorted
    by end over running order: the O(running) rebuild the index
    replaces."""
    rows = [(job.expected_end, job.n_nodes) for job in ctl.running.values()]
    rows.sort(key=lambda r: r[0])
    return rows


def reference_power_rows(ctl: Controller) -> list[tuple[float, float]]:
    """``(expected_end, busy delta)`` of every running job in running
    order, derived from the jobs themselves."""
    return [
        (job.expected_end, ctl.accountant.busy_delta_watts(job.n_nodes, job.freq_index))
        for job in ctl.running.values()
    ]


def reference_sched_pass(self: Controller) -> None:
    """The scheduling pass without the screen, the active-cap gate or
    the running-job index: ``_try_start`` on every candidate in
    priority order; the first failure becomes the EASY blocker."""
    self._pass_pending = False
    now = self.engine.now
    self._last_pass = now
    if self.freq_selector.tracks_observed and self.policy.enforces_caps:
        target = self.freq_selector.pass_rescale_watts(self.registry.cap_at(now))
        if target is not None and self.accountant.total_power() > target:
            self._rescale_running_jobs(target)
    if len(self.queue) == 0:
        return
    free_ids = self._free_idle_ids()
    if free_ids.size == 0:
        if self.config.backfill:
            self.fairshare.decay_to(now)
        return
    pending_sds = self._pending_shutdowns(now)
    alloc = _PassAllocator(free_ids, self._reserved_mask)
    view = (
        PowercapView(self.registry, self.accountant, now, reference_power_rows(self))
        if self.policy.enforces_caps
        else PowercapView(ReservationRegistry(0), self.accountant, now, ())
    )
    window = None
    decide_cache = {}
    for jid in self.queue.order(now, limit=self.config.backfill_depth)[0]:
        job = self.queue.job(int(jid))
        started = self._try_start(
            job, now, view, alloc, pending_sds, window, decide_cache
        )
        if not started and window is None:
            window = easy_backfill_window(
                job.n_nodes,
                alloc.free_total,
                reference_easy_order(self),
                now,
                presorted=True,
            )
            if not self.config.backfill:
                break
        if alloc.free_total == 0:
            break


def _outcome(controller: Controller):
    """Trace digest plus (start, frequency, nodes) of every job."""
    starts = {
        jid: (
            job.start_time,
            job.freq_index,
            None if job.nodes is None else job.nodes.tolist(),
        )
        for jid, job in controller.jobs.items()
    }
    return trace_digest(controller.recorder), starts


def _replay_both(scenario: Scenario):
    screened = replay_scenario(scenario)
    with mock.patch.object(Controller, "_sched_pass", reference_sched_pass):
        reference = replay_scenario(scenario)
    return screened.controller, reference.controller


def _scenario(platform, policy, *, caps, config, interval="medianjob", seed=0):
    return Scenario(
        name="screen",
        interval=interval,
        policy=policy,
        platform=platform,
        scale=SMALL_SCALES[platform],
        duration=2 * HOUR,
        seed=seed,
        caps=tuple(caps),
        config=tuple(sorted(config.items())),
    )


#: one setting per knob the screen reads, cycled over the matrix below
CONFIGS = (
    {},
    {"reservation_drain_horizon": 0.0},
    {"reservation_drain_horizon": 900.0, "shutdown_delay": 60.0, "boot_delay": 120.0},
    {"backfill": False},
    {"strict_future_caps": True},
    {"reservation_drain_horizon": 0.0, "backfill": False, "boot_delay": 300.0},
    {"strict_future_caps": True, "shutdown_delay": 30.0},
)


@pytest.mark.parametrize("platform", sorted(SMALL_SCALES))
@pytest.mark.parametrize("k, policy", list(enumerate(POLICIES)))
def test_every_policy_and_platform_replays_like_the_reference(platform, k, policy):
    """Each policy on each platform, under a cap window that opens
    mid-replay and a later, tighter one."""
    config = CONFIGS[(k + sorted(SMALL_SCALES).index(platform)) % len(CONFIGS)]
    scenario = _scenario(
        platform,
        policy,
        caps=(CapWindow(1800.0, 3600.0, 0.5), CapWindow(4500.0, 5400.0, 0.35)),
        config=config,
    )
    screened, reference = _replay_both(scenario)
    assert _outcome(screened) == _outcome(reference)
    assert any(job.start_time is not None for job in screened.jobs.values())


@st.composite
def scenarios(draw):
    """A small replay: platform x policy x 1-2 cap windows at random
    starts x every scheduler knob the screen depends on."""
    platform = draw(st.sampled_from(sorted(SMALL_SCALES)))
    caps, t = [], 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        start = t + 60.0 * draw(st.integers(min_value=0, max_value=30))
        end = start + 60.0 * draw(st.integers(min_value=5, max_value=25))
        caps.append(CapWindow(start, end, draw(st.integers(30, 90)) / 100))
        t = end
    config = {
        "reservation_drain_horizon": draw(st.sampled_from((0.0, 600.0, math.inf))),
        "backfill": draw(st.booleans()),
        "strict_future_caps": draw(st.booleans()),
        "shutdown_delay": draw(st.sampled_from((0.0, 45.0))),
        "boot_delay": draw(st.sampled_from((0.0, 150.0))),
    }
    return _scenario(
        platform,
        draw(st.sampled_from(POLICIES)),
        caps=caps,
        config=config,
        interval=draw(st.sampled_from(("medianjob", "smalljob", "bigjob"))),
        seed=draw(st.integers(min_value=0, max_value=99)),
    )


@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(scenario=scenarios())
def test_generated_scenarios_replay_like_the_reference(scenario):
    screened, reference = _replay_both(scenario)
    assert _outcome(screened) == _outcome(reference)


def test_the_screen_skips_most_candidates():
    """Not a vacuous equivalence: on a loaded replay most candidates
    never reach ``_try_start``."""
    scenario = _scenario(
        "curie",
        "MIX",
        caps=(CapWindow(1800.0, 3600.0, 0.5),),
        config={"reservation_drain_horizon": 900.0},
    )
    original = Controller._try_start
    calls = {"screened": 0, "reference": 0}
    side = "screened"

    def counting(ctl, *args):
        calls[side] += 1
        return original(ctl, *args)

    with mock.patch.object(Controller, "_try_start", counting):
        screened = replay_scenario(scenario)
        side = "reference"
        with mock.patch.object(Controller, "_sched_pass", reference_sched_pass):
            reference = replay_scenario(scenario)
    assert _outcome(screened.controller) == _outcome(reference.controller)
    assert 0 < calls["screened"] < calls["reference"] / 5


def test_the_gate_skips_passes_under_a_tight_cap():
    """Not a vacuous equivalence either: under a tight cap the
    active-cap gate skips passes, and the replay stays identical."""
    scenario = _scenario("curie", "IDLE", caps=(CapWindow(1800.0, 5400.0, 0.4),), config={})
    gated = []

    def counting_gate(*args):
        rejects = active_cap_rejects(*args)
        gated.append(rejects)
        return rejects

    with mock.patch("repro.rjms.controller.active_cap_rejects", counting_gate):
        screened = replay_scenario(scenario)
    with mock.patch.object(Controller, "_sched_pass", reference_sched_pass):
        reference = replay_scenario(scenario)
    assert _outcome(screened.controller) == _outcome(reference.controller)
    assert sum(gated) > 100


# -- the bounds' edges -------------------------------------------------------------------
#
# One-rack Curie (90 nodes of 16 cores), FCFS priorities, policy NONE
# (every decision runs at the top step, degradation exactly 1), so a
# job's expected end is exactly ``now + walltime``.


class _Run:
    """A hand-built replay, run with the screened pass and with the
    reference loop; records which jobs reached ``_try_start`` and the
    instants of the passes the active-cap gate skipped (``gated``).
    ``cap`` is an active cap from t = 0 on."""

    def __init__(self, *, shutdown=None, policy="NONE", cap=None, machine=None, **config):
        self.shutdown = shutdown
        self.policy = policy
        self.caps = () if cap is None else (PowercapReservation(0.0, math.inf, cap),)
        self.machine = machine or curie_machine(scale=1 / 56)
        self.config = config
        self.specs: list[JobSpec] = []
        self.gated: list[float] = []
        self.reference: Controller | None = None

    def job(self, jid, submit, nodes, walltime, runtime=None):
        runtime = walltime if runtime is None else runtime
        self.specs.append(JobSpec(jid, submit, nodes * 16, runtime, walltime))

    def _replay(self, until):
        engine = SimEngine()
        config = SchedulerConfig(
            priority=PriorityWeights(age=1000, fairshare=0, job_size=0),
            **self.config,
        )
        ctrl = Controller(
            self.machine, self.policy, engine, config=config, powercaps=self.caps
        )
        if self.shutdown is not None:
            ctrl.registry.add_shutdown(self.shutdown)
        for spec in self.specs:
            engine.at(
                spec.submit_time,
                lambda s=spec: ctrl.submit(s),
                kind=EventKind.JOB_SUBMIT,
            )
        tried: list[int] = []
        gated: list[float] = []
        original = Controller._try_start

        def counting(ctl, job, *args):
            tried.append(job.job_id)
            return original(ctl, job, *args)

        def counting_gate(*args):
            rejects = active_cap_rejects(*args)
            if rejects:
                gated.append(engine.now)
            return rejects

        with mock.patch.object(Controller, "_try_start", counting), mock.patch(
            "repro.rjms.controller.active_cap_rejects", counting_gate
        ):
            engine.run(until=until)
        return ctrl, tried, gated

    def run(self, until):
        ctrl, tried, self.gated = self._replay(until)
        with mock.patch.object(Controller, "_sched_pass", reference_sched_pass):
            self.reference, _, _ = self._replay(until)
        assert _outcome(ctrl) == _outcome(self.reference)
        return ctrl, tried


def _window_setup(**config):
    """Job 1 holds 60 nodes until t=1000; job 2 (85 nodes, t=1) blocks
    with shadow time 1000 and 30 + 60 - 85 = 5 extra nodes."""
    run = _Run(**config)
    run.job(1, 0.0, nodes=60, walltime=1000.0)
    run.job(2, 1.0, nodes=85, walltime=200.0)
    return run


def test_end_exactly_at_the_shadow_time_is_admitted():
    run = _window_setup()
    run.job(3, 2.0, nodes=6, walltime=998.0)  # 2 + 998 == 1000
    run.job(4, 2.0, nodes=6, walltime=math.nextafter(998.0, math.inf))
    ctrl, tried = run.run(until=3.0)
    assert ctrl.jobs[3].start_time == 2.0
    assert ctrl.jobs[4].start_time is None
    assert 4 not in tried  # bound (b): wider than 5 and ends past 1000


def test_width_equal_to_the_extra_nodes_is_admitted():
    run = _window_setup()
    run.job(3, 2.0, nodes=5, walltime=86400.0)
    run.job(4, 2.0, nodes=6, walltime=86400.0)
    ctrl, tried = run.run(until=3.0)
    assert ctrl.jobs[3].start_time == 2.0
    assert ctrl.jobs[4].start_time is None
    assert 4 not in tried


def test_width_equal_to_the_clear_nodes_under_an_overlapping_shutdown():
    """Nodes 0-59 switch off over [1000, 2000): a job crossing t=1000
    may take only the 30 clear nodes."""
    sd = ShutdownReservation(1000.0, 2000.0, np.arange(60))
    run = _Run(shutdown=sd)
    run.job(1, 0.0, nodes=31, walltime=HOUR)  # screened out: the blocker
    run.job(2, 0.0, nodes=30, walltime=HOUR)
    ctrl, tried = run.run(until=1.0)
    assert ctrl.jobs[1].start_time is None and 1 not in tried
    assert ctrl.jobs[2].start_time == 0.0
    assert ctrl.jobs[2].nodes.tolist() == list(range(60, 90))


def test_shutdown_starting_exactly_at_the_end_does_not_overlap():
    sd = ShutdownReservation(1000.0, 2000.0, np.arange(60))
    run = _Run(shutdown=sd)
    run.job(1, 10.0, nodes=40, walltime=990.0)  # ends exactly at 1000
    run.job(2, 10.0, nodes=40, walltime=math.nextafter(990.0, math.inf))
    ctrl, tried = run.run(until=11.0)
    # Job 1 may use the reserved nodes, and takes them first.
    assert ctrl.jobs[1].start_time == 10.0
    assert ctrl.jobs[1].nodes.tolist() == list(range(40))
    # Job 2 crosses t=1000 and is wider than the 30 clear nodes.
    assert ctrl.jobs[2].start_time is None and 2 not in tried


def test_without_backfill_a_screened_out_blocker_ends_the_pass():
    run = _window_setup(backfill=False)
    run.job(3, 2.0, nodes=1, walltime=10.0)
    ctrl, tried = run.run(until=3.0)
    # Job 2 never reaches _try_start, yet job 3 stays behind it.
    assert tried == [1]
    assert ctrl.jobs[3].start_time is None


# -- the active-cap gate's edges ---------------------------------------------------------
#
# Policy IDLE runs every job at the top step (358 - 117 = 241 W per
# node on Curie) under a cap active from t = 0.


def _cap_at_gate_equality(machine):
    """``(n, cap)`` such that, on the idle machine, ``n * 241`` equals
    ``(cap - power) + tol`` exactly: the largest cap below ``power + n
    * 241`` where the tolerance lands the headroom on the draw."""
    power = machine.new_accountant().total_power()
    d_min = machine.freq_table.max.watts - machine.freq_table.idle_watts
    for n in range(1, machine.n_nodes + 1):
        cap = power + n * d_min
        while True:
            cap = math.nextafter(cap, -math.inf)
            room = (cap - power) + _EPS * max(1.0, abs(cap))
            if room == n * d_min:
                return n, cap
            if room < n * d_min:
                break
    raise AssertionError("no cap makes the draw equal the headroom")


def test_draw_equal_to_the_headroom_runs_the_pass():
    machine = curie_machine(scale=1 / 56)
    n, cap = _cap_at_gate_equality(machine)
    run = _Run(policy="IDLE", cap=cap)
    run.job(1, 0.0, nodes=n, walltime=HOUR)
    ctrl, tried = run.run(until=1.0)
    assert run.gated == [] and tried == [1]
    assert ctrl.jobs[1].start_time == 0.0
    # One node wider and the gate skips the pass.
    run = _Run(policy="IDLE", cap=cap)
    run.job(1, 0.0, nodes=n + 1, walltime=HOUR)
    ctrl, tried = run.run(until=1.0)
    assert run.gated and tried == []
    assert ctrl.jobs[1].start_time is None


@pytest.mark.parametrize("backfill", [True, False])
def test_a_gated_pass_keeps_the_fair_share_decay(backfill):
    """Passes skipped after job 1 charged its usage must decay it
    exactly as the ranking of the full pass would."""
    machine = curie_machine(scale=1 / 56)
    power = machine.new_accountant().total_power()
    run = _Run(policy="IDLE", cap=power + 50 * 241.0 + 1.0, backfill=backfill)
    run.job(1, 1.0, nodes=10, walltime=HOUR, runtime=50.0)
    run.job(2, 1.0, nodes=40, walltime=HOUR)
    run.job(3, 2.0, nodes=20, walltime=HOUR)  # 10 nodes' headroom from t=51
    run.job(4, 60.0, nodes=25, walltime=HOUR)
    run.job(5, 70.0, nodes=30, walltime=HOUR)
    ctrl, _ = run.run(until=100.0)
    assert [t for t in run.gated if t > 51.0] == [60.0, 70.0]
    usage, reference = ctrl.fairshare, run.reference.fairshare
    assert usage._usage.any()
    assert usage._usage.tobytes() == reference._usage.tobytes()
    assert usage._last_decay == reference._last_decay == 70.0


def test_the_gate_comes_after_the_drained_pass_fast_path():
    """With no idle node and backfill off, a pass leaves the decay
    alone even under a cap that admits nothing; the gate, which always
    decays, must not run first."""
    machine = curie_machine(scale=1 / 56)
    power = machine.new_accountant().total_power()
    run = _Run(policy="IDLE", cap=power + 90 * 241.0 + 1.0, backfill=False)
    run.job(1, 1.0, nodes=10, walltime=HOUR)
    run.job(2, 1.0, nodes=80, walltime=HOUR)
    run.job(3, 2.0, nodes=5, walltime=HOUR)  # 1 W of headroom left
    ctrl, tried = run.run(until=3.0)
    assert run.gated == [] and tried == [1, 2]
    assert ctrl.fairshare._last_decay == run.reference.fairshare._last_decay == 1.0


def test_a_step_below_idle_never_gates():
    """With a step drawing less than idle (``d_min < 0``), a wider job
    can get back under the cap where the narrowest cannot."""
    table = FrequencyTable([(1.2, 100.0), (2.7, 358.0)], idle_watts=117.0, down_watts=14.0)
    machine = replace(curie_machine(scale=1 / 56), freq_table=table)
    power = machine.new_accountant().total_power()
    cap = power - 20.0
    # Without the d_min >= 0 guard, the one-node job would gate the pass.
    assert 1 * (100.0 - 117.0) > (cap - power) + _EPS * cap
    run = _Run(policy="DVFS", cap=cap, machine=machine)
    run.job(1, 0.0, nodes=1, walltime=HOUR)
    run.job(2, 0.0, nodes=2, walltime=HOUR)
    ctrl, tried = run.run(until=1.0)
    assert ctrl.freq_selector.d_min == -17.0
    assert run.gated == [] and tried == [1, 2]
    assert ctrl.jobs[1].start_time is None
    assert ctrl.jobs[2].start_time == 0.0 and ctrl.jobs[2].freq_ghz == 1.2


# -- the running-job index against a rebuild ---------------------------------------------


def reference_window_bases(ctl: Controller, now: float) -> list[float]:
    """Each future window's projected base power from a walk over the
    running jobs, as ``PowercapView`` computed it before the index."""
    acct = ctl.accountant
    future = ctl.registry.future_caps(now)
    bases = []
    for cap in future:
        base = acct.idle_floor()
        for sd in ctl.registry.shutdowns_overlapping(cap.start, cap.end):
            base -= sd.savings_from_idle_watts
        bases.append(base)
    for job in ctl.running.values():
        end = job.expected_end
        delta = acct.busy_delta_watts(job.n_nodes, job.freq_index)
        for i, cap in enumerate(future):
            if end > cap.start:
                bases[i] += delta
    return bases


class _IndexAudit:
    """Compares a controller's running-job index with a rebuild from
    ``running`` around every pass, after every start, end and
    re-stretch, and after every fork install."""

    def __init__(self):
        self.checks = self.rescales = self.installs = 0

    def check(self, ctl: Controller) -> None:
        assert ctl._easy_rows == reference_easy_order(ctl)
        assert list(ctl._power_rows) == list(ctl.running)
        assert list(ctl._power_rows.values()) == reference_power_rows(ctl)
        now = ctl.engine.now
        view = PowercapView(ctl.registry, ctl.accountant, now, ctl._power_rows.values())
        assert [w.base for w in view.windows] == reference_window_bases(ctl, now)
        self.checks += 1

    @contextmanager
    def watching(self):
        audit = self

        def checked_after(name):
            original = getattr(Controller, name)

            def wrapped(ctl, *args, **kwargs):
                out = original(ctl, *args, **kwargs)
                audit.rescales += name == "_rescale_running_jobs"
                audit.check(ctl)
                return out

            return wrapped

        original_pass = Controller._sched_pass
        original_install = batch.install_fork_state

        def checked_pass(ctl):
            audit.check(ctl)
            original_pass(ctl)
            audit.check(ctl)

        def checked_install(cell, state, specs):
            original_install(cell, state, specs)
            audit.installs += 1
            audit.check(cell.controller)

        with ExitStack() as stack:
            for name in ("_start_job", "_on_job_end", "_rescale_running_jobs"):
                stack.enter_context(
                    mock.patch.object(Controller, name, checked_after(name))
                )
            stack.enter_context(mock.patch.object(Controller, "_sched_pass", checked_pass))
            stack.enter_context(
                mock.patch.object(batch, "install_fork_state", checked_install)
            )
            yield self


#: two windows: the index feeds the view's projections before each
#: opens, and TRACK, rescaling and kills act once each is active
INDEX_CAPS = (CapWindow(1800.0, 3600.0, 0.5), CapWindow(4500.0, 5400.0, 0.35))


@pytest.mark.parametrize(
    "platform, policy, config",
    [
        ("curie", "TRACK", {}),
        ("manythin", "TRACK", {"strict_future_caps": True}),
        ("curie", "DVFS", {"dynamic_rescaling": True}),
        ("fatnode", "MIX", {"dynamic_rescaling": True, "reservation_drain_horizon": 0.0}),
        ("curie", "IDLE", {"kill_on_violation": True}),
        ("curie", "SHUT", {"shutdown_delay": 60.0, "boot_delay": 120.0}),
        ("manythin", "ADAPTIVE", {"reservation_drain_horizon": 900.0, "boot_delay": 300.0}),
    ],
    ids=["track", "track-strict", "rescale", "rescale-mix", "kill", "delays", "adaptive"],
)
def test_the_index_matches_a_rebuild_at_every_pass(platform, policy, config):
    scenario = _scenario(platform, policy, caps=INDEX_CAPS, config=config)
    with _IndexAudit().watching() as audit:
        result = replay_scenario(scenario)
    ctl = result.controller
    assert audit.checks > 100
    if policy == "TRACK" or config.get("dynamic_rescaling"):
        assert audit.rescales > 0
    if config.get("kill_on_violation"):
        assert any(job.state is JobState.KILLED for job in ctl.jobs.values())


def test_the_index_is_rebuilt_by_a_lockstep_fork():
    """A cap sweep whose cells fork from one replayed prefix: every
    sibling's index comes from ``install_fork_state``, which also
    accepts the ``running_version`` key older captures stored."""
    base = _scenario(
        "curie",
        "SHUT",
        caps=(),
        config={"reservation_drain_horizon": 0.0, "shutdown_delay": 60.0},
    )
    cells = [base.with_(caps=(CapWindow(4500.0, 6300.0, f),)) for f in (0.3, 0.45, 0.6)]
    machine = base.build_machine()
    capture = batch.capture_fork_state

    def older_capture(donor, fork_t):
        state = capture(donor, fork_t)
        state["meta"]["running_version"] = 7
        return state

    with _IndexAudit().watching() as audit, mock.patch.object(
        batch, "capture_fork_state", older_capture
    ):
        batch.run_replay_batch(
            machine,
            base.build_jobs(machine),
            base.build_policy(machine),
            duration=base.effective_duration,
            caps_per_cell=[sc.build_caps(machine) for sc in cells],
            config=base.build_config(),
            platform=get_platform(base.platform),
        )
    assert audit.installs == len(cells) - 1
    assert audit.checks > 100


@st.composite
def index_scenarios(draw):
    """:func:`scenarios` plus the two knobs that change the running
    set at a window's start."""
    scenario = draw(scenarios())
    config = dict(scenario.config)
    config["dynamic_rescaling"] = draw(st.booleans())
    config["kill_on_violation"] = draw(st.booleans())
    return scenario.with_(config=tuple(sorted(config.items())))


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(scenario=index_scenarios())
def test_generated_scenarios_keep_the_index_exact(scenario):
    with _IndexAudit().watching() as audit:
        replay_scenario(scenario)
    assert audit.checks > 0
