"""The scheduling pass's candidate screen against the unscreened loop.

``Controller._sched_pass`` screens its ranked candidates with exact
node and time bounds and runs ``_try_start`` (Algorithm 2, the EASY
check, node placement) only on those inside all of them.
:func:`reference_sched_pass` is the loop without the screen: every
candidate goes through ``_try_start`` in priority order.  The two must
replay every scenario bit-identically — same trace digest, and every
job started at the same instant, frequency and nodes.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.curie import curie_machine
from repro.core.online import PowercapView
from repro.exp.runner import replay_scenario, trace_digest
from repro.exp.spec import CapWindow, Scenario
from repro.rjms.backfill import easy_backfill_window
from repro.rjms.config import PriorityWeights, SchedulerConfig
from repro.rjms.controller import Controller, _PassAllocator
from repro.rjms.reservations import ReservationRegistry, ShutdownReservation
from repro.sim.engine import EventKind, SimEngine
from repro.workload.spec import JobSpec

HOUR = 3600.0

#: each platform at a few dozen nodes
SMALL_SCALES = {"curie": 1 / 56, "fatnode": 1.0, "manythin": 0.125}
POLICIES = ("NONE", "IDLE", "SHUT", "DVFS", "MIX", "ADAPTIVE", "TRACK")


def reference_sched_pass(self: Controller) -> None:
    """The scheduling pass without the screen: ``_try_start`` on every
    candidate in priority order; the first failure becomes the EASY
    blocker."""
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
        PowercapView(self.registry, self.accountant, now, self.running.values())
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
                self._running_snapshot_sorted(),
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


# -- the bounds' edges -------------------------------------------------------------------
#
# One-rack Curie (90 nodes of 16 cores), FCFS priorities, policy NONE
# (every decision runs at the top step, degradation exactly 1), so a
# job's expected end is exactly ``now + walltime``.


class _Run:
    """A hand-built replay, run with the screened pass and with the
    reference loop; records which jobs reached ``_try_start``."""

    def __init__(self, *, shutdown=None, **config):
        self.shutdown = shutdown
        self.config = config
        self.specs: list[JobSpec] = []

    def job(self, jid, submit, nodes, walltime, runtime=None):
        runtime = walltime if runtime is None else runtime
        self.specs.append(JobSpec(jid, submit, nodes * 16, runtime, walltime))

    def _replay(self, until):
        engine = SimEngine()
        config = SchedulerConfig(
            priority=PriorityWeights(age=1000, fairshare=0, job_size=0),
            **self.config,
        )
        ctrl = Controller(curie_machine(scale=1 / 56), "NONE", engine, config=config)
        if self.shutdown is not None:
            ctrl.registry.add_shutdown(self.shutdown)
        for spec in self.specs:
            engine.at(
                spec.submit_time,
                lambda s=spec: ctrl.submit(s),
                kind=EventKind.JOB_SUBMIT,
            )
        tried: list[int] = []
        original = Controller._try_start

        def counting(ctl, job, *args):
            tried.append(job.job_id)
            return original(ctl, job, *args)

        with mock.patch.object(Controller, "_try_start", counting):
            engine.run(until=until)
        return ctrl, tried

    def run(self, until):
        ctrl, tried = self._replay(until)
        with mock.patch.object(Controller, "_sched_pass", reference_sched_pass):
            reference, _ = self._replay(until)
        assert _outcome(ctrl) == _outcome(reference)
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
