"""Controller invariants under randomized powercap windows.

Three properties the paper's mechanism depends on, checked on every
recorded instant of randomized replays:

* **cap safety** — instantaneous cluster power never exceeds the
  active cap (hard from a cold start for every enforcing policy; with
  kill enforcement also for windows opening over a loaded cluster);
* **conservation** — node-state accounting always sums to the machine
  size (busy + idle + off, with instantaneous transitions);
* **reservation safety** — no job ever occupies a node inside that
  node's shutdown window.

Every replay also checks **job conservation**: each submitted job is
either rejected or known to the controller, and a known job is pending
exactly when it is queued, running exactly when it holds nodes, and
otherwise completed or killed.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cluster.curie import curie_machine
from repro.rjms.config import SchedulerConfig
from repro.rjms.job import JobState
from repro.sim.replay import ReplayResult, run_replay
from repro.rjms.reservations import PowercapReservation
from repro.workload.spec import JobSpec

HOUR = 3600.0
MACHINE = curie_machine(scale=1 / 56)  # 90 nodes

#: caps below the all-idle floor are unreachable without switch-off
_IDLE_FRACTION = MACHINE.idle_power() / MACHINE.max_power()


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    jobs = []
    for jid in range(n):
        submit = draw(st.floats(min_value=0.0, max_value=1.5 * HOUR))
        cores = draw(st.integers(min_value=1, max_value=MACHINE.total_cores))
        runtime = draw(st.floats(min_value=1.0, max_value=HOUR))
        slack = draw(st.floats(min_value=1.0, max_value=40.0))
        jobs.append(JobSpec(jid, submit, cores, runtime, runtime * slack))
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return jobs


@st.composite
def windows(draw):
    """A randomized mid-replay cap window."""
    start = draw(st.floats(min_value=0.0, max_value=1.5 * HOUR))
    length = draw(st.floats(min_value=900.0, max_value=1.5 * HOUR))
    fraction = draw(st.floats(min_value=_IDLE_FRACTION + 0.05, max_value=0.9))
    return PowercapReservation(
        start, start + length, watts=fraction * MACHINE.max_power()
    )


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _assert_jobs_conserved(result: ReplayResult) -> None:
    ctrl = result.controller
    assert result.n_submitted == len(ctrl.jobs) + len(ctrl.rejected)
    states = Counter(job.state for job in ctrl.jobs.values())
    assert states[JobState.PENDING] == len(ctrl.queue)
    assert states[JobState.RUNNING] == len(ctrl.running)
    for jid, job in ctrl.jobs.items():
        if job.state is JobState.PENDING:
            assert jid in ctrl.queue, jid
        elif job.state is JobState.RUNNING:
            assert jid in ctrl.running, jid
        else:
            assert job.state in (JobState.COMPLETED, JobState.KILLED), jid


@settings(max_examples=10, **_SETTINGS)
@given(jobs=workloads(), window=windows())
# A strict-gate tolerance of 1e-6 x cap let DVFS start a job 0.021 W
# over this cap at t = 1.462 s.
@example(
    jobs=[
        JobSpec(jid, 0.0, cores, 1.0, 1.0)
        for jid, cores in enumerate((17, 193, 241, 1, 1, 513, 673))
    ],
    window=PowercapReservation(0.0, 900.0, watts=24141.97875035762),
)
def test_cold_start_cap_never_exceeded(jobs, window):
    """A cap active from t=0 is hard: every recorded instant fits it,
    for every enforcing policy (no pre-cap jobs exist to drain)."""
    cap = PowercapReservation(0.0, window.end, watts=window.watts)
    for policy in ("IDLE", "SHUT", "DVFS", "MIX"):
        result = run_replay(MACHINE, jobs, policy, duration=2 * HOUR, powercaps=[cap])
        for s in result.recorder.samples:
            if cap.active_at(s.time):
                assert s.power_watts <= cap.watts * (1 + 1e-9), (policy, s.time)
        _assert_jobs_conserved(result)


@settings(max_examples=10, **_SETTINGS)
@given(jobs=workloads(), window=windows())
def test_kill_enforcement_keeps_window_under_cap(jobs, window):
    """With the paper's "extreme actions", a window opening over a
    loaded cluster is enforced for its entire span."""
    config = SchedulerConfig(kill_on_violation=True)
    result = run_replay(
        MACHINE, jobs, "IDLE", duration=2 * HOUR, powercaps=[window], config=config
    )
    for s in result.recorder.samples:
        if window.active_at(s.time):
            assert s.power_watts <= window.watts * (1 + 1e-9), s.time
    result.controller.accountant.verify()
    _assert_jobs_conserved(result)


@settings(max_examples=10, **_SETTINGS)
@given(
    jobs=workloads(),
    window=windows(),
    policy=st.sampled_from(["NONE", "IDLE", "SHUT", "DVFS", "MIX"]),
)
def test_node_accounting_sums_to_machine_size(jobs, window, policy):
    """busy + idle + off cores equal the machine at every instant.

    Transitions are instantaneous in the paper's emulation (default
    config), so the three states partition the machine.
    """
    result = run_replay(MACHINE, jobs, policy, duration=2 * HOUR, powercaps=[window])
    ft = MACHINE.freq_table
    for s in result.recorder.samples:
        busy_cores = sum(s.cores_by_freq)
        idle_cores = s.idle_watts / ft.idle_watts * MACHINE.cores_per_node
        total = busy_cores + idle_cores + s.off_cores
        assert total == pytest.approx(MACHINE.total_cores), s.time
    # Terminal state agrees with the incremental accountant.
    counts = result.controller.accountant.count_by_state
    assert int(counts.sum()) == MACHINE.n_nodes
    result.controller.accountant.verify()
    _assert_jobs_conserved(result)


@settings(max_examples=10, **_SETTINGS)
@given(jobs=workloads(), window=windows(), policy=st.sampled_from(["SHUT", "MIX"]))
def test_no_job_occupies_node_inside_its_shutdown_window(jobs, window, policy):
    """Placement respects shutdown reservations: a job and a shutdown
    window never share a node and an instant."""
    result = run_replay(MACHINE, jobs, policy, duration=3 * HOUR, powercaps=[window])
    _assert_jobs_conserved(result)
    ctrl = result.controller
    shutdowns = ctrl.registry.shutdowns
    if not shutdowns:
        return  # cap high enough that no switch-off was planned
    for job in ctrl.jobs.values():
        if job.start_time is None or job.nodes is None:
            continue
        end = job.end_time if job.end_time is not None else result.duration
        for sd in shutdowns:
            if not sd.overlaps(job.start_time, end):
                continue
            shared = np.intersect1d(job.nodes, sd.nodes)
            assert shared.size == 0, (
                job.job_id,
                job.start_time,
                end,
                (sd.start, sd.end),
                shared[:5],
            )
