"""Simulator micro-benchmarks (throughput of the hot paths).

Not a paper figure: tracks the performance of the event engine, the
incremental power accountant, the vectorised priority queue, the
columnar metrics recorder, the scheduling pass, both a small and a
full-scale (5040-node) replay, and the experiment harness's execution
backends (serial vs process pool vs the sharded-store merge pass), so
regressions in the substrate are caught.  CI runs this module with
``--benchmark-json`` and ``benchmarks/check_perf_regression.py``
compares the means against the committed baselines (``BENCH_pr2.json``
for the engine cases, ``BENCH_pr4.json`` for the backend cases,
``BENCH_pr6.json`` for the batched-lockstep cap-sweep cases,
``BENCH_pr9.json`` for the multigroup batch-pool pair,
``BENCH_pr10.json`` for the transfer data-plane cases,
``BENCH_pr23.json`` for the per-cell paths of a forked cap sweep,
``BENCH_pr24.json`` for the ranking and the screened-out pass at the
day's queue shape; >2x regression fails the job).
``benchmarks/check_data_plane.py`` additionally holds the
shm-vs-pickle transfer ratio and the batch-pool-vs-floor ratio.
"""

import math
import os
import pickle
import threading

import numpy as np
import pytest

from repro.cluster.curie import curie_machine
from repro.cluster.states import NodeState
from repro.rjms.config import PriorityWeights
from repro.rjms.controller import Controller
from repro.rjms.fairshare import FairShare
from repro.rjms.job import Job
from repro.rjms.queue import PendingQueue
from repro.rjms.reservations import PowercapReservation
from repro.sim.engine import SimEngine
from repro.sim.metrics import MetricsRecorder
from repro.sim.replay import powercap_reservation, run_replay
from repro.workload.intervals import generate_interval
from repro.workload.spec import JobSpec


def test_perf_engine_event_throughput(benchmark):
    def run_10k():
        eng = SimEngine()
        count = 0

        def tick():
            nonlocal count
            count += 1

        for i in range(10_000):
            eng.at(float(i % 997), tick)
        eng.run()
        return count

    assert benchmark(run_10k) == 10_000


def test_perf_accountant_bulk_transitions(benchmark):
    machine = curie_machine()  # full 5040 nodes
    acct = machine.new_accountant()
    nodes = np.arange(0, 5040, 2)

    def flip():
        acct.set_state(nodes, NodeState.BUSY, freq_index=7)
        acct.set_state(nodes, NodeState.IDLE)
        return acct.total_power()

    power = benchmark(flip)
    assert power == acct.idle_floor()


def test_perf_accountant_small_transitions(benchmark):
    machine = curie_machine()
    acct = machine.new_accountant()
    nodes = np.arange(16)

    def flip():
        acct.set_state(nodes, NodeState.BUSY, freq_index=3)
        acct.set_state(nodes, NodeState.IDLE)

    benchmark(flip)
    acct.verify()


def test_perf_queue_priority_order(benchmark):
    fs = FairShare(200)
    q = PendingQueue(80640, PriorityWeights(), fs)
    rng = np.random.default_rng(0)
    for jid in range(5000):
        spec = JobSpec(
            jid,
            float(rng.uniform(0, 1e5)),
            int(rng.integers(1, 1000)),
            60.0,
            86400.0,
            int(rng.integers(0, 200)),
        )
        q.add(Job(spec=spec, n_nodes=1))

    ids, _, _ = benchmark(q.order, 2e5)
    assert len(ids) == 5000


# The day's ranking: the Figure 6 day (1/8 Curie) ranks 1,700 pending
# jobs on average, from 200 users who all hold usage, and its pass
# examines the top 100.  Both cases below run ten rankings (passes) per
# round, which keeps the mean above check_perf_regression.py's 100 us
# noise floor, below which a case never fails.  BENCH_pr24.json records
# both.

_DAY_QUEUE = 1700
_RANKS_PER_ROUND = 10


def test_perf_queue_order_top100(benchmark):
    """Ten top-100 rankings of 1,700 jobs at successive instants, so
    each also advances the fair-share decay."""
    machine = curie_machine(scale=0.125)
    rng = np.random.default_rng(4)
    fs = FairShare(200)
    fs.seed_usage(rng.exponential(1e6, 200))
    q = PendingQueue(machine.total_cores, PriorityWeights(), fs)
    for jid in range(_DAY_QUEUE):
        spec = JobSpec(
            jid,
            float(rng.uniform(0, 86400)),
            int(rng.integers(1, 2000)),
            60.0,
            86400.0,
            int(rng.integers(0, 200)),
        )
        q.add(Job(spec=spec, n_nodes=machine.nodes_for_cores(spec.cores)))
    clock = [86400.0]

    def rank():
        for _ in range(_RANKS_PER_ROUND):
            clock[0] += 1.0
            ids, _, _ = q.order(clock[0], limit=100)
        return ids

    assert len(benchmark(rank)) == 100


def test_perf_sched_pass_screened_out(benchmark):
    """The day's common pass: 1/8 Curie with 600 of 630 nodes busy and
    1,700 pending jobs, each wider than the 30 idle nodes.  The top job
    does not fit, and the screen admits no candidate behind it, so the
    pass ranks, computes the blocker's EASY window and starts nothing."""
    machine = curie_machine(scale=0.125)
    engine = SimEngine()
    controller = Controller(machine, "MIX", engine)
    rng = np.random.default_rng(5)
    cpn = machine.cores_per_node
    for jid in range(60):
        walltime = 1800.0 * int(rng.integers(3, 48))
        controller.submit(JobSpec(jid, 0.0, 10 * cpn, walltime, walltime, jid))
    controller._sched_pass()
    assert controller.n_running == 60
    controller.fairshare.seed_usage(rng.exponential(1e6, 200))
    free = machine.n_nodes - 600
    for jid in range(60, 60 + _DAY_QUEUE):
        spec = JobSpec(
            jid,
            float(rng.uniform(0, 3600)),
            int(rng.integers(free + 1, 200)) * cpn,
            60.0,
            86400.0,
            int(rng.integers(0, 200)),
        )
        engine.at(spec.submit_time, lambda s=spec: controller.submit(s))
    engine.run(until=3600.0)
    assert controller.n_pending == _DAY_QUEUE and controller.n_running == 60

    def passes():
        for _ in range(_RANKS_PER_ROUND):
            controller._sched_pass()
        return controller.n_running

    assert benchmark(passes) == 60


def test_perf_small_replay(benchmark):
    machine = curie_machine(scale=1 / 56)
    jobs = generate_interval(machine, "medianjob", seed=11)[:600]

    def replay():
        return run_replay(machine, jobs, "NONE", duration=3600.0)

    result = benchmark.pedantic(replay, rounds=2, iterations=1)
    assert result.launched_jobs() > 0


@pytest.mark.slow
def test_perf_full_scale_replay(benchmark):
    """The headline case: 5040 nodes, MIX policy, a 50 % cap window —
    the shape of the paper's Figures 6-8 replays."""
    machine = curie_machine()  # full Curie
    jobs = generate_interval(machine, "medianjob", seed=3)
    caps = [powercap_reservation(machine, 0.5, 3600.0, 2 * 3600.0)]

    def replay():
        return run_replay(
            machine, jobs, "MIX", duration=3 * 3600.0, powercaps=caps
        )

    result = benchmark.pedantic(replay, rounds=1, iterations=1)
    assert result.launched_jobs() > 1000


# -- columnar recorder ---------------------------------------------------------------

_REC_FREQS = (1.2, 1.5, 1.8, 2.1, 2.4, 2.7)


def _filled_recorder(n_samples: int) -> MetricsRecorder:
    rec = MetricsRecorder(_REC_FREQS)
    rng = np.random.default_rng(0)
    cores = rng.integers(0, 2000, size=(n_samples, len(_REC_FREQS))) * 16.0
    power = rng.uniform(0.0, 2.5e6, size=n_samples)
    for i in range(n_samples):
        rec.sample(
            float(i),
            cores_by_freq=cores[i],
            off_cores=0.0,
            power_watts=power[i],
            idle_watts=1e5,
            down_watts=1e4,
            infra_watts=4e5,
            bonus_watts=0.0,
            busy_watts=power[i] * 0.8,
        )
    return rec


def test_perf_recorder_sample_throughput(benchmark):
    """Recording 5k samples (plus same-instant collapses) must stay
    allocation-free per event."""
    cores = np.zeros(len(_REC_FREQS))

    def record():
        rec = MetricsRecorder(_REC_FREQS)
        for i in range(5000):
            t = float(i // 2)  # every other sample collapses in place
            rec.sample(
                t,
                cores_by_freq=cores,
                off_cores=0.0,
                power_watts=1e6,
                idle_watts=1e5,
                down_watts=0.0,
                infra_watts=4e5,
                bonus_watts=0.0,
                busy_watts=9e5,
            )
        return rec.n_samples

    assert benchmark(record) == 2500


def test_perf_recorder_integrals(benchmark):
    """Exact integrals over a 20k-sample series (vectorised, no Python
    loop over samples)."""
    rec = _filled_recorder(20_000)

    def integrate():
        return (
            rec.energy_joules(1000.0, 19_000.0)
            + rec.work_core_seconds(1000.0, 19_000.0)
            + rec.job_energy_joules(1000.0, 19_000.0)
        )

    assert benchmark(integrate) > 0.0


def test_perf_recorder_to_grid(benchmark):
    rec = _filled_recorder(20_000)

    grid = benchmark(rec.to_grid, 0.0, 20_000.0, 10.0)
    assert len(grid["time"]) == 2001


# -- scheduling pass -----------------------------------------------------------------


def _pass_controller(*, blocked: bool) -> Controller:
    """A full-scale controller with 500 pending jobs.

    ``blocked=True``: every node idle but an active cap rejects every
    candidate (the drain regime during a cap window).  ``blocked=False``
    with all nodes busy: the drained fast path (no free nodes).
    Either way a pass starts nothing, so benchmarking it is repeatable.
    """
    machine = curie_machine()
    engine = SimEngine()
    caps = []
    if blocked:
        floor = machine.idle_power()
        caps = [PowercapReservation(start=0.0, end=math.inf, watts=floor + 1.0)]
    controller = Controller(machine, "DVFS", engine, powercaps=caps)
    rng = np.random.default_rng(1)
    walltime_menu = (1800.0, 14400.0, 43200.0, 86400.0)
    for jid in range(500):
        controller.submit(
            JobSpec(
                jid,
                0.0,
                int(rng.integers(1, 64)) * machine.cores_per_node,
                60.0,
                float(walltime_menu[int(rng.integers(0, 4))]),
                int(rng.integers(0, 200)),
            )
        )
    if not blocked:
        controller.accountant.set_state(
            np.arange(machine.n_nodes), NodeState.BUSY, freq_index=7
        )
    return controller


def test_perf_sched_pass_power_blocked(benchmark):
    controller = _pass_controller(blocked=True)

    def one_pass():
        controller._sched_pass()
        return controller.n_running

    assert benchmark(one_pass) == 0


def test_perf_sched_pass_drained(benchmark):
    """No idle nodes: the pass must cost O(1), not O(n_nodes + queue)."""
    controller = _pass_controller(blocked=False)

    def one_pass():
        controller._sched_pass()
        return controller.n_running

    assert benchmark(one_pass) == 0


# -- execution backends --------------------------------------------------------------
#
# One small sweep (8 one-hour medianjob scenarios at one-rack scale)
# through each harness execution path.  Serial is the floor; the pool
# case measures fork + pickle + stream overhead on top of it; the
# sharded-merge case measures the pure orchestration cost of
# reassembling a sweep from a pre-filled shared store (every scenario
# a store hit — the merge pass CI runs after a shard matrix).


def _backend_sweep_scenarios():
    from repro.exp import Scenario

    return [
        Scenario(
            name=f"bench-backend-{i}",
            interval="medianjob",
            policy="MIX",
            scale=1 / 56,
            duration=3600.0,
            seed=i,
            caps=(),
        )
        for i in range(8)
    ]


def test_perf_backend_serial(benchmark):
    from repro.exp import GridRunner, make_backend

    scenarios = _backend_sweep_scenarios()

    def sweep():
        with GridRunner(backend=make_backend("serial")) as runner:
            return runner.run(scenarios)

    results = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert len(results) == len(scenarios)


def test_perf_backend_pool(benchmark):
    from repro.exp import GridRunner, make_backend

    scenarios = _backend_sweep_scenarios()

    def sweep():
        with GridRunner(backend=make_backend("pool", workers=2)) as runner:
            return runner.run(scenarios)

    results = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert len(results) == len(scenarios)


# -- batched replay ------------------------------------------------------------------
#
# The shape the batch engine exists for: one workload, one platform,
# twelve cap fractions — a powercap sweep column.  The serial case is
# the floor (twelve independent replays); the batch case replays the
# pre-window prefix of the same twelve cells once, forks it into every
# cell and runs each cell on alone.  BENCH_pr6.json records the
# trajectory.


def _cap_sweep_cells():
    from repro.exp import CapWindow, Scenario

    base = Scenario(
        name="bench-batch",
        interval="medianjob",
        policy="IDLE",
        scale=1 / 56,
        duration=7200.0,
        seed=5,
    )
    fracs = [0.30 + 0.05 * i for i in range(12)]
    return [
        base.with_(name=f"bench-batch-{f:.2f}", caps=(CapWindow(5760.0, 6720.0, f),))
        for f in fracs
    ]


def test_perf_cap_sweep_serial(benchmark):
    from repro.exp import GridRunner, make_backend

    cells = _cap_sweep_cells()

    def sweep():
        with GridRunner(backend=make_backend("serial")) as runner:
            return runner.run(cells)

    results = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert len(results) == len(cells)


def test_perf_cap_sweep_batch(benchmark):
    from repro.exp import GridRunner, make_backend

    cells = _cap_sweep_cells()

    def sweep():
        with GridRunner(backend=make_backend("batch")) as runner:
            return runner.run(cells)

    results = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert len(results) == len(cells)


def test_perf_cap_sweep_warm(benchmark, tmp_path):
    """Cross-run warm start: the twelve-cell sweep against a
    checkpoint store seeded by an earlier (untimed) run.  Every cell
    restores the ~80% pre-window prefix from disk instead of replaying
    it; the gap to 'serial' is the persistent-checkpoint payoff, and
    unlike 'batch' it survives process and run boundaries.
    BENCH_pr8.json records the trajectory."""
    from repro.exp import (
        DirectoryCheckpointStore,
        GridRunner,
        MemoryStore,
        make_backend,
    )

    cells = _cap_sweep_cells()
    ck_root = tmp_path / "ckpts"
    with GridRunner(
        store=MemoryStore(), checkpoints=DirectoryCheckpointStore(ck_root)
    ) as runner:
        runner.run(cells[:1])  # seed: publish the shared prefix once

    def sweep():
        with GridRunner(
            backend=make_backend("serial"),
            store=MemoryStore(),
            checkpoints=DirectoryCheckpointStore(ck_root),
        ) as runner:
            report = runner.sweep(cells)
            assert report.checkpoints["hits"] == len(cells)
            return report.results

    results = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert len(results) == len(cells)


# -- per-cell paths of a forked cap sweep ------------------------------------------------
#
# Each cell of a forked cap sweep installs the shared prefix once
# (``install_fork_state``) and is condensed into its trace digest once.
# The shape is one cell of the end-to-end ``cap-sweep`` workload: 1/8
# Curie, SHUT, a 16-minute window near the end of a 2 h replay, about
# 1,000 jobs at the fork.  BENCH_pr23.json records both.


def _sweep_cell():
    from repro.exp import CapWindow, Scenario

    return Scenario(
        name="bench-cell",
        interval="medianjob",
        policy="SHUT",
        scale=0.125,
        duration=7200.0,
        seed=5,
        config={"reservation_drain_horizon": 0.0},
        caps=(CapWindow(5760.0, 6720.0, 0.30),),
    )


def test_perf_trace_digest(benchmark):
    """Condensing one cell's recorder (over a thousand samples and jobs,
    several digest chunks of each) into its trace digest."""
    from repro.exp.runner import _DIGEST_CHUNK, replay_scenario, trace_digest

    rec = replay_scenario(_sweep_cell()).recorder
    assert min(rec.n_samples, len(rec.jobs)) > 1000 > 2 * _DIGEST_CHUNK
    expected = trace_digest(rec)
    assert benchmark(trace_digest, rec) == expected


class _KeepPublished:
    """A warm-start adapter that never hits and keeps what is published."""

    state = None

    def load(self, max_horizon):
        return None

    def publish(self, horizon, state):
        self.state = state


def test_perf_install_fork_state(benchmark):
    """Installing one cell's captured prefix into a freshly built cell
    (the construction is untimed setup)."""
    from repro.platform import get_platform
    from repro.sim import batch

    sc = _sweep_cell()
    machine = sc.build_machine()
    jobs = sc.build_jobs(machine)
    policy = sc.build_policy(machine)
    config = sc.build_config()
    caps = sc.build_caps(machine)
    platform = get_platform(sc.platform)
    duration = sc.effective_duration
    keep = _KeepPublished()
    batch.run_replay_batch(
        machine,
        jobs,
        policy,
        duration=duration,
        caps_per_cell=[caps],
        config=config,
        platform=platform,
        warm_start=keep,
    )
    assert keep.state is not None
    specs = [s for s in jobs if s.submit_time <= duration]
    last = []

    def fresh_cell():
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
        last[:] = [batch._Cell(engine, recorder, controller)]
        return (last[0], keep.state, specs), {}

    benchmark.pedantic(
        batch.install_fork_state, setup=fresh_cell, rounds=100, iterations=1
    )
    assert len(last[0].controller.jobs) > 1000


# -- batch x pool composition --------------------------------------------------------
#
# The shape the batch-pool backend exists for: several independent
# lockstep groups (different seeds — different workloads) that the
# in-process batch backend runs one after another on one core.  The
# batch-pool case dispatches whole groups onto pool workers, so the
# sweep's wall clock approaches max(group) instead of sum(groups).
# BENCH_pr9.json records both trajectories.


def _multigroup_cap_sweep_cells():
    """Three lockstep groups (seeds 5/6/7) x four cap fractions."""
    from repro.exp import CapWindow, Scenario

    cells = []
    for seed in (5, 6, 7):
        base = Scenario(
            name=f"bench-bp-s{seed}",
            interval="medianjob",
            policy="IDLE",
            scale=1 / 56,
            duration=7200.0,
            seed=seed,
        )
        for i in range(4):
            f = 0.30 + 0.05 * i
            cells.append(
                base.with_(
                    name=f"bench-bp-s{seed}-{f:.2f}",
                    caps=(CapWindow(5760.0, 6720.0, f),),
                )
            )
    return cells


def test_perf_cap_sweep_batch_multigroup(benchmark):
    """The single-process floor of the batch-pool comparison: the same
    three-group, twelve-cell sweep through the in-process batch
    backend — each group shares its prefix, but the groups run one
    after another."""
    from repro.exp import GridRunner, make_backend

    cells = _multigroup_cap_sweep_cells()

    def sweep():
        with GridRunner(backend=make_backend("batch")) as runner:
            return runner.run(cells)

    results = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert len(results) == len(cells)


def test_perf_cap_sweep_batchpool(benchmark):
    """Batch x pool: the same three groups dispatched whole onto four
    pool workers under the LPT cost-model schedule.  On a >=4-core
    runner this runs >=2x faster than the single-process multigroup
    floor above; on fewer cores the fork/pickle overhead can eat the
    win, so there is deliberately no in-test speedup assertion — the
    CI perf gate (check_perf_regression.py against BENCH_pr9.json)
    holds the recorded trajectory instead."""
    from repro.exp import GridRunner, make_backend

    cells = _multigroup_cap_sweep_cells()

    def sweep():
        with GridRunner(backend=make_backend("batch-pool", workers=4)) as runner:
            return runner.run(cells)

    results = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert len(results) == len(cells)


# -- zero-copy transfer data plane ---------------------------------------------------
#
# The shm transport's reason to exist: moving one 12-cell lockstep
# group's series payloads (12 cells x 8 arrays x 8640 float64 samples,
# ~6.6 MB) from pool workers back to the driver.  The pickle case is
# what multiprocessing does without it — serialise, copy through a
# pipe, deserialise: three full copies of every byte.  The shm case
# copies each cell's arrays into a named segment once and ships a
# few-hundred-byte descriptor through the same pipe; the driver adopts
# zero-copy views.
#
# Each case records the driver<->worker traffic it generated as
# ``extra_info["pipe_bytes"]`` — the cost the transport exists to cut.
# ``benchmarks/check_data_plane.py`` gates that ratio (shm must move
# >=5x fewer bytes over the boundary; in practice it is ~3 orders of
# magnitude) alongside the batch-pool-vs-floor wall-clock ratio, and
# ``BENCH_pr10.json`` records the wall-clock trajectories.  Wall clock
# alone is deliberately not the gate: on a single-core runner both
# paths are bounded by the same worker-side memcpy, so the pipe-bytes
# column is where the win is visible everywhere, and the driver-side
# zero-copy adopt pays off only once cores are contended.

_XFER_CELLS = 12
_XFER_KEYS = ("time", "power", "idle", "down", "infra", "bonus", "busy", "work")
_XFER_SAMPLES = 8640
_XFER_NBYTES = _XFER_CELLS * len(_XFER_KEYS) * _XFER_SAMPLES * 8


def _transfer_payloads():
    rng = np.random.default_rng(12)
    return [
        {k: rng.uniform(0.0, 2.5e6, size=_XFER_SAMPLES) for k in _XFER_KEYS}
        for _ in range(_XFER_CELLS)
    ]


def _pipe_round_trip(blob: bytes) -> bytes:
    """One worker->driver hop: write through an OS pipe from a second
    thread (what multiprocessing's result queue does), read it back."""
    r, w = os.pipe()

    def writer():
        os.write(w, len(blob).to_bytes(8, "little"))
        view = memoryview(blob)
        while view:
            sent = os.write(w, view[: 1 << 20])
            view = view[sent:]
        os.close(w)

    t = threading.Thread(target=writer)
    t.start()
    size = int.from_bytes(os.read(r, 8), "little")
    chunks = []
    got = 0
    while got < size:
        chunk = os.read(r, min(1 << 20, size - got))
        if not chunk:  # pragma: no cover - writer died
            break
        chunks.append(chunk)
        got += len(chunk)
    os.close(r)
    t.join()
    return b"".join(chunks)


def test_perf_transfer_pickle_series(benchmark):
    payloads = _transfer_payloads()
    piped = [0]

    def ship():
        total = 0
        piped[0] = 0
        for arrays in payloads:
            blob = pickle.dumps(arrays, protocol=pickle.HIGHEST_PROTOCOL)
            piped[0] += len(blob)
            out = pickle.loads(_pipe_round_trip(blob))
            total += sum(a.nbytes for a in out.values())
        return total

    assert benchmark(ship) == _XFER_NBYTES
    assert piped[0] > _XFER_NBYTES  # the full arrays crossed the pipe
    benchmark.extra_info["pipe_bytes"] = piped[0]


def test_perf_transfer_shm_series(benchmark):
    from repro.exp import shm

    if not shm.shm_available():  # pragma: no cover - exotic platform
        pytest.skip("multiprocessing.shared_memory unavailable")
    payloads = _transfer_payloads()
    prefix = shm.new_prefix()
    piped = [0]

    def ship():
        total = 0
        piped[0] = 0
        for arrays in payloads:
            desc = shm.arena.place(arrays, prefix=prefix, min_bytes=0)
            blob = pickle.dumps(desc, protocol=pickle.HIGHEST_PROTOCOL)
            piped[0] += len(blob)
            with shm.arena.adopt(pickle.loads(_pipe_round_trip(blob))) as view:
                total += sum(a.nbytes for a in view.arrays.values())
        return total

    assert benchmark(ship) == _XFER_NBYTES
    assert not shm.live_segments(prefix)
    assert piped[0] * 5 < _XFER_NBYTES  # only descriptors crossed the pipe
    benchmark.extra_info["pipe_bytes"] = piped[0]


def test_perf_backend_sharded_merge(benchmark, tmp_path):
    from repro.exp import (
        DirectoryStore,
        GridRunner,
        make_backend,
        render_results_grid,
    )

    scenarios = _backend_sweep_scenarios()
    # Untimed setup: two shard jobs fill one store.
    for k in range(2):
        with GridRunner(
            backend=make_backend("serial", shard=(k, 2)),
            store=DirectoryStore(tmp_path),
        ) as runner:
            runner.run(scenarios)

    def merge_pass():
        with GridRunner(store=DirectoryStore(tmp_path)) as runner:
            results = runner.run(scenarios)
        assert all(r.cached for r in results)
        return render_results_grid(results)

    table = benchmark.pedantic(merge_pass, rounds=3, iterations=1)
    assert "medianjob" in table
