"""The fused ranking and the lean fair-share factors against references.

``PendingQueue.priorities``/``order`` sum the priority terms into one
buffer, keep the weighted size term as a column and skip the age clip
when it cannot bind; ``FairShare`` decays without an ``any()`` test
and computes its factors in one buffer.  :func:`reference_order` and
:func:`reference_factors` are the plain expressions they replace: a
fresh array per term, the clip always applied, the size term from the
jobs' core counts.  The two must agree bit for bit — every priority,
the ranked ``(ids, n_nodes, walltimes)``, and the decayed usage — on
generated queues, and replay whole scenarios identically.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.rjms.queue as queue_mod
from repro.exp import get_scenario
from repro.exp.runner import replay_scenario
from repro.exp.spec import CapWindow, Scenario
from repro.platform import get_platform
from repro.rjms.config import PriorityWeights
from repro.rjms.fairshare import FairShare
from repro.rjms.job import Job
from repro.rjms.queue import PendingQueue
from repro.sim import batch
from repro.workload.spec import JobSpec
from test_sched_pass_screen import _outcome

HOUR = 3600.0


def reference_decay_to(self: FairShare, t: float) -> None:
    """The decay with its all-zero test."""
    if t < self._last_decay:
        raise ValueError("time went backwards")
    if t > self._last_decay and self._usage.any():
        self._usage *= 0.5 ** ((t - self._last_decay) / self.half_life)
    self._last_decay = t


def reference_factors(self: FairShare, t: float) -> np.ndarray:
    """``2^(-(U/total) / (1/n_users))`` as one plain expression."""
    reference_decay_to(self, t)
    total = self._usage.sum()
    if total <= 0:
        return np.ones(self.n_users, dtype=np.float64)
    norm_usage = self._usage / total
    norm_shares = 1.0 / self.n_users
    return np.power(2.0, -norm_usage / norm_shares)


_ADD = PendingQueue.add


def reference_add(self: PendingQueue, job: Job) -> None:
    """``add``, which also notes the job's core count by id for
    :func:`reference_priorities` (job ids are small non-negative ints
    here), so the reference reads core counts, not the size column."""
    _ADD(self, job)
    jid = job.job_id
    by_id = self.__dict__.setdefault("_reference_cores", np.zeros(256))
    if jid >= len(by_id):
        by_id = self._reference_cores = np.concatenate(
            (by_id, np.zeros(2 * jid + 1 - len(by_id)))
        )
    by_id[jid] = job.cores


def reference_priorities(self: PendingQueue, now: float) -> np.ndarray:
    """Each term in a fresh array, the clip always applied, the size
    term from the jobs' core counts."""
    n = self._n
    if n == 0:
        return np.empty(0, dtype=np.float64)
    w = self.weights
    cores = self._reference_cores[self._ids[:n]]
    age = np.clip((now - self._submit[:n]) / w.max_age, 0.0, 1.0)
    size = cores / self.total_cores
    fs = reference_factors(self.fairshare, now)[self._users[:n]]
    return w.age * age + w.fairshare * fs + w.job_size * size


def reference_order(self: PendingQueue, now: float, limit: int | None = None):
    """The ranking through ``argpartition`` and ``flatnonzero``."""
    n = self._n
    if n == 0:
        rows = np.empty(0, dtype=np.int64)
    else:
        prio = reference_priorities(self, now)
        ids = self._ids[:n]
        submit = self._submit[:n]
        if limit is not None and 0 < limit < n:
            part = np.argpartition(prio, n - limit)
            thresh = prio[part[n - limit]]
            cand = np.flatnonzero(prio >= thresh)
            idx = np.lexsort((ids[cand], submit[cand], -prio[cand]))
            rows = cand[idx][:limit]
        else:
            rows = np.lexsort((ids, submit, -prio))
    return self._ids[rows], self._nodes[rows], self._walltime[rows]


@contextmanager
def reference_ranking():
    """Every ranking and fair-share read of a replay through the
    references."""
    with mock.patch.multiple(
        PendingQueue, add=reference_add, order=reference_order
    ), mock.patch.multiple(
        FairShare, factors=reference_factors, _decay_to=reference_decay_to
    ):
        yield


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- generated queues ----------------------------------------------------------------


@st.composite
def queue_histories(draw):
    """A queue's life: adds and swap-removes, fair-share usage from a
    seed vector, a fork-style ``np.copyto`` or charges, and rankings
    at rising instants.  Submit times, core counts and users come from
    small pools, so exact priority ties are common; times lie on a
    quarter-``max_age`` grid (or just off it), so ages land exactly on
    and beyond ``max_age``, and rankings run before some submissions."""
    return {
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        "n_users": draw(st.sampled_from((1, 3, 200))),
        "weights": PriorityWeights(
            age=draw(st.sampled_from((0.0, 1e-3, 1.0, 1000.0))),
            fairshare=draw(st.sampled_from((0.0, 7.0, 1000.0))),
            job_size=draw(st.sampled_from((0.0, 3.3, 200.0))),
            max_age=draw(st.sampled_from((10.0, 3600.0, 7 * 86400.0))),
        ),
        "total_cores": draw(st.sampled_from((7, 1440, 80640))),
        "n_jobs": draw(st.integers(min_value=0, max_value=320)),
        "pool": draw(st.integers(min_value=1, max_value=6)),
        "off_grid": draw(st.booleans()),
        "usage": draw(st.sampled_from(("zero", "seed", "copyto", "charged"))),
        "remove_share": draw(st.sampled_from((0.0, 0.3, 0.7))),
        "capacity": draw(st.sampled_from((1, 4, 256))),
        "steps": draw(st.integers(min_value=1, max_value=5)),
    }


def _pair(h, rng):
    """Two identical queues, each with its own fair-share state."""
    queues = []
    vec = rng.exponential(1e6, h["n_users"]) * (rng.random(h["n_users"]) < 0.6)
    for _ in range(2):
        fs = FairShare(h["n_users"])
        if h["usage"] == "seed":
            fs.seed_usage(vec)
        elif h["usage"] == "copyto":
            # What a fork install does (repro.sim.batch.install_fork_state).
            np.copyto(fs._usage, vec)
        queues.append(PendingQueue(h["total_cores"], h["weights"], fs))
    return queues


def _check(new: PendingQueue, ref: PendingQueue, now: float, limit) -> None:
    assert _same_bits(new.priorities(now), reference_priorities(ref, now))
    got, want = new.order(now, limit=limit), reference_order(ref, now, limit)
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    assert _same_bits(new.fairshare._usage, ref.fairshare._usage)
    assert new.fairshare._last_decay == ref.fairshare._last_decay


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(h=queue_histories())
def test_generated_queues_rank_like_the_reference(h):
    rng = np.random.default_rng(h["seed"])
    quarter = h["weights"].max_age / 4
    submits = quarter * rng.integers(0, 9, h["pool"]).astype(np.float64)
    if h["off_grid"]:
        submits += rng.uniform(0.0, quarter, h["pool"])
    cores = rng.integers(1, 3 * 16, h["pool"])
    users = rng.integers(0, h["n_users"], h["pool"])
    walltimes = rng.choice((60.0, 1800.0, 86400.0), h["pool"])
    ids = rng.permutation(10 * max(h["n_jobs"], 1))[: h["n_jobs"]]
    with mock.patch.object(queue_mod, "_INITIAL_CAPACITY", h["capacity"]):
        new, ref = _pair(h, rng)
    queued: list[int] = []
    now = 0.0
    batches = np.array_split(np.arange(h["n_jobs"]), h["steps"])
    for step, rows in enumerate(batches):
        for i in rows:
            spec = JobSpec(
                int(ids[i]),
                float(rng.choice(submits)),
                int(rng.choice(cores)),
                60.0,
                float(rng.choice(walltimes)),
                int(rng.choice(users)),
            )
            job = Job(spec=spec, n_nodes=-(-spec.cores // 16))
            new.add(job)
            reference_add(ref, job)
            queued.append(spec.job_id)
            if queued and rng.random() < h["remove_share"]:
                jid = queued.pop(int(rng.integers(0, len(queued))))
                assert new.remove(jid).job_id == ref.remove(jid).job_id == jid
        now += quarter * int(rng.integers(0, 12)) + (step % 2) * 0.5
        if h["usage"] == "charged" and step % 2:
            user, amount = int(rng.integers(0, h["n_users"])), float(rng.exponential(1e5))
            new.fairshare.record_usage(user, amount, now)
            ref.fairshare.record_usage(user, amount, now)
        n = len(new)
        for limit in (1, 100, n, n + 3, None, int(rng.integers(1, n + 2))):
            _check(new, ref, now, limit)


def test_an_empty_queue_ranks_nothing():
    fs_new, fs_ref = FairShare(3), FairShare(3)
    new = PendingQueue(1440, PriorityWeights(), fs_new)
    ref = PendingQueue(1440, PriorityWeights(), fs_ref)
    for limit in (None, 1, 100):
        _check(new, ref, 5.0, limit)
        assert all(col.size == 0 for col in new.order(5.0, limit=limit))


def _queue_over(submits, max_age, add=PendingQueue.add):
    fs = FairShare(2)
    q = PendingQueue(1440, PriorityWeights(max_age=max_age), fs)
    for jid, submit in enumerate(submits):
        add(q, Job(spec=JobSpec(jid, submit, 16, 60.0, 600.0, jid % 2), n_nodes=1))
    return q


@pytest.mark.parametrize(
    "submits, now, binds",
    [
        ([0.0, 5.0, 10.0], 10.0, False),  # ages 0, 0.5 and 1 of max_age
        ([0.0, 5.0], 100.0, True),  # both saturated
        ([0.0, 5.0], 10.5, True),  # one age past max_age
        ([0.0, 12.0], 10.0, True),  # submitted after now: negative age
    ],
)
def test_the_clip_runs_exactly_when_it_can_bind(submits, now, binds):
    """Edges of the skip test: an age of exactly ``max_age`` leaves the
    clip out, one past it (or before submission) puts it back."""
    q = _queue_over(submits, 10.0)
    ref = _queue_over(submits, 10.0, reference_add)
    with mock.patch("numpy.clip", wraps=np.clip) as clip:
        prio = q.priorities(now)
    assert clip.called == binds
    assert _same_bits(prio, reference_priorities(ref, now))


def test_layout_after_growth_and_swap_removes():
    """Rows moved by ``_grow`` and by swap-removes keep their size
    term with them."""
    fs_new, fs_ref = FairShare(5), FairShare(5)
    new = PendingQueue(80640, PriorityWeights(), fs_new)
    ref = PendingQueue(80640, PriorityWeights(), fs_ref)
    for fs in (fs_new, fs_ref):
        fs.seed_usage(np.array([0.0, 1e6, 3e5, 0.0, 7.0]))
    for jid in range(700):
        spec = JobSpec(jid, float(jid % 13), 16 * (1 + jid % 37), 60.0, 600.0, jid % 5)
        job = Job(spec=spec, n_nodes=1 + jid % 37)
        new.add(job)
        reference_add(ref, job)
    for jid in range(0, 700, 3):
        new.remove(jid)
        ref.remove(jid)
    assert len(new._ids) == 1024 and len(new) < 512
    for limit in (1, 100, None):
        _check(new, ref, 1e4, limit)


# -- whole replays ---------------------------------------------------------------------


@contextmanager
def _counting_partial_rankings(counter):
    """Counts rankings that take the partial-selection path."""
    original = PendingQueue.order

    def counting(self, now, limit=None):
        counter.append(limit is not None and 0 < limit < len(self))
        return original(self, now, limit)

    with mock.patch.object(PendingQueue, "order", counting):
        yield


@pytest.mark.parametrize(
    "scenario",
    [
        get_scenario("fig6-24h-mix-40").with_(scale=1 / 56),
        get_scenario("medianjob-track-60").with_(scale=1 / 56),
    ],
    ids=["fig6-day", "track"],
)
def test_replays_match_the_reference_ranking(scenario):
    partial: list[bool] = []
    with _counting_partial_rankings(partial):
        fused = replay_scenario(scenario).controller
    with reference_ranking():
        reference = replay_scenario(scenario).controller
    assert _outcome(fused) == _outcome(reference)
    assert sum(partial) > 100  # the partial selection, not only full sorts
    assert fused.fairshare._usage.tobytes() == reference.fairshare._usage.tobytes()


def test_a_forked_lockstep_group_matches_the_reference_ranking():
    """IDLE cells forked from one prefix: the install writes each
    sibling's usage with ``np.copyto``, and the decay must still run."""
    base = Scenario(
        name="fork-ranking",
        interval="medianjob",
        policy="IDLE",
        scale=1 / 56,
        duration=2 * HOUR,
        seed=3,
    )
    caps = [(CapWindow(4500.0, 6300.0, f),) for f in (0.3, 0.45, 0.6)]
    machine = base.build_machine()
    installed = []
    install = batch.install_fork_state

    def watched_install(cell, state, specs):
        install(cell, state, specs)
        installed.append(cell.controller.fairshare._usage.any())

    def run():
        results = batch.run_replay_batch(
            machine,
            base.build_jobs(machine),
            base.build_policy(machine),
            duration=base.effective_duration,
            caps_per_cell=[base.with_(caps=c).build_caps(machine) for c in caps],
            config=base.build_config(),
            platform=get_platform(base.platform),
        )
        return [_outcome(r.controller) for r in results]

    with mock.patch.object(batch, "install_fork_state", watched_install):
        fused = run()
        with reference_ranking():
            reference = run()
    assert fused == reference
    assert installed == [True] * (2 * (len(caps) - 1))
