"""Unit tests for Job lifecycle, FairShare and the PendingQueue."""

import numpy as np
import pytest

from repro.rjms.config import PriorityWeights
from repro.rjms.fairshare import FairShare
from repro.rjms.job import Job, JobState
from repro.rjms.queue import PendingQueue
from repro.workload.spec import JobSpec


def mkjob(jid, submit=0.0, cores=16, runtime=60.0, walltime=86400.0, user=0):
    return Job(spec=JobSpec(jid, submit, cores, runtime, walltime, user), n_nodes=-(-cores // 16))


class TestJob:
    def test_lifecycle(self):
        j = mkjob(1)
        assert j.state == JobState.PENDING
        j.start(10.0, np.array([0]), 7, 2.7, 1.0)
        assert j.state == JobState.RUNNING
        assert j.expected_end == 10.0 + 86400.0
        j.finish(70.0)
        assert j.state == JobState.COMPLETED
        assert j.end_time == 70.0

    def test_stretching(self):
        j = mkjob(1, runtime=100.0, walltime=1000.0)
        j.start(0.0, np.array([0]), 0, 1.2, 1.63)
        assert j.stretched_runtime == pytest.approx(163.0)
        assert j.stretched_walltime == pytest.approx(1630.0)
        assert j.expected_end == pytest.approx(1630.0)

    def test_start_validates(self):
        j = mkjob(1, cores=32)  # 2 nodes
        with pytest.raises(ValueError, match="needs 2 nodes"):
            j.start(0.0, np.array([0]), 7, 2.7, 1.0)
        with pytest.raises(ValueError, match="degradation"):
            j.start(0.0, np.array([0, 1]), 7, 2.7, 0.5)
        j.start(0.0, np.array([0, 1]), 7, 2.7, 1.0)
        with pytest.raises(ValueError):
            j.start(0.0, np.array([0, 1]), 7, 2.7, 1.0)

    def test_finish_requires_running(self):
        with pytest.raises(ValueError):
            mkjob(1).finish(0.0)

    def test_expected_end_requires_start(self):
        with pytest.raises(ValueError):
            _ = mkjob(1).expected_end

    def test_killed_state(self):
        j = mkjob(1)
        j.start(0.0, np.array([0]), 7, 2.7, 1.0)
        j.finish(5.0, killed=True)
        assert j.state == JobState.KILLED


class TestFairShare:
    def test_unused_system_gives_ones(self):
        fs = FairShare(4)
        assert np.allclose(fs.factors(0.0), 1.0)

    def test_heavy_user_penalised(self):
        fs = FairShare(2)
        fs.record_usage(0, 1000.0, 0.0)
        f = fs.factors(0.0)
        assert f[0] < f[1]
        assert f[0] == pytest.approx(2 ** (-2.0))  # all usage, half shares

    def test_decay_restores_factor(self):
        fs = FairShare(2, half_life=100.0)
        fs.record_usage(0, 1000.0, 0.0)
        f0 = fs.factor(0, 0.0)
        # Decay shrinks absolute usage but both users' relative shares
        # are unchanged when only one has usage; add competing usage.
        fs.record_usage(1, 1000.0, 0.0)
        assert fs.factor(0, 0.0) > f0

    def test_seed_usage(self):
        fs = FairShare(3)
        fs.seed_usage(np.array([10.0, 0.0, 0.0]))
        assert fs.factor(0, 0.0) < fs.factor(1, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FairShare(0)
        with pytest.raises(ValueError):
            FairShare(2, half_life=0)
        fs = FairShare(2)
        with pytest.raises(IndexError):
            fs.record_usage(5, 1.0, 0.0)
        with pytest.raises(ValueError):
            fs.record_usage(0, -1.0, 0.0)
        with pytest.raises(ValueError):
            fs.seed_usage(np.array([1.0]))
        fs.record_usage(0, 1.0, 100.0)
        with pytest.raises(ValueError, match="backwards"):
            fs.factors(50.0)


class TestPendingQueue:
    def make_queue(self, weights=None):
        fs = FairShare(8)
        return PendingQueue(1440, weights or PriorityWeights(), fs), fs

    def test_add_remove_contains(self):
        q, _ = self.make_queue()
        j = mkjob(1)
        q.add(j)
        assert len(q) == 1 and 1 in q
        assert q.job(1) is j
        assert q.remove(1) is j
        assert len(q) == 0 and 1 not in q

    def test_duplicate_rejected(self):
        q, _ = self.make_queue()
        q.add(mkjob(1))
        with pytest.raises(ValueError):
            q.add(mkjob(1))

    def test_fcfs_order_among_equals(self):
        q, _ = self.make_queue(PriorityWeights(age=1000, fairshare=0, job_size=0))
        for jid, submit in ((3, 20.0), (1, 0.0), (2, 10.0)):
            q.add(mkjob(jid, submit=submit))
        assert list(q.order(100.0)[0]) == [1, 2, 3]

    def test_age_saturation_keeps_fcfs_ties_deterministic(self):
        q, _ = self.make_queue(PriorityWeights(age=1000, fairshare=0, job_size=0, max_age=10.0))
        q.add(mkjob(2, submit=5.0))
        q.add(mkjob(1, submit=0.0))
        # Both saturated at age >= 10: tie broken by submit then id.
        assert list(q.order(1000.0)[0]) == [1, 2]

    def test_size_weight_prefers_wide_jobs(self):
        q, _ = self.make_queue(PriorityWeights(age=0, fairshare=0, job_size=100))
        q.add(mkjob(1, cores=16))
        q.add(mkjob(2, cores=1440))
        assert list(q.order(0.0)[0]) == [2, 1]

    def test_fairshare_orders_users(self):
        q, fs = self.make_queue(PriorityWeights(age=0, fairshare=1000, job_size=0))
        fs.record_usage(0, 1e6, 0.0)
        q.add(mkjob(1, user=0))
        q.add(mkjob(2, user=1))
        assert list(q.order(0.0)[0]) == [2, 1]

    def test_growth_beyond_initial_capacity(self):
        q, _ = self.make_queue()
        for jid in range(600):
            q.add(mkjob(jid, submit=float(jid)))
        assert len(q) == 600
        order, _, _ = q.order(1e6)
        assert len(order) == 600
        assert order[0] == 0

    def test_swap_remove_keeps_consistency(self):
        q, _ = self.make_queue(PriorityWeights(age=1000, fairshare=0, job_size=0))
        for jid in range(10):
            q.add(mkjob(jid, submit=float(jid)))
        q.remove(0)
        q.remove(5)
        order = list(q.order(100.0)[0])
        assert order == [1, 2, 3, 4, 6, 7, 8, 9]

    def test_empty_order(self):
        q, _ = self.make_queue()
        assert all(col.size == 0 for col in q.order(0.0))

    def test_columns_follow_ids_through_growth_and_swap_remove(self):
        q, _ = self.make_queue(PriorityWeights(age=1000, fairshare=0, job_size=0))
        jobs = {
            jid: mkjob(jid, float(jid), cores=16 * (1 + jid % 7), walltime=60.5 + jid)
            for jid in range(300)
        }
        for job in jobs.values():
            q.add(job)
        for jid in range(0, 300, 3):
            q.remove(jid)
        for limit in (None, 5, 299):
            ids, nodes, walltimes = q.order(100.0, limit=limit)
            assert list(ids) == [jid for jid in range(300) if jid % 3][:limit]
            assert list(nodes) == [jobs[int(j)].n_nodes for j in ids]
            assert list(walltimes) == [jobs[int(j)].spec.walltime for j in ids]

    def test_jobs_in_order_returns_jobs(self):
        q, _ = self.make_queue()
        q.add(mkjob(7))
        (job,) = q.jobs_in_order(0.0)
        assert job.job_id == 7
