"""Chaos suite: deterministic fault injection against every backend.

The contract under test is the robustness layer's headline: injected
worker crashes, hangs, transient exceptions and torn store writes may
cost retries, respawns and quarantines — but never change a result
byte.  Every recovered sweep must converge to the same pinned digests
a fault-free run produces, and every injected failure must be
accounted for in the :class:`SweepReport`.
"""

import errno
import os

import pytest

from repro.exp import store as store_mod
from repro.exp import (
    BatchBackend,
    CapWindow,
    DirectoryStore,
    FailureRecord,
    FaultPlan,
    FaultSpec,
    GridRunner,
    InjectedCrash,
    InjectedHang,
    InjectedTransient,
    PoolBackend,
    RetryPolicy,
    Scenario,
    SweepError,
    TaskFailure,
    injected,
    make_backend,
    make_store,
    parse_fault_plan,
    result_key,
    run_scenario,
)
from repro.exp.resilience import run_with_retry

HOUR = 3600.0

#: tiny, fast scenarios (90-node Curie, 1 h) with distinct content
TINY = Scenario(
    name="tiny-chaos",
    interval="medianjob",
    policy="MIX",
    scale=1 / 56,
    duration=HOUR,
)
TINY_B = TINY.with_(name="tiny-chaos-b", policy="SHUT")
TINY_C = TINY.with_(name="tiny-chaos-c", policy="DVFS")
#: same cap-free content as each other: a lockstep batch group
TINY_CAP60 = TINY.with_(
    name="tiny-cap60", caps=(CapWindow(0.25 * HOUR, 0.75 * HOUR, 0.6),)
)
TINY_CAP40 = TINY.with_(
    name="tiny-cap40", caps=(CapWindow(0.25 * HOUR, 0.75 * HOUR, 0.4),)
)
TINY_CAP80 = TINY.with_(
    name="tiny-cap80", caps=(CapWindow(0.25 * HOUR, 0.75 * HOUR, 0.8),)
)

RETRY_FAST = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


@pytest.fixture(autouse=True)
def no_leaked_shm_segments():
    """Every chaos test — crash, hang, timeout-kill — must leave /dev/shm clean."""
    from repro.exp import shm

    before = shm.live_segments()
    yield
    leaked = shm.live_segments() - before
    assert not leaked, f"chaos test leaked shm segments: {sorted(leaked)}"


def crash_plan(*scenarios, kind="crash", times=1, hang_seconds=30.0):
    return FaultPlan(
        specs=tuple(
            FaultSpec(sc.scenario_hash(), kind, times=times) for sc in scenarios
        ),
        hang_seconds=hang_seconds,
    )


@pytest.fixture(scope="module")
def golden():
    """Fault-free digests of the tiny scenarios (the correctness bar)."""
    return {
        sc.name: run_scenario(sc).trace_digest
        for sc in (TINY, TINY_B, TINY_C, TINY_CAP60, TINY_CAP40, TINY_CAP80)
    }


class TestFaultPlanUnit:
    HASHES = [f"{i:016x}" for i in range(10)]

    def test_seeded_plan_is_deterministic(self):
        a = FaultPlan.random(self.HASHES, 7)
        b = FaultPlan.random(self.HASHES, 7)
        assert a == b
        assert a != FaultPlan.random(self.HASHES, 8)
        # Selection order is content order, not input order.
        assert a == FaultPlan.random(list(reversed(self.HASHES)), 7)

    def test_round_trips_through_json(self):
        import json

        plan = FaultPlan.random(self.HASHES, 3, rate=1.0, times=None)
        again = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert again == plan

    def test_full_rate_covers_every_kind(self):
        plan = FaultPlan.random(self.HASHES, 5, rate=1.0)
        assert len(plan.specs) == len(self.HASHES)
        assert set(plan.kinds_planned()) == {"crash", "hang", "transient", "corrupt"}

    def test_one_fault_per_scenario(self):
        h = self.HASHES[0]
        with pytest.raises(ValueError, match="at most one"):
            FaultPlan(specs=(FaultSpec(h, "crash"), FaultSpec(h, "hang")))

    def test_fires_on_attempts(self):
        once = FaultSpec("a" * 16, "crash", times=1)
        assert once.fires_on(1) and not once.fires_on(2)
        twice = FaultSpec("a" * 16, "crash", times=2)
        assert twice.fires_on(2) and not twice.fires_on(3)
        poison = FaultSpec("a" * 16, "crash", times=None)
        assert all(poison.fires_on(k) for k in (1, 5, 100))

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("a" * 16, "meteor")
        with pytest.raises(ValueError, match="times"):
            FaultSpec("a" * 16, "crash", times=0)
        with pytest.raises(ValueError, match="rate"):
            FaultPlan.random(self.HASHES, 1, rate=1.5)
        with pytest.raises(ValueError, match="hang_seconds"):
            FaultPlan(hang_seconds=0.0)

    def test_parse_specs(self, tmp_path):
        import json

        plan = parse_fault_plan("seed:7", self.HASHES)
        assert plan == FaultPlan.random(self.HASHES, 7)
        assert parse_fault_plan("seed:7:1.0", self.HASHES) == FaultPlan.random(
            self.HASHES, 7, rate=1.0
        )
        poison = parse_fault_plan("seed:7:1.0:*", self.HASHES)
        assert all(s.times is None for s in poison.specs)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(poison.to_dict()))
        assert parse_fault_plan(f"@{path}", []) == poison
        for bad in ("", "seed", "seed:x", "7", "seed:1:2:3:4", "seed:1:0.5:y"):
            with pytest.raises(ValueError, match="fault-plan spec"):
                parse_fault_plan(bad, self.HASHES)


class TestRetryPolicyUnit:
    def test_backoff_is_deterministic_and_bounded(self):
        p = RetryPolicy(base_delay=0.1, factor=2.0, max_delay=1.0)
        delays = [p.backoff("label", k) for k in (1, 2, 3, 10)]
        assert delays == [p.backoff("label", k) for k in (1, 2, 3, 10)]
        assert all(0 < d <= 1.0 for d in delays)
        # Jitter multiplier stays in [0.5, 1.0) of the raw schedule.
        assert 0.05 <= delays[0] < 0.1
        # Different labels decorrelate, same schedule bounds.
        assert p.backoff("other", 1) != p.backoff("label", 1)
        assert RetryPolicy(base_delay=0.0).backoff("x", 3) == 0.0

    def test_classification(self):
        p = RetryPolicy()
        assert p.is_retryable(InjectedTransient("x"))
        assert p.is_retryable(InjectedCrash("x"))
        assert p.is_retryable(OSError(errno.ESTALE, "stale"))
        assert not p.is_retryable(ValueError("deterministic bug"))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)

    def test_retry_recovers_transient(self):
        calls, slept = [], []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise InjectedTransient("flaky")
            return "ok"

        outcome, retries = run_with_retry(
            flaky, label="t", retry=RetryPolicy(max_attempts=3, base_delay=0.5),
            sleep=slept.append,
        )
        assert outcome == "ok" and retries == 2
        assert calls == [1, 2, 3]
        assert len(slept) == 2 and slept[1] > slept[0]  # exponential

    def test_fatal_error_fails_immediately(self):
        def broken(attempt):
            raise ValueError("always")

        outcome, retries = run_with_retry(
            broken, label="t", retry=RETRY_FAST, sleep=lambda _s: None
        )
        assert isinstance(outcome, TaskFailure)
        assert outcome.kind == "error" and outcome.attempts == 1 and retries == 0
        assert isinstance(outcome.exception, ValueError)

    def test_exhausted_budget_reports_attempts(self):
        def poison(attempt):
            raise InjectedCrash("poison")

        outcome, retries = run_with_retry(
            poison, label="t", retry=RETRY_FAST, sleep=lambda _s: None
        )
        assert isinstance(outcome, TaskFailure)
        assert outcome.kind == "crash" and outcome.attempts == 3 and retries == 2


class TestSerialChaos:
    def test_transient_fault_retries_to_golden(self, golden):
        with injected(crash_plan(TINY, kind="transient")):
            with GridRunner(retry=RETRY_FAST) as r:
                report = r.sweep([TINY, TINY_B])
        assert report.ok and report.n_retries == 1
        assert {x.scenario.name: x.trace_digest for x in report.results} == {
            n: golden[n] for n in ("tiny-chaos", "tiny-chaos-b")
        }

    def test_crash_and_hang_raise_in_process(self, golden):
        # In-process, crash/hang become classified exceptions (a real
        # os._exit would kill the test harness) — and still retry.
        with injected(crash_plan(TINY, kind="crash")):
            with GridRunner(retry=RETRY_FAST) as r:
                assert r.run([TINY])[0].trace_digest == golden["tiny-chaos"]
        with injected(crash_plan(TINY, kind="hang")):
            with GridRunner(retry=RETRY_FAST) as r:
                assert r.run([TINY])[0].trace_digest == golden["tiny-chaos"]

    def test_on_error_raise_reraises_the_original(self):
        with injected(crash_plan(TINY, kind="crash", times=None)):
            with GridRunner(retry=RETRY_FAST) as r:
                with pytest.raises(InjectedCrash):
                    r.run([TINY])

    def test_poison_is_quarantined_siblings_complete(self, golden):
        with injected(crash_plan(TINY, kind="crash", times=None)):
            with GridRunner(retry=RETRY_FAST, on_error="quarantine") as r:
                report = r.sweep([TINY, TINY_B])
        assert [x.scenario.name for x in report.results] == ["tiny-chaos-b"]
        assert report.results[0].trace_digest == golden["tiny-chaos-b"]
        (record,) = report.failures
        assert record.quarantined and record.kind == "crash"
        assert record.scenario_hash == TINY.scenario_hash()
        assert record.attempts == 3
        assert not report.unquarantined_losses and not report.ok

    def test_hang_failure_is_timeout_kind(self):
        with injected(crash_plan(TINY, kind="hang", times=None)):
            with GridRunner(on_error="quarantine") as r:
                report = r.sweep([TINY])
        (record,) = report.failures
        assert record.kind == "timeout" and record.error_type == "InjectedHang"

    def test_on_error_validation(self):
        with pytest.raises(ValueError, match="on_error"):
            GridRunner(on_error="explode")
        with pytest.raises(ValueError, match="timeout"):
            GridRunner(timeout=0.0)

    def test_failure_record_persists_skips_then_heals(self, tmp_path, golden):
        store = DirectoryStore(tmp_path)
        poison = crash_plan(TINY, kind="crash", times=None)

        with injected(poison):
            with GridRunner(store=store, retry=RETRY_FAST, on_error="quarantine") as r:
                report = r.sweep([TINY, TINY_B])
        assert len(report.failures) == 1
        (disk,) = store.failures()
        assert disk.scenario_name == "tiny-chaos" and disk.quarantined
        assert store.get_failure(result_key(TINY)) == disk

        # on_error="skip" does not burn attempts on a known failure.
        with injected(poison):
            with GridRunner(store=store, retry=RETRY_FAST, on_error="skip") as r:
                report = r.sweep([TINY, TINY_B])
        assert [x.scenario_name for x in report.skipped] == ["tiny-chaos"]
        assert not report.failures  # never attempted, so no new failure
        assert report.n_hits == 1  # sibling came from the store

        # Fault removed: the same store heals on a successful re-run.
        with GridRunner(store=store, retry=RETRY_FAST, on_error="quarantine") as r:
            report = r.sweep([TINY, TINY_B])
        assert report.healed == ["tiny-chaos"]
        assert store.failures() == [] and store.get_failure(result_key(TINY)) is None
        assert {x.scenario.name: x.trace_digest for x in report.results} == {
            n: golden[n] for n in ("tiny-chaos", "tiny-chaos-b")
        }


class TestPoolChaos:
    def test_one_scenario_crash_is_retried_in_the_pool(self, golden):
        # A lone cell still runs on a worker: the crash kills the
        # worker, not the driver, and the retry recovers.
        backend = make_backend("pool", workers=2)
        with injected(crash_plan(TINY, kind="crash", times=1)):
            with GridRunner(backend=backend, retry=RETRY_FAST) as r:
                report = r.sweep([TINY])
        assert report.ok and report.n_retries == 1
        assert backend.n_respawns >= 1
        assert report.results[0].trace_digest == golden["tiny-chaos"]

    def test_worker_crash_respawns_and_recovers(self, golden):
        plan = crash_plan(TINY_B, kind="crash")  # real os._exit in the worker
        backend = PoolBackend(2)
        with injected(plan):
            with GridRunner(backend=backend, retry=RETRY_FAST) as r:
                report = r.sweep([TINY, TINY_B, TINY_C])
        assert report.ok and report.n_retries >= 1
        assert backend.n_respawns >= 1
        assert {x.scenario.name: x.trace_digest for x in report.results} == {
            n: golden[n] for n in ("tiny-chaos", "tiny-chaos-b", "tiny-chaos-c")
        }

    def test_poison_worker_quarantined_siblings_complete(self, golden):
        plan = crash_plan(TINY_B, kind="crash", times=None)
        with injected(plan):
            with GridRunner(
                backend=PoolBackend(2), retry=RETRY_FAST,
                on_error="quarantine",
            ) as r:
                report = r.sweep([TINY, TINY_B, TINY_C])
        (record,) = report.failures
        assert record.kind == "crash" and record.quarantined
        assert record.scenario_hash == TINY_B.scenario_hash()
        assert {x.scenario.name: x.trace_digest for x in report.results} == {
            n: golden[n] for n in ("tiny-chaos", "tiny-chaos-c")
        }

    def test_timeout_charges_only_the_hung_item(self, golden):
        plan = crash_plan(TINY, kind="hang", times=None, hang_seconds=30.0)
        with injected(plan):
            with GridRunner(
                backend=PoolBackend(2), timeout=3.0, on_error="quarantine"
            ) as r:
                report = r.sweep([TINY, TINY_B, TINY_C])
        (record,) = report.failures
        assert record.kind == "timeout"
        assert record.scenario_hash == TINY.scenario_hash()
        assert {x.scenario.name: x.trace_digest for x in report.results} == {
            n: golden[n] for n in ("tiny-chaos-b", "tiny-chaos-c")
        }

    @pytest.mark.slow
    def test_injected_hang_is_killed_and_retried(self, golden):
        # The worker really sleeps; the driver kills the pool at the
        # timeout, respawns, and the retry (attempt 2) runs clean.
        plan = crash_plan(TINY, kind="hang", hang_seconds=60.0)
        backend = PoolBackend(2)
        with injected(plan):
            with GridRunner(backend=backend, retry=RETRY_FAST, timeout=8.0) as r:
                report = r.sweep([TINY, TINY_B])
        assert report.ok and backend.n_respawns >= 1
        assert {x.scenario.name: x.trace_digest for x in report.results} == {
            n: golden[n] for n in ("tiny-chaos", "tiny-chaos-b")
        }

    def test_close_is_idempotent_after_broken_pool(self, golden):
        backend = PoolBackend(2)
        with injected(crash_plan(TINY_B, kind="crash")):
            with GridRunner(backend=backend, retry=RETRY_FAST) as r:
                assert r.sweep([TINY, TINY_B]).ok
        assert backend.n_respawns >= 1
        # The broken pool's successor was closed with the sweep...
        assert backend._pool is None
        # ...so close() is a no-op any number of times...
        backend.close()
        backend.close()
        # ...and the backend is usable again (fresh pool).
        with GridRunner(backend=backend) as r:
            assert r.run([TINY])[0].trace_digest == golden["tiny-chaos"]
        assert backend._pool is None

    def test_atexit_reaper_survives_broken_pools(self):
        from repro.exp.backends import _LIVE_POOL_BACKENDS, _atexit_reap

        backend = PoolBackend(2)
        with injected(crash_plan(TINY, kind="crash", times=None)):
            with GridRunner(backend=backend, on_error="quarantine") as r:
                assert len(r.sweep([TINY]).failures) == 1
        assert backend not in _LIVE_POOL_BACKENDS
        _atexit_reap()  # must not raise, whatever state pools are in

    def test_crash_attribution_via_solo_requeue(self, golden):
        # Both in-flight cells die with the pool; only the real
        # offender (attempt-keyed) is charged, the innocent completes.
        with injected(crash_plan(TINY, kind="crash")):
            with GridRunner(
                backend=PoolBackend(2),
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            ) as r:
                report = r.sweep([TINY, TINY_B])
        assert report.ok
        assert {x.scenario.name: x.trace_digest for x in report.results} == {
            n: golden[n] for n in ("tiny-chaos", "tiny-chaos-b")
        }


class TestBatchChaos:
    def test_faulting_cell_falls_out_of_the_batch(self, golden):
        # One cell of a three-cell lockstep group carries a transient
        # fault: it must re-run solo (and retry), the siblings batch.
        with injected(crash_plan(TINY_CAP40, kind="transient")):
            with GridRunner(backend=BatchBackend(), retry=RETRY_FAST) as r:
                report = r.sweep([TINY_CAP60, TINY_CAP40, TINY_CAP80])
        assert report.ok and report.n_retries == 1
        assert {x.scenario.name: x.trace_digest for x in report.results} == {
            n: golden[n] for n in ("tiny-cap60", "tiny-cap40", "tiny-cap80")
        }

    def test_batch_replay_failure_degrades_to_solo(self, golden, monkeypatch):
        import repro.sim.batch as batch_mod

        real = batch_mod.run_replay_batch

        def boom(*args, caps_per_cell, **kwargs):
            # Solo re-runs are batches of one: only the group explodes.
            if len(caps_per_cell) > 1:
                raise RuntimeError("lockstep replay exploded")
            return real(*args, caps_per_cell=caps_per_cell, **kwargs)

        monkeypatch.setattr(batch_mod, "run_replay_batch", boom)
        with GridRunner(backend=BatchBackend()) as r:
            report = r.sweep([TINY_CAP60, TINY_CAP40, TINY_CAP80])
        assert report.ok and report.groups["n_degraded_groups"] == 1
        assert {x.scenario.name: x.trace_digest for x in report.results} == {
            n: golden[n] for n in ("tiny-cap60", "tiny-cap40", "tiny-cap80")
        }

    def test_poison_cell_quarantined_siblings_batch(self, golden):
        with injected(crash_plan(TINY_CAP40, kind="crash", times=None)):
            with GridRunner(
                backend=BatchBackend(), retry=RETRY_FAST, on_error="quarantine"
            ) as r:
                report = r.sweep([TINY_CAP60, TINY_CAP40, TINY_CAP80])
        (record,) = report.failures
        assert record.quarantined
        assert record.scenario_hash == TINY_CAP40.scenario_hash()
        assert {x.scenario.name: x.trace_digest for x in report.results} == {
            n: golden[n] for n in ("tiny-cap60", "tiny-cap80")
        }


class TestShardedChaos:
    def test_shards_retry_their_own_slice(self, golden):
        scenarios = [TINY, TINY_B, TINY_C, TINY_CAP60]
        plan = crash_plan(*scenarios, kind="transient")
        merged = {}
        retries = 0
        with injected(plan):
            for k in range(2):
                with GridRunner(
                    backend=make_backend("serial", shard=(k, 2)),
                    retry=RETRY_FAST,
                ) as r:
                    report = r.sweep(scenarios)
                assert report.ok
                retries += report.n_retries
                merged.update(
                    {x.scenario.name: x.trace_digest for x in report.results}
                )
        assert retries == len(scenarios)  # every scenario faulted once
        assert merged == {sc.name: golden[sc.name] for sc in scenarios}


class TestStoreResilience:
    def _result(self):
        return run_scenario(TINY)

    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        """A ``shared:`` directory store with a millisecond backoff."""
        monkeypatch.setattr(store_mod, "_RETRY_DELAY", 0.001)
        return make_store(f"shared:{tmp_path}")

    def test_shared_store_retries_transient_oserror(self, store, monkeypatch):
        real_replace, fails = os.replace, []

        def flaky_replace(tmp, path):
            if len(fails) < 2:
                fails.append(path)
                raise OSError(errno.ESTALE, "stale NFS handle")
            return real_replace(tmp, path)

        result = self._result()
        monkeypatch.setattr(store_mod.os, "replace", flaky_replace)
        store.put(result_key(TINY), result)
        monkeypatch.undo()
        assert store.health.retried_writes == 2
        assert store.health.failed_writes == 0
        got = store.get(result_key(TINY))
        assert got is not None and got.trace_digest == result.trace_digest
        assert not [p for p in store.root.iterdir() if ".tmp." in p.name]

    def test_shared_store_abandons_after_budget(self, store, monkeypatch):
        def always_enospc(tmp, path):
            raise OSError(errno.ENOSPC, "disk full")

        result = self._result()
        monkeypatch.setattr(store_mod.os, "replace", always_enospc)
        with pytest.warns(RuntimeWarning, match="abandoning"):
            store.put(result_key(TINY), result)  # must not raise
        monkeypatch.undo()
        assert store.health.failed_writes == 1
        assert store.health.retried_writes == store_mod._WRITE_ATTEMPTS - 1
        assert store.get(result_key(TINY)) is None

    def test_nontransient_oserror_propagates(self, store, monkeypatch):
        def no_perm(tmp, path):
            raise OSError(errno.EPERM, "read-only")

        result = self._result()
        monkeypatch.setattr(store_mod.os, "replace", no_perm)
        with pytest.raises(OSError):
            store.put(result_key(TINY), result)

    def test_corrupt_write_is_discarded_and_healed(self, tmp_path, golden):
        store = DirectoryStore(tmp_path)
        with injected(crash_plan(TINY, kind="corrupt")):
            with GridRunner(store=store) as r:
                report = r.sweep([TINY])
            # The sweep itself succeeded; the store entry is torn.
            assert report.ok
            assert report.results[0].trace_digest == golden["tiny-chaos"]
            with pytest.warns(RuntimeWarning, match="corrupt"):
                assert store.get(result_key(TINY)) is None
            assert store.health.discarded == 1
            # Resume from the same store: miss -> recompute -> clean
            # write (the fault fired its single time already).
            with GridRunner(store=store) as r:
                report = r.sweep([TINY])
        assert report.n_hits == 0 and report.n_executed == 1
        assert report.results[0].trace_digest == golden["tiny-chaos"]
        assert store.get(result_key(TINY)).trace_digest == golden["tiny-chaos"]
        assert report.store_health["discarded"] == 1

    def test_corrupt_series_write_is_discarded(self, tmp_path):
        store = DirectoryStore(tmp_path)
        with injected(crash_plan(TINY, kind="corrupt")):
            with GridRunner(store=store, series=True) as r:
                r.sweep([TINY])
            key = result_key(TINY)
            # The torn payload hits whichever write consumed the
            # charge first (the .npz comes first in the runner).
            assert store.get_series(key) is None or store.get(key) is None
            assert store.health.discarded >= 0  # discards happen lazily on read


class TestSweepReportAndAccounting:
    def test_summary_strings(self):
        report = GridRunner().sweep([TINY])
        assert "1 result(s)" in report.summary()
        assert report.backend == "serial"
        assert report.wall_seconds > 0
        assert report.store_health == {
            "discarded": 0, "retried_writes": 0, "failed_writes": 0,
        }

    def test_dropped_results_error_names_hashes_and_backend(self):
        class LossyBackend(BatchBackend):
            name = "lossy"

            def run_scenarios(self, scenarios, **kwargs):
                for i, outcome in super().run_scenarios(scenarios, **kwargs):
                    if i != 0:  # silently drop the first item
                        yield i, outcome

        with GridRunner(backend=LossyBackend(grouped=False)) as r:
            with pytest.raises(SweepError) as exc_info:
                r.sweep([TINY, TINY_B])
        message = str(exc_info.value)
        assert "lossy" in message
        assert TINY.scenario_hash() in message

    def test_failure_record_round_trip(self):
        record = FailureRecord(
            scenario_name="x", scenario_hash="a" * 16, key="k",
            backend="pool", kind="crash", error_type="InjectedCrash",
            message="boom", attempts=3, quarantined=True, recorded_at=1.5,
        )
        assert FailureRecord.from_dict(record.to_dict()) == record


@pytest.mark.slow
class TestFullLibraryChaos:
    """The acceptance headline: a fault-injected full-library sweep
    (all four fault kinds, fixed seed) under the process pool still
    reproduces all 16 golden digests byte-for-byte, with every
    injected failure accounted for."""

    def _library(self):
        from repro.exp import SCENARIO_LIBRARY
        from repro.policy import PAPER_POLICY_NAMES

        return [
            sc.with_(scale=1 / 56) if sc.platform == "curie" else sc
            for sc in SCENARIO_LIBRARY
            if sc.policy_name in PAPER_POLICY_NAMES
        ]

    def _pinned(self):
        from test_determinism import (
            LIBRARY_SEED_DIGESTS,
            PLATFORM_LIBRARY_DIGESTS,
        )

        return {**LIBRARY_SEED_DIGESTS, **PLATFORM_LIBRARY_DIGESTS}

    def test_chaos_sweep_reproduces_all_pinned_digests(self, tmp_path):
        scenarios = self._library()
        pinned = self._pinned()
        assert len(scenarios) == len(pinned) == 16
        plan = FaultPlan.random(
            [sc.scenario_hash() for sc in scenarios], 7, rate=0.5,
            hang_seconds=120.0,
        )
        assert set(plan.kinds_planned()) == {
            "crash", "hang", "transient", "corrupt",
        }
        store = DirectoryStore(tmp_path)
        with injected(plan):
            with GridRunner(
                backend=PoolBackend(2),
                store=store,
                retry=RetryPolicy(max_attempts=3, base_delay=0.01),
                timeout=90.0,
                on_error="quarantine",
            ) as r:
                report = r.sweep(scenarios)
        assert report.ok, [f.message for f in report.failures]
        assert not report.unquarantined_losses
        digests = {x.scenario.name: x.trace_digest for x in report.results}
        assert digests == pinned
        # Every non-corrupt fault cost at least one retry/respawn that
        # the report accounts for; corrupt faults surface as store
        # discards on the next read instead.
        n_exec_faults = sum(
            n for k, n in plan.kinds_planned().items() if k != "corrupt"
        )
        assert report.n_retries >= 1
        assert report.n_retries + len(report.failures) >= n_exec_faults - 1
