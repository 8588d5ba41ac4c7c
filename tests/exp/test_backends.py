"""Execution backends: ownership, pooling, sharding, equivalence.

The contract under test is the paper's own methodology: *which*
backend executed a scenario can never change the result.  The
cross-backend equivalence suite drives the full 16-scenario library
(12 Curie + 4 platform scenarios) through serial, process-pool,
batched-lockstep, batch×pool and sharded backends and holds every one
to the pinned golden digests.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.report import merge_cells
from repro.exp import (
    BatchBackend,
    CapWindow,
    DirectoryStore,
    FaultPlan,
    FaultSpec,
    GridRunner,
    MemoryStore,
    PoolBackend,
    RetryPolicy,
    Scenario,
    ShardedBackend,
    injected,
    make_backend,
    merge_results,
    parse_shard,
    results_to_cells,
    shard_index,
    shard_scenarios,
)

HOUR = 3600.0

TINY = Scenario(
    name="tiny-backend",
    interval="medianjob",
    policy="NONE",
    scale=1 / 56,
    duration=HOUR,
)


class TestShardSelection:
    def test_parse_shard(self):
        assert parse_shard("1/3") == (0, 3)
        assert parse_shard("3/3") == (2, 3)
        for bad in ("0/3", "4/3", "1", "a/b", "1/0", "/2"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_partition_is_exact_and_order_preserving(self):
        from repro.exp import SCENARIO_LIBRARY

        scenarios = list(SCENARIO_LIBRARY)
        for count in (1, 2, 3, 5):
            shards = [shard_scenarios(scenarios, k, count) for k in range(count)]
            # Disjoint, exhaustive, order-preserving.
            names = [sc.name for shard in shards for sc in shard]
            assert sorted(names) == sorted(sc.name for sc in scenarios)
            assert len(set(names)) == len(names)
            for shard in shards:
                in_order = [sc for sc in scenarios if sc in shard]
                assert in_order == shard

    def test_assignment_is_content_based(self):
        # Renaming cannot move a scenario between shards; content can.
        k = shard_index(TINY.scenario_hash(), 3)
        assert shard_index(TINY.with_(name="renamed").scenario_hash(), 3) == k
        assert shard_index(TINY.scenario_hash(), 1) == 0

    def test_expand_grid_shard_kwarg(self):
        from repro.exp import expand_grid

        axes = {"policy": ["SHUT", "DVFS", "MIX"], "cap": [0.6, 0.4]}
        full = expand_grid(axes)
        parts = [expand_grid(axes, shard=(k, 2)) for k in range(2)]
        assert sorted(sc.name for p in parts for sc in p) == sorted(
            sc.name for sc in full
        )


class TestBackendConstruction:
    def test_make_backend_auto(self):
        serial = make_backend(workers=1)
        assert isinstance(serial, BatchBackend) and serial.name == "serial"
        auto = make_backend(workers=3)
        assert isinstance(auto, PoolBackend) and auto.workers == 3
        assert auto.name == "pool" and not auto.grouped
        assert make_backend("serial", workers=8).name == "serial"
        # One worker means in-process, whatever the name.
        assert make_backend("pool", workers=1).name == "serial"
        with pytest.raises(ValueError):
            make_backend("slurm")

    def test_make_backend_shard_wrapping(self):
        sharded = make_backend("pool", workers=2, shard="2/3")
        assert isinstance(sharded, ShardedBackend)
        assert (sharded.index, sharded.count) == (1, 3)
        assert isinstance(sharded.inner, PoolBackend)
        # 1/1 is the whole grid: no wrapper.
        assert isinstance(make_backend("serial", shard="1/1"), BatchBackend)

    def test_sharded_validation(self):
        with pytest.raises(ValueError):
            ShardedBackend(3, 3)
        with pytest.raises(ValueError):
            ShardedBackend(0, 0)

    def test_ownership(self):
        key = TINY.scenario_hash()
        assert BatchBackend(grouped=False).owns(key)
        assert PoolBackend(2).owns(key)
        owners = [
            k for k in range(4) if ShardedBackend(k, 4).owns(key)
        ]
        assert owners == [shard_index(key, 4)]

    def test_runner_rejects_backend_plus_workers(self):
        with pytest.raises(ValueError):
            GridRunner(workers=2, backend=make_backend("serial"))


class TestPoolLifecycle:
    def test_close_is_idempotent(self):
        backend = PoolBackend(2)
        with GridRunner(backend=backend) as runner:
            runner.run([TINY, TINY.with_(name="s2", seed=2)])
            # The pool lives for one run: the sweep already closed it.
            assert backend._pool is None
        backend._get_pool(2)
        assert backend._pool is not None
        backend.close()
        assert backend._pool is None
        backend.close()  # second close: no-op, no error
        backend.close()

    def test_atexit_reaper_tracks_live_pools(self):
        from repro.exp import backends as mod

        backend = PoolBackend(2)
        backend._get_pool(2)
        assert backend in mod._LIVE_POOL_BACKENDS
        assert mod._REAPER_REGISTERED
        backend.close()
        assert backend not in mod._LIVE_POOL_BACKENDS
        # The reaper is safe to run with nothing registered.
        mod._atexit_reap()

    def test_single_item_runs_in_the_pool(self):
        # One unit still runs on a worker — so timeouts and crash
        # isolation apply — on a pool sized to the work.
        backend = PoolBackend(4)
        with GridRunner(backend=backend) as runner:
            report = runner.sweep([TINY])
        assert backend._pool_size == 1 and backend._pool is None
        assert report.transfer["bytes_shipped"] > 0  # crossed the pipe
        assert report.results[0].trace_digest == (
            GridRunner().run([TINY])[0].trace_digest
        )


class TestShardedRuns:
    def test_shards_reassemble_the_sweep(self, tmp_path):
        scenarios = [TINY.with_(name=f"s{i}", seed=i) for i in range(5)]
        parts = []
        for k in range(3):
            with GridRunner(
                backend=ShardedBackend(k, 3),
                store=DirectoryStore(tmp_path),
            ) as runner:
                part = runner.run(scenarios)
            assert all(
                shard_index(r.scenario.scenario_hash(), 3) == k for r in part
            )
            parts.append(part)
        merged = merge_results(parts)
        serial = GridRunner().run(scenarios)
        assert {r.scenario.name: r.trace_digest for r in merged} == {
            r.scenario.name: r.trace_digest for r in serial
        }
        # The shard partition matches shard_scenarios exactly.
        for k, part in enumerate(parts):
            assert [r.scenario.name for r in part] == [
                sc.name for sc in shard_scenarios(scenarios, k, 3)
            ]

    def test_foreign_scenarios_skip_store_lookups(self, tmp_path):
        # A pre-populated store must not leak foreign-shard results
        # into a shard's output: shards stay independent.
        scenarios = [TINY.with_(name=f"s{i}", seed=i) for i in range(4)]
        store = DirectoryStore(tmp_path)
        GridRunner(store=store).run(scenarios)  # fill the store
        for k in range(2):
            with GridRunner(
                backend=ShardedBackend(k, 2), store=DirectoryStore(tmp_path)
            ) as runner:
                part = runner.run(scenarios)
            assert [r.scenario.name for r in part] == [
                sc.name for sc in shard_scenarios(scenarios, k, 2)
            ]
            assert all(r.cached for r in part)  # own slice: served

    def test_duplicates_collapse_within_a_shard(self):
        twin = TINY.with_(name="twin")
        backend = ShardedBackend(shard_index(TINY.scenario_hash(), 2), 2)
        with GridRunner(backend=backend) as runner:
            results = runner.run([TINY, twin])
        assert [r.scenario.name for r in results] == ["tiny-backend", "twin"]
        assert results[0].same_outcome(results[1])
        # The other shard owns nothing of this list.
        other = ShardedBackend(1 - backend.index, 2)
        with GridRunner(backend=other) as runner:
            assert runner.run([TINY, twin]) == []


class TestBatchBackend:
    def _cap_sweep(self, policy="MIX", fracs=(0.4, 0.5, 0.6)):
        base = TINY.with_(policy=policy, duration=2 * HOUR)
        return [
            base.with_(name=f"cap{f}", caps=(CapWindow(1800.0, 5400.0, f),))
            for f in fracs
        ]

    def test_make_backend_and_shard_wrapping(self):
        assert isinstance(make_backend("batch"), BatchBackend)
        assert BatchBackend().grouped and BatchBackend().name == "batch"
        sharded = make_backend("batch", shard="1/2")
        assert isinstance(sharded, ShardedBackend)
        assert sharded.inner.grouped
        assert not make_backend("serial", shard="1/2").inner.grouped

    def test_group_key_ignores_caps_and_labels(self):
        sweep = self._cap_sweep()
        keys = {BatchBackend.group_key(sc) for sc in sweep}
        assert len(keys) == 1  # one lockstep group
        assert BatchBackend.group_key(TINY.with_(name="x")) == (
            BatchBackend.group_key(TINY)
        )
        assert BatchBackend.group_key(TINY.with_(seed=9)) != (
            BatchBackend.group_key(TINY)
        )

    def test_cap_sweep_matches_serial(self):
        sweep = self._cap_sweep()
        with GridRunner(backend=make_backend("batch")) as runner:
            batched = runner.run(sweep)
        serial = GridRunner().run(sweep)
        assert [r.trace_digest for r in batched] == [
            r.trace_digest for r in serial
        ]
        assert [r.scenario.name for r in batched] == [sc.name for sc in sweep]

    def test_mixed_groups_and_singletons(self):
        # Two cap cells of one scenario plus an unrelated singleton:
        # the backend must group the former and solo-run the latter,
        # returning everything in input order.
        sweep = self._cap_sweep(fracs=(0.4, 0.6))
        lone = TINY.with_(name="lone", seed=7)
        mixed = [sweep[0], lone, sweep[1]]
        with GridRunner(backend=make_backend("batch")) as runner:
            batched = runner.run(mixed)
        serial = GridRunner().run(mixed)
        assert [r.trace_digest for r in batched] == [
            r.trace_digest for r in serial
        ]

    def test_series_payloads_match_serial(self, tmp_path):
        import numpy as np

        sweep = self._cap_sweep(fracs=(0.4, 0.6))
        with GridRunner(
            backend=make_backend("batch"),
            store=DirectoryStore(tmp_path / "batch"),
            series=True,
        ) as runner:
            runner.run(sweep)
        with GridRunner(
            store=DirectoryStore(tmp_path / "serial"), series=True
        ) as runner:
            runner.run(sweep)
        b = GridRunner(store=DirectoryStore(tmp_path / "batch"))
        s = GridRunner(store=DirectoryStore(tmp_path / "serial"))
        for sc in sweep:
            bs, ss = b.load_series(sc), s.load_series(sc)
            assert bs is not None and ss is not None
            assert sorted(bs) == sorted(ss)
            for k in bs:
                assert np.array_equal(bs[k], ss[k]), k


class TestBatchPoolBackend:
    """The batch×pool composition: grouping like batch, execution on
    pool workers, LPT dispatch, and the group-level degradation state
    machine.  Digest equivalence with serial is the invariant every
    case holds."""

    def _cap_sweep(self, seeds=(5, 6), fracs=(0.4, 0.5, 0.6)):
        base = TINY.with_(policy="MIX", duration=2 * HOUR)
        return [
            base.with_(
                name=f"s{seed}-cap{f}",
                seed=seed,
                caps=(CapWindow(1800.0, 5400.0, f),),
            )
            for seed in seeds
            for f in fracs
        ]

    def test_make_backend(self):
        b = make_backend("batch-pool", workers=2)
        assert isinstance(b, PoolBackend)
        assert b.grouped and b.workers == 2 and b.name == "batch-pool"
        sharded = make_backend("batch-pool", workers=2, shard="1/2")
        assert isinstance(sharded, ShardedBackend)
        assert sharded.inner.grouped

    def test_cap_sweep_matches_serial_with_group_stats(self):
        sweep = self._cap_sweep()  # 2 seeds x 3 caps = 2 groups
        with GridRunner(backend=make_backend("batch-pool", workers=2)) as r:
            report = r.sweep(sweep)
        serial = GridRunner().run(sweep)
        assert [r.trace_digest for r in report.results] == [
            r.trace_digest for r in serial
        ]
        assert report.groups == {
            "n_groups": 2, "n_batched_cells": 6, "n_singletons": 0, "n_degraded_groups": 0,
        }
        assert "lockstep group(s)" in report.summary()
        for res in report.results:
            # Batched cells carry the group's elapsed; wall reports
            # the per-cell share of it.
            assert res.elapsed_seconds is not None
            assert res.elapsed_seconds >= res.wall_seconds > 0

    def test_one_worker_delegates_to_in_process_batch(self):
        assert isinstance(make_backend("batch-pool", workers=1), BatchBackend)
        sweep = self._cap_sweep(seeds=(5,))
        with GridRunner(backend=make_backend("batch-pool", workers=1)) as r:
            report = r.sweep(sweep)
        serial = GridRunner().run(sweep)
        assert [r.trace_digest for r in report.results] == [
            r.trace_digest for r in serial
        ]
        assert report.groups["n_groups"] == 1

    def test_mixed_groups_and_singletons(self):
        sweep = self._cap_sweep(seeds=(5,), fracs=(0.4, 0.6))
        lone = TINY.with_(name="lone", seed=7)
        mixed = [sweep[0], lone, sweep[1]]
        with GridRunner(backend=make_backend("batch-pool", workers=2)) as r:
            report = r.sweep(mixed)
        serial = GridRunner().run(mixed)
        assert [r.trace_digest for r in report.results] == [
            r.trace_digest for r in serial
        ]
        assert report.groups["n_singletons"] == 1

    @pytest.mark.parametrize("name", ["serial", "batch", "pool"])
    def test_batch_timeout_warns_once_and_points_here(self, name):
        # Every in-process backend ignores a timeout and says so:
        # serial, batch, and a pool of one worker.
        sweep = self._cap_sweep(seeds=(5,), fracs=(0.4, 0.6))
        with pytest.warns(RuntimeWarning, match="batch-pool"):
            with GridRunner(backend=make_backend(name, workers=1), timeout=30.0) as r:
                results = r.run(sweep)
        assert len(results) == 2

    def test_crash_fault_degrades_only_its_group(self):
        # One 3-cell group (with the victim) plus one singleton: the
        # injected crash kills a *pool worker*, the group degrades to
        # retried solo re-runs, the singleton is untouched, and the
        # sweep loses nothing.
        sweep = self._cap_sweep(seeds=(5,))
        lone = TINY.with_(name="lone", seed=7)
        mixed = sweep + [lone]
        serial = GridRunner().run(mixed)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    scenario_hash=sweep[1].scenario_hash(),
                    kind="crash",
                    times=1,
                ),
            )
        )
        with injected(plan):
            with GridRunner(
                backend=make_backend("batch-pool", workers=2),
                retry=RetryPolicy(max_attempts=3),
                on_error="quarantine",
            ) as r:
                report = r.sweep(mixed)
        assert report.unquarantined_losses == []
        assert not report.failures
        assert report.groups["n_degraded_groups"] == 1
        assert [r.trace_digest for r in report.results] == [
            r.trace_digest for r in serial
        ]

    def test_warm_starts_publish_and_hit_across_runs(self, tmp_path):
        from repro.exp import make_checkpoint_store

        # IDLE with a late window has a real divergence horizon, so
        # the group's worker publishes the shared prefix on pass 1 and
        # restores it on pass 2 — digests identical throughout.
        base = TINY.with_(policy="IDLE", duration=2 * HOUR)
        sweep = [
            base.with_(name=f"c{f}", caps=(CapWindow(5760.0, 6720.0, f),))
            for f in (0.3, 0.4, 0.5)
        ]
        serial = GridRunner().run(sweep)
        spec = f"dir:{tmp_path / 'ckpt'}"
        reports = []
        for _ in range(2):
            with GridRunner(
                backend=make_backend("batch-pool", workers=2),
                checkpoints=make_checkpoint_store(spec),
            ) as r:
                reports.append(r.sweep(sweep))
        assert reports[0].checkpoints["publishes"] >= 1
        assert reports[1].checkpoints["hits"] >= 1
        assert reports[1].checkpoints["misses"] == 0
        for report in reports:
            assert [r.trace_digest for r in report.results] == [
                r.trace_digest for r in serial
            ]


#: the four count keys of ``SweepReport.groups``
GROUP_COUNTS = ("n_groups", "n_batched_cells", "n_singletons", "n_degraded_groups")

ONE_GROUP_PLUS_SINGLETON = {
    "n_groups": 1, "n_batched_cells": 3, "n_singletons": 1, "n_degraded_groups": 0,
}


@pytest.mark.parametrize(
    "name, workers, checkpoints, groups",
    [
        # Solo cells: the first group cell misses and publishes, its
        # two siblings restore that prefix, the singleton misses and
        # publishes its own.
        ("serial", 1, {"hits": 2, "misses": 2, "publishes": 2}, {}),
        ("pool", 2, {"hits": 2, "misses": 2, "publishes": 2}, {}),
        # The group probes once for all three cells.
        ("batch", 1, {"hits": 0, "misses": 2, "publishes": 2}, ONE_GROUP_PLUS_SINGLETON),
        ("batch-pool", 2, {"hits": 0, "misses": 2, "publishes": 2}, ONE_GROUP_PLUS_SINGLETON),
    ],
)
def test_one_sweep_counts_on_every_backend(tmp_path, name, workers, checkpoints, groups):
    """One sweep, every count of its report pinned on all four backends.

    The singleton fails once (transient) and succeeds on its retry.  It
    replays the longest, so the pool dispatches it first: no two cells
    of the group probe the empty checkpoint store at the same time,
    which keeps the pool's checkpoint counts deterministic.
    """
    from repro.exp import DirectoryCheckpointStore

    # IDLE under a late window forks at a real horizon (see
    # test_warm_starts_publish_and_hit_across_runs).
    base = TINY.with_(policy="IDLE", duration=2 * HOUR)
    group = [
        base.with_(name=f"cap{f}", caps=(CapWindow(5760.0, 6720.0, f),))
        for f in (0.3, 0.4, 0.5)
    ]
    lone = TINY.with_(name="lone", seed=7, duration=3 * HOUR)
    plan = FaultPlan(specs=(FaultSpec(lone.scenario_hash(), "transient"),))
    with injected(plan):
        with GridRunner(
            backend=make_backend(name, workers=workers),
            store=DirectoryStore(tmp_path / "results"),
            checkpoints=DirectoryCheckpointStore(tmp_path / "ckpt"),
            retry=RetryPolicy(max_attempts=2),
        ) as runner:
            report = runner.sweep(group + [lone])
    assert report.ok and len(report.results) == 4
    assert (report.n_hits, report.n_executed, report.n_retries) == (0, 4, 1)
    assert report.checkpoints == checkpoints
    assert {k: v for k, v in report.groups.items() if k in GROUP_COUNTS} == groups
    # Only a pool ships tasks across a process boundary.
    assert bool(report.transfer) == name.endswith("pool")


class TestMergeHelpers:
    def test_merge_results_conflict_raises(self):
        from dataclasses import replace

        a = GridRunner().run([TINY])[0]
        forged = replace(a, trace_digest="0" * 64)
        with pytest.raises(ValueError, match="deterministic"):
            merge_results([[a], [forged]])

    def test_merge_cells_deduplicates_and_orders(self):
        from dataclasses import replace

        results = GridRunner().run(
            [
                TINY.with_(name="mix", policy="MIX"),
                TINY.with_(name="shut", policy="SHUT"),
            ]
        )
        cells = results_to_cells(results)
        merged = merge_cells([[cells[1]], [cells[0], cells[1]]])
        assert [c.policy for c in merged] == ["MIX", "SHUT"]  # paper order
        conflicting = replace(cells[0], energy_norm=0.123)
        with pytest.raises(ValueError, match="deterministic"):
            merge_cells([[cells[0]], [conflicting]])

    def test_merge_cells_is_nan_aware(self):
        # Uncapped cells carry NaN window metrics; two bit-identical
        # cells built by *independent* runs (distinct objects, so no
        # tuple identity shortcut) must merge, not conflict.
        a = results_to_cells(GridRunner().run([TINY]))
        b = results_to_cells(GridRunner().run([TINY]))
        assert len(merge_cells([a, b])) == 1


#: smoke scale per platform: each machine at a few dozen nodes
SMOKE_SCALES = {"curie": 1 / 56, "fatnode": 1.0, "manythin": 0.125}


@st.composite
def lockstep_groups(draw):
    """2-4 cells of one generated scenario (platform x enforcing policy
    x seed), each capped by one window at a random start — so the
    lockstep fork lands at a random horizon."""
    platform = draw(st.sampled_from(sorted(SMOKE_SCALES)))
    base = Scenario(
        name="gen",
        interval="medianjob",
        policy=draw(st.sampled_from(("IDLE", "SHUT", "DVFS", "MIX"))),
        platform=platform,
        scale=SMOKE_SCALES[platform],
        duration=HOUR,
        seed=draw(st.integers(min_value=0, max_value=99)),
    )
    cells = []
    for k in range(draw(st.integers(min_value=2, max_value=4))):
        start = 60.0 * draw(st.integers(min_value=0, max_value=45))
        length = 60.0 * draw(st.integers(min_value=5, max_value=15))
        fraction = draw(st.integers(min_value=30, max_value=90)) / 100
        cells.append(
            base.with_(
                name=f"gen-{k}",
                caps=(CapWindow(start, start + length, fraction),),
            )
        )
    return cells


def _digests(name, cells, workers=1):
    with GridRunner(backend=make_backend(name, workers=workers)) as runner:
        return [r.trace_digest for r in runner.run(cells)]


_GENERATED = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestGeneratedScenarioDigests:
    """Backends never change a digest on generated lockstep groups,
    not only on the 16 pinned library scenarios."""

    @settings(max_examples=8, **_GENERATED)
    @given(cells=lockstep_groups())
    def test_serial_and_batch_agree(self, cells):
        assert _digests("batch", cells) == _digests("serial", cells)

    @pytest.mark.slow
    @settings(max_examples=10, **_GENERATED)
    @given(cells=lockstep_groups())
    def test_pool_backends_agree(self, cells):
        serial = _digests("serial", cells)
        assert _digests("batch", cells) == serial
        assert _digests("batch-pool", cells, workers=2) == serial


@pytest.mark.slow
class TestCrossBackendEquivalence:
    """The acceptance bar of the refactor: all 16 pinned digests are
    byte-identical under every backend and shard split, and the store
    contents written by every configuration are identical."""

    def _library(self):
        from repro.exp import SCENARIO_LIBRARY
        from repro.policy import PAPER_POLICY_NAMES

        # The 16 paper-policy scenarios: Curie at one-rack scale (the
        # pinned digest scale), platform scenarios at their library
        # scale.  ADAPTIVE/TRACK digests are pinned in tests/policy/.
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

    def _sweep(self, root, backends, scenarios):
        parts = []
        for backend in backends:
            with GridRunner(backend=backend, store=DirectoryStore(root)) as r:
                parts.append(r.run(scenarios))
        return parts

    def test_all_backends_reproduce_the_pinned_digests(self, tmp_path):
        scenarios = self._library()
        pinned = self._pinned()
        assert len(scenarios) == len(pinned) == 16
        configs = {
            "serial": [make_backend("serial")],
            "pool": [make_backend("pool", workers=2)],
            "batch": [make_backend("batch")],
            "shard2": [make_backend("pool", workers=2, shard=(k, 2)) for k in range(2)],
            "shard3": [make_backend("serial", shard=(k, 3)) for k in range(3)],
            "batchpool2": [make_backend("batch-pool", workers=2)],
            "batchpool4": [make_backend("batch-pool", workers=4)],
            # The shm-off column: the same pool sweeps with the data
            # plane's pickle fallback forced everywhere (REPRO_SHM=0
            # semantics) must stay byte-identical to every other cell.
            "batchpool2-shm-off": [make_backend("batch-pool", workers=2)],
            "pool-shm-off": [make_backend("pool", workers=2)],
        }
        contents = {}
        for label, backends in configs.items():
            from repro.exp import shm

            root = tmp_path / label
            shm.set_shm_enabled(False if label.endswith("shm-off") else None)
            try:
                parts = self._sweep(root, backends, scenarios)
            finally:
                shm.set_shm_enabled(None)
            assert all(not r.cached for part in parts for r in part), label
            merged = merge_results(parts)
            assert {
                r.scenario.name: r.trace_digest for r in merged
            } == pinned, label
            store = DirectoryStore(root)
            contents[label] = {
                key: store.get(key).trace_digest for key in store.keys()
            }
        # Identical store contents (same keys, same digests) whatever
        # executed the sweep.
        assert len({frozenset(c.items()) for c in contents.values()}) == 1


@pytest.mark.slow
def test_sharded_store_merge_equals_single_run_table(tmp_path):
    """Two shard jobs filling one shared store produce, after a merge
    pass over that store, the exact Figure-8 table of a single-process
    run — the CI shard matrix asserts this same property end to end."""
    from repro.exp import render_results_grid

    scenarios = [
        Scenario.paper_cell("medianjob", policy, cap, scale=1 / 56, duration=2 * HOUR)
        for policy in ("SHUT", "DVFS", "MIX")
        for cap in (0.6, 0.4)
    ]
    for k in range(2):
        with GridRunner(
            backend=make_backend("serial", shard=(k, 2)),
            store=DirectoryStore(tmp_path),
        ) as runner:
            runner.run(scenarios)
    with GridRunner(store=DirectoryStore(tmp_path)) as runner:
        merged = runner.run(scenarios)
    assert all(r.cached for r in merged)
    single = GridRunner().run(scenarios)
    assert [r.trace_digest for r in merged] == [r.trace_digest for r in single]
    assert render_results_grid(merged) == render_results_grid(single)
