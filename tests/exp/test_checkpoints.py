"""Persistent warm-start checkpoints: keys, bit-identity, healing, eviction."""

import json
import os
import warnings

import numpy as np
import pytest

from repro.exp import (
    CapWindow,
    DirectoryCheckpointStore,
    DirectoryStore,
    GridRunner,
    MemoryCheckpointStore,
    MemoryStore,
    Scenario,
    WarmStart,
    checkpoint_group,
    checkpoint_key,
    make_backend,
    make_checkpoint_store,
)
from repro.exp.checkpoints import CHECKPOINT_SCHEMA, FORK_STATE_CACHE, horizon_tag
from repro.sim.batch import FORK_STATE_VERSION

HOUR = 3600.0

TINY = Scenario(
    name="tiny-ckpt",
    interval="medianjob",
    policy="NONE",
    scale=1 / 56,
    duration=HOUR,
)


def cap_sweep(policy="IDLE", fracs=(0.4, 0.5, 0.6)):
    """A late-window cap sweep: one checkpoint group, a long shared
    prefix, and per-cell divergence only inside the window."""
    base = TINY.with_(policy=policy, duration=2 * HOUR)
    return [
        base.with_(name=f"cap{f}", caps=(CapWindow(5400.0, 6600.0, f),))
        for f in fracs
    ]


def fake_state(horizon, payload=1):
    """A minimal fork-state-shaped artifact for store plumbing tests."""
    return {
        "meta": {
            "version": FORK_STATE_VERSION,
            "horizon": float(horizon).hex(),
            "payload": payload,
        },
        "arrays": {"a": np.arange(3, dtype=np.int64) * payload},
    }


class TestCheckpointKey:
    def test_group_is_cap_free_content(self):
        groups = {checkpoint_group(sc) for sc in cap_sweep()}
        assert len(groups) == 1  # the whole sweep shares one prefix
        # Names never count; content (seed, policy) does.
        assert checkpoint_group(TINY.with_(name="x")) == checkpoint_group(TINY)
        assert checkpoint_group(TINY.with_(seed=9)) != checkpoint_group(TINY)
        assert checkpoint_group(
            TINY.with_(policy="SHUT")
        ) != checkpoint_group(TINY)

    def test_key_embeds_exact_horizon_bits(self):
        group = checkpoint_group(TINY)
        k1 = checkpoint_key(group, 5400.0)
        assert k1 == f"{group}-{horizon_tag(5400.0)}"
        assert checkpoint_key(group, 5400.0) == k1
        assert checkpoint_key(group, np.nextafter(5400.0, 0.0)) != k1

    def test_make_checkpoint_store_specs(self, tmp_path):
        assert isinstance(make_checkpoint_store("memory"), MemoryCheckpointStore)
        d = make_checkpoint_store(f"dir:{tmp_path}")
        assert isinstance(d, DirectoryCheckpointStore)
        # shared:PATH and a bare path build the same class as dir:PATH.
        for spec in (f"shared:{tmp_path}", str(tmp_path)):
            store = make_checkpoint_store(spec)
            assert type(store) is DirectoryCheckpointStore
            assert store.root == tmp_path
        for bad in ("dir:", "shared:", "memory:x"):
            with pytest.raises(ValueError):
                make_checkpoint_store(bad)


def _stores(tmp_path):
    return [MemoryCheckpointStore(), DirectoryCheckpointStore(tmp_path / "dir")]


class TestStorePlumbing:
    def test_roundtrip_and_best(self, tmp_path):
        group = checkpoint_group(TINY)
        for store in _stores(tmp_path):
            k1 = store.put(group, 1800.0, fake_state(1800.0, payload=1))
            k2 = store.put(group, 5400.0, fake_state(5400.0, payload=2))
            assert store.has(k1) and store.has(k2)
            assert sorted(store.keys()) == sorted([k1, k2])
            back = store.get(k2)
            assert back["meta"]["payload"] == 2
            np.testing.assert_array_equal(back["arrays"]["a"], [0, 2, 4])
            # best() serves the deepest stored horizon <= the request.
            assert store.best(group, 9000.0)["meta"]["payload"] == 2
            assert store.best(group, 5400.0)["meta"]["payload"] == 2
            assert store.best(group, 5399.0)["meta"]["payload"] == 1
            assert store.best(group, 100.0) is None
            assert store.best("0" * 16 + "-" + "1" * 8 + "-" + "2" * 8, 9e9) is None

    def test_shared_store_first_writer_wins(self, tmp_path):
        store = make_checkpoint_store(f"shared:{tmp_path}")
        group = checkpoint_group(TINY)
        key = store.put(group, 1800.0, fake_state(1800.0))
        path = store._path(key)
        stat = path.stat()
        store.put(group, 1800.0, fake_state(1800.0))
        again = path.stat()
        assert (again.st_ino, again.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)

    def test_keys_ignore_phantom_files(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        key = store.put(checkpoint_group(TINY), 1800.0, fake_state(1800.0))
        (tmp_path / "notes.json").write_text("{}", encoding="utf-8")
        (tmp_path / f"{key}x.json").write_text("{}", encoding="utf-8")
        assert store.keys() == [key]

    def test_warm_start_publish_skips_existing_key(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        warm = WarmStart(store, checkpoint_group(TINY))
        warm.publish(1800.0, fake_state(1800.0))
        warm.publish(1800.0, fake_state(1800.0))
        assert warm.counts["checkpoints.publishes"] == 1
        assert warm.load(2000.0) is not None
        assert warm.load(100.0) is None
        assert warm.counts["checkpoints.hits"] == 1
        assert warm.counts["checkpoints.misses"] == 1


def _rewrite(store, key, field, value):
    """Set the stored entry's wrapper ``schema`` or fork-state
    ``version`` to ``value``, as another build would have written it."""
    wrapper = json.loads(store._path(key).read_text(encoding="utf-8"))
    if field == "schema":
        wrapper["schema"] = value
    else:
        wrapper["meta"]["version"] = value
    store._path(key).write_text(json.dumps(wrapper), encoding="utf-8")


class TestSchemaAndCorruption:
    def _seeded(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        key = store.put(checkpoint_group(TINY), 1800.0, fake_state(1800.0))
        return store, key

    def test_wrapper_schema_mismatch_is_silent_miss(self, tmp_path):
        store, key = self._seeded(tmp_path)
        wrapper = json.loads(store._path(key).read_text(encoding="utf-8"))
        wrapper["schema"] = CHECKPOINT_SCHEMA + 1
        store._path(key).write_text(json.dumps(wrapper), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # silent: no discard warning
            assert store.get(key) is None
            assert store.best(checkpoint_group(TINY), 9000.0) is None
        # The entry is left for the build that wrote it.
        assert store._path(key).is_file()
        assert store.health.discarded == 0

    def test_fork_state_version_mismatch_is_silent_miss(self, tmp_path):
        store, key = self._seeded(tmp_path)
        wrapper = json.loads(store._path(key).read_text(encoding="utf-8"))
        wrapper["meta"]["version"] = FORK_STATE_VERSION + 1
        store._path(key).write_text(json.dumps(wrapper), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(key) is None
        assert store._path(key).is_file()

    @pytest.mark.parametrize(
        "field, older", [("schema", CHECKPOINT_SCHEMA - 1), ("version", FORK_STATE_VERSION - 1)]
    )
    def test_put_replaces_an_older_builds_entry(self, tmp_path, field, older):
        store, key = self._seeded(tmp_path)
        _rewrite(store, key, field, older)
        assert not store.has(key)
        assert store.put(checkpoint_group(TINY), 1800.0, fake_state(1800.0, 2)) == key
        assert store.has(key)
        assert store.get(key)["arrays"]["a"].tolist() == [0, 2, 4]

    @pytest.mark.parametrize(
        "field, newer", [("schema", CHECKPOINT_SCHEMA + 1), ("version", FORK_STATE_VERSION + 1)]
    )
    def test_put_leaves_a_newer_builds_entry(self, tmp_path, field, newer):
        store, key = self._seeded(tmp_path)
        _rewrite(store, key, field, newer)
        before = store._path(key).read_bytes()
        assert store.has(key)
        store.put(checkpoint_group(TINY), 1800.0, fake_state(1800.0, 2))
        assert store._path(key).read_bytes() == before

    def test_truncated_json_discards_both_files(self, tmp_path):
        store, key = self._seeded(tmp_path)
        store._path(key).write_text("{tru", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="discarding"):
            assert store.get(key) is None
        assert not store._path(key).is_file()
        assert not store._path(key, ".npz").is_file()
        assert store.health.discarded == 1

    def test_truncated_npz_discards_both_files(self, tmp_path):
        store, key = self._seeded(tmp_path)
        npz = store._path(key, ".npz")
        npz.write_bytes(npz.read_bytes()[:20])
        with pytest.warns(RuntimeWarning, match="discarding"):
            assert store.get(key) is None
        assert not store._path(key).is_file()
        assert not npz.is_file()

    def test_key_content_mismatch_discards(self, tmp_path):
        # An entry renamed to a foreign key must not serve under it.
        store, key = self._seeded(tmp_path)
        other = checkpoint_key(checkpoint_group(TINY), 9999.0)
        os.rename(store._path(key), store._path(other))
        os.rename(store._path(key, ".npz"), store._path(other, ".npz"))
        with pytest.warns(RuntimeWarning, match="discarding"):
            assert store.get(other) is None

    def test_orphan_npz_is_invisible(self, tmp_path):
        # A torn write (npz landed, json did not) never serves.
        store, key = self._seeded(tmp_path)
        store._path(key).unlink()
        assert store.get(key) is None
        assert store.best(checkpoint_group(TINY), 9000.0) is None


class TestPruning:
    def _aged(self, store, ages):
        """Three entries whose first file is ``age`` seconds old."""
        import time

        group = checkpoint_group(TINY)
        now = time.time()
        keys = []
        for i, age in enumerate(ages):
            key = store.put(group, 1000.0 * (i + 1), fake_state(1000.0 * (i + 1)))
            for path in (store._path(key), store._path(key, ".npz")):
                os.utime(path, (now - age, now - age))
            keys.append(key)
        return keys

    def test_requires_a_budget(self, tmp_path):
        for store in _stores(tmp_path):
            with pytest.raises(ValueError):
                store.prune()

    def test_memory_store_rejects_age(self):
        with pytest.raises(ValueError):
            MemoryCheckpointStore().prune(max_age=10.0)
        with pytest.raises(ValueError):
            MemoryStore().prune(max_age=10.0)
        with pytest.raises(ValueError):
            MemoryStore().prune(2, lru=True)

    def test_max_entries_evicts_oldest_first(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        keys = self._aged(store, ages=(300, 200, 100))
        assert store.prune(2) == [keys[0]]
        assert sorted(store.keys()) == sorted(keys[1:])

    def test_max_age_and_count_evict_their_union(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        keys = self._aged(store, ages=(300, 200, 100))
        # Count admits 2, age admits only the youngest: union evicts 2.
        removed = store.prune(2, max_age=150.0)
        assert sorted(removed) == sorted(keys[:2])
        assert store.keys() == [keys[2]]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{keys[2]}.json",
            f"{keys[2]}.npz",
        ]

    def test_lru_orders_by_access_and_reads_bump_atime(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        keys = self._aged(store, ages=(300, 200, 100))
        # Reading the oldest-written entry makes it most recently used.
        assert store.get(keys[0]) is not None
        assert store.prune(1, lru=True) == [keys[1], keys[2]]
        assert store.keys() == [keys[0]]
        # Without lru the same read would not have saved it.
        store2 = DirectoryCheckpointStore(tmp_path / "mt")
        keys2 = self._aged(store2, ages=(300, 200, 100))
        assert store2.get(keys2[0]) is not None
        assert store2.prune(1) == [keys2[0], keys2[1]]

    def test_result_store_age_and_lru_pruning(self, tmp_path):
        """Satellite coverage: DirectoryStore gained the same budget."""
        import time

        from repro.exp import result_key, run_scenario

        store = DirectoryStore(tmp_path)
        result = run_scenario(TINY)
        old = result_key(TINY)
        new = result_key(TINY.with_(seed=9))
        store.put(old, result)
        store.put(new, result)
        now = time.time()
        for key, age in ((old, 300), (new, 100)):
            path = store._path(key)
            os.utime(path, (now - age, now - age))
        with pytest.raises(ValueError):
            store.prune()
        # Age budget alone evicts just the stale entry.
        assert store.prune(max_age=200.0) == [old]
        assert store.keys() == [new]
        # LRU: a hit bumps the atime and saves the entry.
        store.put(old, result)
        path = store._path(old)
        os.utime(path, (now - 300, now - 300))
        assert store.get(old) is not None  # bumps atime, mtime untouched
        assert path.stat().st_mtime == pytest.approx(now - 300)
        assert store.prune(1, lru=True) == [new]
        assert store.keys() == [old]


class TestWarmStartBitIdentity:
    """The tentpole's acceptance bar: a store-restored warm start is
    byte-identical to a cold replay, whatever executed it."""

    def _baseline(self, scenarios):
        return [
            r.trace_digest
            for r in GridRunner(store=MemoryStore()).run(scenarios)
        ]

    @pytest.mark.parametrize("store_kind", ["memory", "dir"])
    def test_serial_roundtrip_matches_cold_replay(self, tmp_path, store_kind):
        scenarios = cap_sweep()
        baseline = self._baseline(scenarios)

        def ck():
            if store_kind == "memory":
                return self._memory
            return DirectoryCheckpointStore(tmp_path / "ck")

        self._memory = MemoryCheckpointStore()
        # Cold pass: the first eligible cell publishes, siblings hit.
        rep1 = GridRunner(store=MemoryStore(), checkpoints=ck()).sweep(scenarios)
        assert [r.trace_digest for r in rep1.results] == baseline
        assert rep1.checkpoints == {"hits": 2, "misses": 1, "publishes": 1}
        # Warm pass: a fresh run restores every prefix from the store.
        rep2 = GridRunner(store=MemoryStore(), checkpoints=ck()).sweep(scenarios)
        assert [r.trace_digest for r in rep2.results] == baseline
        assert rep2.checkpoints == {"hits": 3, "misses": 0, "publishes": 0}
        assert "warm starts: 3 hit(s)" in rep2.summary()

    def test_batch_backend_probes_store_including_singletons(self, tmp_path):
        scenarios = cap_sweep()
        baseline = self._baseline(scenarios)
        ck = DirectoryCheckpointStore(tmp_path / "ck")
        # Seed the store through the serial path.
        GridRunner(store=MemoryStore(), checkpoints=ck).sweep(scenarios)
        # A multi-cell lockstep group warm-starts from the store...
        rep = GridRunner(
            backend=make_backend("batch"),
            store=MemoryStore(),
            checkpoints=DirectoryCheckpointStore(tmp_path / "ck"),
        ).sweep(scenarios)
        assert [r.trace_digest for r in rep.results] == baseline
        assert rep.checkpoints["hits"] == 1 and rep.checkpoints["misses"] == 0
        # ...and so does a singleton group (no lockstep siblings).
        rep1 = GridRunner(
            backend=make_backend("batch"),
            store=MemoryStore(),
            checkpoints=DirectoryCheckpointStore(tmp_path / "ck"),
        ).sweep(scenarios[:1])
        assert rep1.results[0].trace_digest == baseline[0]
        assert rep1.checkpoints == {"hits": 1, "misses": 0, "publishes": 0}

    def test_pool_backend_elects_one_publisher_per_group(self, tmp_path):
        scenarios = cap_sweep()
        baseline = self._baseline(scenarios)
        with GridRunner(
            backend=make_backend("batch-pool", workers=2),
            store=MemoryStore(),
            checkpoints=DirectoryCheckpointStore(tmp_path / "ck"),
        ) as runner:
            rep = runner.sweep(scenarios)
        assert [r.trace_digest for r in rep.results] == baseline
        # The group's worker is its one publisher: a single probe miss
        # and a single publish, shared by every cell of the group.
        assert rep.checkpoints == {"hits": 0, "misses": 1, "publishes": 1}

    def test_memory_checkpoints_stay_out_of_pool_workers(self, tmp_path):
        # A non-shareable store would be probed as a pickled empty
        # copy in each worker: the runner must not ship it.
        scenarios = cap_sweep()
        ck = MemoryCheckpointStore()
        with GridRunner(workers=2, store=MemoryStore(), checkpoints=ck) as runner:
            rep = runner.sweep(scenarios)
        assert rep.checkpoints == {}
        assert ck.keys() == []

    def test_corrupt_checkpoint_heals_and_run_stays_identical(self, tmp_path):
        scenarios = cap_sweep()
        baseline = self._baseline(scenarios)
        ck = DirectoryCheckpointStore(tmp_path / "ck")
        GridRunner(store=MemoryStore(), checkpoints=ck).sweep(scenarios)
        [key] = ck.keys()
        npz = ck._path(key, ".npz")
        npz.write_bytes(npz.read_bytes()[:40])
        store2 = DirectoryCheckpointStore(tmp_path / "ck")
        with pytest.warns(RuntimeWarning, match="discarding"):
            rep = GridRunner(store=MemoryStore(), checkpoints=store2).sweep(
                scenarios
            )
        # The corrupt entry was discarded, the sweep cold-started and
        # re-published an identical artifact, results unharmed.
        assert [r.trace_digest for r in rep.results] == baseline
        assert rep.checkpoints["publishes"] == 1
        assert store2.health.discarded == 1
        assert DirectoryCheckpointStore(tmp_path / "ck").keys() == [key]

    @pytest.mark.parametrize(
        "field, older", [("schema", CHECKPOINT_SCHEMA - 1), ("version", FORK_STATE_VERSION - 1)]
    )
    def test_an_older_builds_checkpoint_is_replaced(self, tmp_path, field, older):
        """An entry an older build wrote misses once: that run publishes
        over it, and the next run restores the prefix."""
        scenarios = cap_sweep()
        baseline = self._baseline(scenarios)

        def sweep():
            FORK_STATE_CACHE.clear()  # as in a fresh process
            return GridRunner(
                backend=make_backend("batch"),
                store=MemoryStore(),
                checkpoints=DirectoryCheckpointStore(tmp_path / "ck"),
            ).sweep(scenarios)

        cold = sweep()
        assert cold.checkpoints == {"hits": 0, "misses": 1, "publishes": 1}
        ck = DirectoryCheckpointStore(tmp_path / "ck")
        [key] = ck.keys()
        _rewrite(ck, key, field, older)
        replaced, warm = sweep(), sweep()
        assert replaced.checkpoints == {"hits": 0, "misses": 1, "publishes": 1}
        assert warm.checkpoints == {"hits": 1, "misses": 0, "publishes": 0}
        wrapper = json.loads(ck._path(key).read_text(encoding="utf-8"))
        assert wrapper["schema"] == CHECKPOINT_SCHEMA
        assert wrapper["meta"]["version"] == FORK_STATE_VERSION
        for rep in (cold, replaced, warm):
            assert [r.trace_digest for r in rep.results] == baseline

    def test_stale_schema_checkpoint_forces_cold_run(self, tmp_path):
        scenarios = cap_sweep()
        baseline = self._baseline(scenarios)
        ck = DirectoryCheckpointStore(tmp_path / "ck")
        GridRunner(store=MemoryStore(), checkpoints=ck).sweep(scenarios)
        [key] = ck.keys()
        wrapper = json.loads(ck._path(key).read_text(encoding="utf-8"))
        wrapper["schema"] = CHECKPOINT_SCHEMA + 1
        ck._path(key).write_text(json.dumps(wrapper), encoding="utf-8")
        rep = GridRunner(
            store=MemoryStore(),
            checkpoints=DirectoryCheckpointStore(tmp_path / "ck"),
        ).sweep(scenarios)
        # Silent miss: the run is cold but correct, and the foreign
        # entry is neither served nor clobbered (its key still exists).
        assert [r.trace_digest for r in rep.results] == baseline
        assert rep.checkpoints["hits"] == 0
        assert ck._path(key).is_file()


@pytest.mark.slow
class TestCrossBackendWarmStartEquivalence:
    """All 16 pinned golden digests, restored from one shared
    checkpoint store, on every backend."""

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

    def test_all_backends_restore_the_pinned_digests(self, tmp_path):
        scenarios = self._library()
        pinned = self._pinned()
        assert len(scenarios) == len(pinned) == 16
        ck_root = tmp_path / "ckpts"
        # Publish pass: one cold serial sweep seeds the shared store.
        seed = GridRunner(
            store=MemoryStore(), checkpoints=DirectoryCheckpointStore(ck_root)
        ).sweep(scenarios)
        assert {
            r.scenario.name: r.trace_digest for r in seed.results
        } == pinned
        published = seed.checkpoints.get("publishes", 0)
        assert published >= 1
        assert len(DirectoryCheckpointStore(ck_root).keys()) == published
        # Warm passes: fresh result stores, every backend restores.
        backends = {
            "serial": make_backend("serial"),
            "pool": make_backend("pool", workers=2),
            "batch": make_backend("batch"),
        }
        for label, backend in backends.items():
            with GridRunner(
                backend=backend,
                store=MemoryStore(),
                checkpoints=DirectoryCheckpointStore(ck_root),
            ) as runner:
                rep = runner.sweep(scenarios)
            assert {
                r.scenario.name: r.trace_digest for r in rep.results
            } == pinned, label
            assert rep.checkpoints.get("hits", 0) >= 1, label
            assert rep.checkpoints.get("misses", 1) == 0, label
