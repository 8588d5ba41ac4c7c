"""Result stores: content addressing, atomicity, corruption healing."""

import gc
import json
import warnings

import numpy as np
import pytest

from repro.exp import (
    DirectoryCheckpointStore,
    DirectoryStore,
    GridRunner,
    MemoryCheckpointStore,
    MemoryStore,
    Scenario,
    checkpoint_group,
    checkpoint_key,
    make_store,
    merge_results,
    result_key,
    run_scenario,
)
from repro.exp.store import DEFAULT_SERIES_DT
from repro.sim.batch import FORK_STATE_VERSION

HOUR = 3600.0

TINY = Scenario(
    name="tiny-store",
    interval="medianjob",
    policy="NONE",
    scale=1 / 56,
    duration=HOUR,
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_scenario(TINY)


class TestResultKey:
    def test_covers_scenario_platform_and_policy_content(self):
        key = result_key(TINY)
        shash, phash, pohash = key.split("-")
        assert shash == TINY.scenario_hash()
        assert len(phash) == 8
        assert pohash == TINY.policy_spec.content_hash()[:8]
        # A renamed scenario keys identically; changed content differs.
        assert result_key(TINY.with_(name="other")) == key
        assert result_key(TINY.with_(seed=9)) != key

    def test_policy_edits_miss_and_renames_hit(self):
        from repro.policy import (
            PolicySpec,
            get_policy,
            register_policy,
            unregister_policy,
        )

        key = result_key(TINY)
        none = get_policy("NONE")
        try:
            # Renamed-but-identical policy: same scenario identity,
            # same store key (the name is a label, not content).
            clone = PolicySpec.from_dict({**none.to_dict(), "name": "NOOP"})
            register_policy(clone)
            renamed = TINY.with_(policy="NOOP")
            assert renamed.scenario_hash() == TINY.scenario_hash()
            assert result_key(renamed) == key
            # Edited registration under the same name: both the
            # scenario hash and the key change, so stale entries miss.
            edited = PolicySpec.from_dict(
                {**none.to_dict(), "name": "NOOP", "enforces_caps": True}
            )
            register_policy(edited, replace=True)
            assert renamed.scenario_hash() != TINY.scenario_hash()
            assert result_key(renamed) != key
        finally:
            unregister_policy("NOOP")


class TestMemoryStore:
    def test_roundtrip_and_no_series(self, tiny_result):
        store = MemoryStore()
        key = result_key(TINY)
        assert store.get(key) is None
        store.put(key, tiny_result)
        assert store.get(key) is tiny_result
        assert store.keys() == [key]
        assert not store.stores_series
        assert store.get_series(key) is None
        with pytest.raises(NotImplementedError):
            store.put_series(key, {})

    def test_runner_memoises_within_instance(self):
        runner = GridRunner()
        assert isinstance(runner.store, MemoryStore)
        first = runner.run([TINY])[0]
        assert not first.cached
        second = runner.run([TINY])[0]
        assert second.cached and second.same_outcome(first)
        # A fresh runner starts cold.
        assert not GridRunner().run([TINY])[0].cached

    def test_meta_does_not_alias_caller_dicts(self):
        """Regression: get_meta/put_meta must deep-copy, so a caller
        mutating its payload (or the returned dict — the cost model
        does exactly that with its observation groups) cannot corrupt
        the stored observations."""
        store = MemoryStore()
        payload = {"schema": 1, "groups": {"g": {"mean": 1.0, "n": 1}}}
        store.put_meta("m", payload)
        payload["groups"]["g"]["mean"] = 99.0
        assert store.get_meta("m")["groups"]["g"]["mean"] == 1.0
        returned = store.get_meta("m")
        returned["groups"]["g"]["n"] = 42
        returned["groups"].clear()
        assert store.get_meta("m")["groups"]["g"] == {"mean": 1.0, "n": 1}


    @pytest.mark.parametrize(
        "make", [MemoryStore, MemoryCheckpointStore], ids=["results", "checkpoints"]
    )
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({}, "needs max_entries"),
            ({"max_entries": -1}, "max_entries must be >= 0"),
            ({"max_entries": 1, "lru": True}, "keep no timestamps"),
            ({"max_age": 10.0}, "keep no timestamps"),
        ],
        ids=["no-budget", "negative", "lru", "age"],
    )
    def test_prune_argument_check(self, make, kwargs, message):
        """Both memory stores reject one set of prune arguments with
        one set of messages: no budget, a negative count, and the
        age/LRU budgets they keep no timestamps for."""
        with pytest.raises(ValueError, match=message):
            make().prune(**kwargs)


class TestDirectoryStore:
    def test_corrupt_json_warns_names_path_and_heals(self, tmp_path, tiny_result):
        store = DirectoryStore(tmp_path)
        key = result_key(TINY)
        store.put(key, tiny_result)
        path = tmp_path / f"{key}.json"
        path.write_text("{truncated", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match=str(path)):
            assert store.get(key) is None
        assert not path.exists()  # discarded, ready to recompute

    def test_stale_schema_is_a_silent_miss(self, tmp_path, tiny_result):
        store = DirectoryStore(tmp_path)
        key = result_key(TINY)
        data = tiny_result.to_dict()
        data["schema"] = 999
        (tmp_path / f"{key}.json").write_text(json.dumps(data), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(key) is None

    def test_entry_under_wrong_key_is_discarded(self, tmp_path, tiny_result):
        store = DirectoryStore(tmp_path)
        bad_key = "0" * 16 + "-deadbeef"
        store.put(bad_key, tiny_result)
        with pytest.warns(RuntimeWarning, match="does not match key"):
            assert store.get(bad_key) is None

    def test_corrupt_series_warns_and_heals(self, tmp_path):
        store = DirectoryStore(tmp_path)
        key = result_key(TINY)
        path = tmp_path / f"{key}.npz"
        path.write_bytes(b"not a zip")
        with pytest.warns(RuntimeWarning, match=str(path)):
            assert store.get_series(key) is None
        assert not path.exists()

    def test_series_dt_mismatch_is_a_silent_miss(self, tmp_path):
        store = DirectoryStore(tmp_path, series_dt=300.0)
        key = result_key(TINY)
        store.put_series(key, {"time": np.arange(3.0)})
        other = DirectoryStore(tmp_path, series_dt=60.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert other.get_series(key) is None
            assert not other.has_series(key)
        assert store.has_series(key)
        assert np.array_equal(store.get_series(key)["time"], np.arange(3.0))

    def test_rejects_bad_series_dt(self, tmp_path):
        with pytest.raises(ValueError):
            DirectoryStore(tmp_path, series_dt=0.0)

    def test_legacy_series_without_dt_is_a_miss_but_not_deleted(self, tmp_path):
        # An externally-written payload has no recorded grid step: the
        # hit test cannot verify it (miss), but it must survive on
        # disk and stay loadable via get_series.
        store = DirectoryStore(tmp_path)
        key = result_key(TINY)
        path = tmp_path / f"{key}.npz"
        np.savez_compressed(path, time=np.arange(4.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not store.has_series(key)
        assert path.exists()
        assert np.array_equal(store.get_series(key)["time"], np.arange(4.0))

    def test_keys_ignore_temp_litter(self, tmp_path, tiny_result):
        store = DirectoryStore(tmp_path)
        key = result_key(TINY)
        store.put(key, tiny_result)
        # A writer killed between write and rename leaves this behind.
        (tmp_path / f"{key}.tmp.12345.json").write_text("{", encoding="utf-8")
        assert store.keys() == [key]

    def test_no_tmp_litter(self, tmp_path, tiny_result):
        store = DirectoryStore(tmp_path)
        key = result_key(TINY)
        store.put(key, tiny_result)
        store.put_series(key, {"time": np.arange(2.0)})
        assert not [p for p in tmp_path.rglob("*") if ".tmp." in p.name]

    def test_keys_ignore_stray_json(self, tmp_path, tiny_result):
        """Only well-formed ``<scenario16>-<plat8>-<pol8>`` stems are
        keys: notes, configs or truncated names dropped into the store
        tree must not surface as phantom entries."""
        store = DirectoryStore(tmp_path)
        key = result_key(TINY)
        store.put(key, tiny_result)
        (tmp_path / "notes.json").write_text("{}", encoding="utf-8")
        (tmp_path / "deadbeef.json").write_text("{}", encoding="utf-8")
        (tmp_path / f"{key}x.json").write_text("{}", encoding="utf-8")
        (tmp_path / key[:20]).with_suffix(".json").write_text(
            "{}", encoding="utf-8"
        )
        assert store.keys() == [key]
        # Phantoms are invisible to prune too: it keeps the real entry.
        assert store.prune(max_entries=1) == []
        assert store.get(key) is not None


def _truncated_series_store(tmp_path):
    store = DirectoryStore(tmp_path)
    key = result_key(TINY)
    store.put_series(key, {"time": np.arange(64.0)})
    return store, key, tmp_path / f"{key}.npz"


def _truncated_checkpoint_store(tmp_path):
    store = DirectoryCheckpointStore(tmp_path)
    state = {
        "meta": {"version": FORK_STATE_VERSION, "horizon": (1800.0).hex()},
        "arrays": {"a": np.arange(64, dtype=np.int64)},
    }
    key = store.put(checkpoint_group(TINY), 1800.0, state)
    return store, key, store._path(key, ".npz")


#: the three readers that open a stored .npz, each with a store holding
#: one entry and the path of that entry's .npz
NPZ_READERS = {
    "get_series": (_truncated_series_store, lambda store, key: store.get_series(key)),
    "has_series": (_truncated_series_store, lambda store, key: store.has_series(key)),
    "checkpoint_get": (_truncated_checkpoint_store, lambda store, key: store.get(key)),
}


@pytest.mark.parametrize("reader", sorted(NPZ_READERS))
def test_truncated_npz_is_discarded_without_leaking_the_file(tmp_path, reader):
    """A truncated .npz keeps its zip magic, so ``np.load`` hands the
    open file to the zip reader, which then fails on the missing
    directory: the reader must still close the file (no
    ``ResourceWarning``) and discard the entry with a warning."""
    build, read = NPZ_READERS[reader]
    store, key, npz = build(tmp_path)
    npz.write_bytes(npz.read_bytes()[:20])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert not read(store, key)
        gc.collect()
    categories = [w.category for w in caught]
    assert ResourceWarning not in categories
    assert RuntimeWarning in categories  # the discard warning stays
    assert not npz.exists()


class TestSharedDirectoryStore:
    """One :class:`DirectoryStore` shared by concurrent writers: the
    ``shared:PATH`` spec builds the same class as ``dir:PATH``."""

    def test_first_writer_wins(self, tmp_path, tiny_result):
        store = make_store(f"shared:{tmp_path}")
        key = result_key(TINY)
        store.put(key, tiny_result)
        path = tmp_path / f"{key}.json"
        stat = path.stat()
        store.put(key, tiny_result)  # the entry already serves a hit: skipped
        again = path.stat()
        assert (again.st_ino, again.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)

    def test_flat_directory_store_reads_are_compatible(self, tmp_path, tiny_result):
        # ``dir:`` and ``shared:`` over one directory see one entry.
        key = result_key(TINY)
        make_store(f"dir:{tmp_path}").put(key, tiny_result)
        shared = make_store(f"shared:{tmp_path}")
        assert type(shared) is DirectoryStore and shared.keys() == [key]
        merged = merge_results(
            [[shared.get(key)], [DirectoryStore(tmp_path).get(key)]]
        )
        assert len(merged) == 1 and merged[0].same_outcome(tiny_result)

    def test_prune_tolerates_racing_pruner(self, tmp_path, tiny_result):
        """A concurrent pruner may delete an entry's files between our
        listing and our unlink — prune must shrug, not raise."""
        store = DirectoryStore(tmp_path)
        key = result_key(TINY)
        store.put(key, tiny_result)
        listed = store.keys()
        # The other pruner removes the whole entry after our listing...
        store._path(key).unlink()
        store.keys = lambda: listed
        assert store.prune(max_entries=0) == []
        # ...or only some of its files (here: the series, never written).
        store.put(key, tiny_result)
        assert store.prune(max_entries=0) == [key]
        assert not list(tmp_path.iterdir())

    def test_concurrent_runners_share_one_store(self, tmp_path):
        """Two GridRunner instances, one shared store, overlapping
        scenario lists, racing threads: both finish with bit-identical
        results, the store holds each scenario exactly once, and no
        temp files are left behind."""
        import threading

        scenarios = [TINY.with_(name=f"c{i}", seed=i) for i in range(4)]
        outcomes: dict[str, list] = {}
        errors: list[BaseException] = []

        def sweep(label: str, order: list) -> None:
            try:
                with GridRunner(store=make_store(f"shared:{tmp_path}")) as runner:
                    outcomes[label] = runner.run(order)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=sweep, args=("fwd", scenarios)),
            threading.Thread(target=sweep, args=("rev", scenarios[::-1])),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        fwd = {r.scenario.name: r.trace_digest for r in outcomes["fwd"]}
        rev = {r.scenario.name: r.trace_digest for r in outcomes["rev"]}
        assert fwd == rev and len(fwd) == 4
        store = DirectoryStore(tmp_path)
        assert len(store.keys()) == 4
        for key in store.keys():
            assert store.get(key) is not None
        assert not [p for p in tmp_path.rglob("*") if ".tmp." in p.name]

    def test_concurrent_put_meta_last_writer_wins(self, tmp_path):
        """Two runners flushing cost-model observations into one
        shared store: every racing write commits atomically, the
        survivor is one of the written payloads intact (last writer
        wins, no torn JSON), and corrupt meta heals to missing."""
        import threading

        store = DirectoryStore(tmp_path)
        payloads = [
            {"schema": 1, "groups": {f"g{w}": {"mean": float(w), "n": w + 1}}}
            for w in range(2)
        ]
        errors: list[BaseException] = []
        gate = threading.Barrier(2)

        def flush(writer: int) -> None:
            try:
                gate.wait()
                for _ in range(25):
                    DirectoryStore(tmp_path).put_meta(
                        "cost-model", payloads[writer]
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=flush, args=(w,)) for w in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        survivor = store.get_meta("cost-model")
        assert survivor in payloads  # intact, not interleaved
        assert not [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
        # Corruption heals to a silent miss, not an exception.
        meta_path = next((tmp_path / "meta").glob("cost-model.json"))
        meta_path.write_text("{torn")
        assert DirectoryStore(tmp_path).get_meta("cost-model") is None

    def test_stale_entries_are_replaced(self, tmp_path):
        """Regression: a write replaces an entry that no longer serves
        a hit.  A sweep at a new ``series_dt`` rewrites the stale
        ``.npz`` (so the next sweep at that step hits instead of
        re-executing every cell forever), and a put replaces a result
        JSON of a stale schema."""
        hits = []
        for series_dt in (300.0, 60.0, 60.0):
            store = make_store(f"shared:{tmp_path}", series_dt=series_dt)
            report = GridRunner(store=store, series=True).sweep([TINY])
            hits.append(report.n_hits)
        assert hits == [0, 0, 1]
        key, result = result_key(TINY), report.results[0]
        [path] = tmp_path.rglob(f"{key}.json")
        data = json.loads(path.read_text(encoding="utf-8"))
        data["schema"] = 999
        path.write_text(json.dumps(data), encoding="utf-8")
        assert store.get(key) is None
        store.put(key, result)
        assert store.get(key).same_outcome(result)

    def test_concurrent_same_key_writes(self, tmp_path, tiny_result):
        """Regression: threads of one process writing one key must not
        share a temp file — every write lands or is skipped, no
        exception, a readable entry, no temp litter."""
        import sys
        import threading

        results = DirectoryStore(tmp_path / "results")
        ckpts = DirectoryCheckpointStore(tmp_path / "ckpts")
        key, group = result_key(TINY), checkpoint_group(TINY)
        state = {
            "meta": {"version": FORK_STATE_VERSION, "horizon": (60.0).hex()},
            "arrays": {"a": np.arange(100_000.0)},
        }
        writes = {
            "put": lambda: results.put(key, tiny_result),
            "put_series": lambda: results.put_series(
                key, {"time": np.arange(100_000.0)}
            ),
            "checkpoint": lambda: ckpts.put(group, 60.0, state),
        }
        n_threads, rounds = 4, 5
        gate = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def hammer(write) -> None:
            try:
                for _ in range(rounds):
                    gate.wait(timeout=30)
                    write()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
                gate.abort()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for name, write in writes.items():
                threads = [
                    threading.Thread(target=hammer, args=(write,))
                    for _ in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads), name
                assert not errors, (name, errors)
        finally:
            sys.setswitchinterval(switch)
        assert results.get(key).same_outcome(tiny_result)
        assert results.get_series(key)["time"].size == 100_000
        assert ckpts.get(checkpoint_key(group, 60.0))["arrays"]["a"].size == 100_000
        assert not [p for p in tmp_path.rglob("*") if ".tmp." in p.name]


class TestMakeStore:
    def test_specs(self, tmp_path):
        assert isinstance(make_store("memory"), MemoryStore)
        # dir:PATH, shared:PATH and a bare path build one class.
        for spec in (f"dir:{tmp_path}", f"shared:{tmp_path}", str(tmp_path)):
            store = make_store(spec)
            assert type(store) is DirectoryStore and store.root == tmp_path
            assert store.series_dt == DEFAULT_SERIES_DT

    @pytest.mark.parametrize(
        # "shared"/"dir" without :PATH must error, not silently become
        # a local directory literally named "shared".
        "spec",
        ["memory:x", "dir:", "shared:", "s3:bucket", "dir", "shared"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            make_store(spec)

    def test_runner_rejects_store_plus_cache_dir(self, tmp_path):
        with pytest.raises(ValueError):
            GridRunner(store=MemoryStore(), cache_dir=tmp_path)
