"""Zero-copy data plane: shm transport, group envelopes, leak hygiene.

Every test in this module runs under the leak-check fixture: the set
of live ``/dev/shm`` segments (``rs*`` — this suite's namespace) must
be identical before and after each test, so any code path that places
a segment without an adopting ``close()``/reaper fails here, in the
quick gate, not in production.
"""

import os

import numpy as np
import pytest

from repro.exp import CapWindow, GridRunner, Scenario, make_backend
from repro.exp import shm
from repro.exp.checkpoints import LRUCache
from repro.exp.shm import (
    GroupEnvelope,
    SharedArena,
    ShmAdoptError,
    ShmPayload,
    arena,
)

HOUR = 3600.0

TINY = Scenario(
    name="tiny-shm",
    interval="medianjob",
    policy="NONE",
    scale=1 / 56,
    duration=HOUR,
)

needs_shm = pytest.mark.skipif(
    not shm.shm_available(), reason="shared_memory unavailable"
)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """The module-wide leak check: /dev/shm must end as it began."""
    before = shm.live_segments()
    yield
    shm.set_shm_enabled(None)  # never let an override escape a test
    after = shm.live_segments()
    leaked = after - before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"


def _payload(seed: int = 0, scale: int = 1) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "power": rng.random(9000 * scale),
        "util": rng.random((3, 3000 * scale)).astype(np.float32),
        "count": rng.integers(0, 50, 4000 * scale),
        "flags": rng.integers(0, 2, 777).astype(bool),
        "empty": np.empty(0, dtype=np.float64),
    }


@needs_shm
class TestSharedArena:
    def test_place_adopt_roundtrip_is_bit_identical(self):
        arrays = _payload()
        payload = arena.place(arrays, prefix=shm.new_prefix())
        assert isinstance(payload, ShmPayload)
        assert payload.nbytes >= sum(a.nbytes for a in arrays.values())
        with arena.adopt(payload) as view:
            assert set(view.arrays) == set(arrays)
            # No view outlives the ``with``: a retained array would
            # pin the mapping and turn close() into a warned leak.
            for key, a in arrays.items():
                assert view.arrays[key].dtype == a.dtype
                assert view.arrays[key].shape == a.shape
                assert np.array_equal(view.arrays[key], a)
                assert not view.arrays[key].flags.writeable
        assert payload.segment not in shm.live_segments()

    def test_blocks_are_cache_line_aligned(self):
        payload = arena.place(_payload(), prefix=shm.new_prefix())
        try:
            assert all(b.offset % 64 == 0 for b in payload.blocks)
        finally:
            arena.adopt(payload).close()

    def test_size_guard_falls_back_to_pickle(self):
        small = {"a": np.arange(8, dtype=np.float64)}
        assert arena.place(small) is None  # under MIN_SHM_BYTES
        forced = arena.place(small, min_bytes=0)
        assert forced is not None
        arena.adopt(forced).close()

    def test_disabled_means_none(self):
        shm.set_shm_enabled(False)
        assert not shm.shm_available()
        assert arena.place(_payload()) is None
        shm.set_shm_enabled(None)

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        assert not shm.shm_available()
        monkeypatch.setenv("REPRO_SHM", "1")
        assert shm.shm_available()

    def test_adopt_missing_segment_raises_adopt_error(self):
        payload = arena.place(_payload(), prefix=shm.new_prefix())
        # Simulate the worker-died-and-was-reaped race: the segment
        # vanishes before the driver adopts the descriptor.
        os.unlink(os.path.join("/dev/shm", payload.segment))
        with pytest.raises(ShmAdoptError):
            arena.adopt(payload)

    def test_close_is_idempotent_and_reaper_sweeps(self):
        payload = arena.place(_payload(), prefix=shm.new_prefix())
        view = arena.adopt(payload)
        assert payload.segment in arena.live_segments
        view.close()
        view.close()  # second close is a no-op
        assert payload.segment not in arena.live_segments
        # The atexit reaper path: adopt again without closing.
        p2 = arena.place(_payload(1), prefix=shm.new_prefix())
        arena.adopt(p2)
        assert arena.reap() == 1
        assert p2.segment not in shm.live_segments()

    def test_reap_prefix_reclaims_orphans_only(self):
        prefix = shm.new_prefix()
        orphan = arena.place(_payload(2), prefix=prefix)
        adopted = arena.place(_payload(3), prefix=prefix)
        view = arena.adopt(adopted)  # driver holds this one
        try:
            # Only the orphan (placed, never adopted) is reclaimed.
            assert shm.reap_prefix(prefix) == 1
            assert orphan.segment not in shm.live_segments()
            assert adopted.segment in shm.live_segments()
        finally:
            view.close()
        assert shm.reap_prefix("") == 0  # empty prefix never sweeps


class TestSpecCache:
    def test_lru_eviction_and_stats(self):
        # The fork-state cache's LRU (checkpoint restores).
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b, the least recent
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.hits == 3 and cache.misses == 1
        cache.clear()
        assert len(cache) == 0 and cache.hits == cache.misses == 0


class TestGroupEnvelope:
    def _cells(self):
        base = TINY.with_(policy="MIX", duration=2 * HOUR)
        return tuple(
            base.with_(
                name=f"c{f}", caps=(CapWindow(1800.0, 5400.0, f),)
            )
            for f in (0.4, 0.5, 0.6)
        )

    def test_resolve_reconstructs_cells_exactly(self):
        cells = self._cells()
        env = GroupEnvelope.pack(cells)
        assert env.base == cells[0].with_(caps=())
        assert env.resolve() == cells

    def test_integrity_failure_is_loud(self):
        env = GroupEnvelope.pack(self._cells())
        tampered = GroupEnvelope(
            env.base, env.cells, ("0" * 16,) + env.hashes[1:]
        )
        with pytest.raises(ValueError, match="integrity"):
            tampered.resolve()

    def test_envelope_is_smaller_than_full_cells(self):
        # A paper-sized 12-cell cap sweep group: the base once plus
        # per-cell deltas must beat the full scenario tuple.
        import pickle

        base = TINY.with_(policy="MIX", duration=2 * HOUR)
        cells = tuple(
            base.with_(
                name=f"c{i}",
                caps=(CapWindow(1800.0, 5400.0, 0.30 + i / 100),),
            )
            for i in range(12)
        )
        env = GroupEnvelope.pack(cells)
        assert len(pickle.dumps(env)) < len(pickle.dumps(cells))


class TestTransferTally:
    """Rendering of the ``SweepReport.transfer`` counts."""

    def test_format_bytes(self):
        assert shm.format_bytes(512) == "512 B"
        assert shm.format_bytes(2_400_000) == "2.4 MB"
        assert shm.format_bytes(1_500) == "1.5 KB"

    def test_transfer_summary_mentions_each_active_part(self):
        text = shm.transfer_summary(
            {
                "bytes_shipped": 1000,
                "bytes_shared": 5_000_000,
                "segments": 3,
                "fallbacks": 2,
            }
        )
        assert "1.0 KB shipped" in text
        assert "5.0 MB shm (3 seg)" in text
        assert "2 pickle fallback(s)" in text


class TestEnvelopeReport:
    def test_plan_lines(self):
        line = shm.status_line()
        assert line.startswith("data plane: shm array transport ")
        shm.set_shm_enabled(False)
        assert "off (pickle fallback)" in shm.status_line()


@needs_shm
class TestDataPlaneEndToEnd:
    """A real (tiny) pool sweep through the full data plane, on and
    off, must agree bit-for-bit and leave /dev/shm clean."""

    def _cells(self):
        base = TINY.with_(policy="MIX", duration=HOUR)
        return [
            base.with_(
                name=f"cap{f}", caps=(CapWindow(900.0, 1800.0, f),)
            )
            for f in (0.4, 0.6)
        ]

    def test_series_identical_shm_on_and_off(self, tmp_path):
        from repro.exp import DirectoryStore, result_key

        cells = self._cells()
        stores = {}
        for label, flag in (("on", None), ("off", False)):
            shm.set_shm_enabled(flag)
            try:
                store = DirectoryStore(tmp_path / label, series_dt=2.0)
                with GridRunner(
                    backend=make_backend("batch-pool", workers=2),
                    store=store,
                    series=True,
                ) as runner:
                    report = runner.sweep(cells)
            finally:
                shm.set_shm_enabled(None)
            assert not report.failures
            assert report.transfer, label
            if label == "on":
                assert report.transfer["bytes_shared"] > 0
                assert report.transfer["segments"] == len(cells)
                assert "shm" in report.summary()
            else:
                assert report.transfer["bytes_shared"] == 0
                assert report.transfer["fallbacks"] == len(cells)
            stores[label] = store
        for sc in cells:
            key = result_key(sc)
            on = stores["on"].get_series(key)
            off = stores["off"].get_series(key)
            assert on is not None and off is not None
            assert set(on) == set(off)
            for name in on:
                assert np.array_equal(on[name], off[name]), name
            assert (
                stores["on"].get(key).trace_digest
                == stores["off"].get(key).trace_digest
            )


@needs_shm
class TestCrashCleanup:
    def test_shutdown_reaps_backend_prefix(self):
        """A segment placed under a pool's prefix with no adopted view
        (the worker died before its descriptor reached the driver) is
        reclaimed by backend shutdown."""
        backend = make_backend("batch-pool", workers=2)
        prefix = backend._shm_prefix
        orphan = arena.place(_payload(5), prefix=prefix)
        assert orphan.segment in shm.live_segments()
        backend._get_pool(1)
        backend.close()
        assert orphan.segment not in shm.live_segments()

    def test_respawn_reaps_before_refork(self):
        backend = make_backend("batch-pool", workers=2)
        orphan = arena.place(_payload(6), prefix=backend._shm_prefix)
        try:
            backend._respawn(1)
            assert orphan.segment not in shm.live_segments()
        finally:
            backend.close()

    def test_timeout_kill_leaves_no_segments(self):
        """The PR 7 timeout path end-to-end: a hung worker is killed
        mid-group; whatever it placed must not outlive the respawn."""
        from repro.exp import (
            FaultPlan,
            FaultSpec,
            MemoryStore,
            RetryPolicy,
            injected,
        )

        base = TINY.with_(policy="MIX", duration=HOUR)
        cells = [
            base.with_(
                name=f"cap{f}", caps=(CapWindow(900.0, 1800.0, f),)
            )
            for f in (0.4, 0.6)
        ]
        plan = FaultPlan(
            specs=(FaultSpec(cells[0].scenario_hash(), "hang"),),
            hang_seconds=60.0,
        )
        backend = make_backend("batch-pool", workers=2)
        with injected(plan):
            with GridRunner(
                backend=backend,
                store=MemoryStore(),
                retry=RetryPolicy(max_attempts=1),
                timeout=2.0,
                on_error="quarantine",
            ) as runner:
                report = runner.sweep(cells)
        assert backend.n_respawns >= 1
        assert len(report.results) == 1 and len(report.failures) == 1
        assert not shm.live_segments(backend._shm_prefix)
