"""Batched replays: bit-identity against solo replays.

The batch engine promises *equivalence, not approximation*: replaying N
cap schedules of one workload in one batch — forked from one donor's
shared prefix, or each cell from t=0 — must reproduce each solo
replay's trace digest byte for byte.  These tests pin that contract on
both paths (fork and fallback) and on the golden scenario.
"""

import json
import warnings

import numpy as np
import pytest

from repro.exp import (
    CapWindow,
    DirectoryCheckpointStore,
    Scenario,
    WarmStart,
    checkpoint_group,
    checkpoint_key,
    trace_digest,
)
from repro.exp.checkpoints import CHECKPOINT_SCHEMA, FORK_STATE_CACHE
from repro.platform import get_platform
from repro.sim import batch as batch_mod
from repro.sim.batch import FORK_STATE_VERSION, run_replay_batch
from repro.sim.replay import run_replay

HOUR = 3600.0

BASE = Scenario(
    name="batch-base",
    interval="medianjob",
    policy="MIX",
    scale=1 / 56,
    duration=2 * HOUR,
)

#: the same pin as tests/exp/test_determinism.py — the golden scenario
#: (medianjob / MIX / CapWindow(1800, 5400, 0.5)) replayed *in a batch*
#: must still produce the seed implementation's digest.
GOLDEN_SEED_DIGEST = (
    "b5209bf308602357c99afa59ae85ed9e957ca591c24c204861c28f36ef707880"
)


def _run_batch(policy, fracs, *, window=(1800.0, 5400.0), warm_start=None):
    base = BASE.with_(policy=policy)
    cells = [
        base.with_(caps=(CapWindow(window[0], window[1], f),)) for f in fracs
    ]
    machine = base.build_machine()
    jobs = base.build_jobs(machine)
    return cells, run_replay_batch(
        machine,
        jobs,
        base.build_policy(machine),
        duration=base.effective_duration,
        caps_per_cell=[sc.build_caps(machine) for sc in cells],
        config=base.build_config(),
        platform=get_platform(base.platform),
        warm_start=warm_start,
    )


def _run_solo(sc):
    machine = sc.build_machine()
    return run_replay(
        machine,
        sc.build_jobs(machine),
        sc.build_policy(machine),
        duration=sc.effective_duration,
        powercaps=sc.build_caps(machine),
        config=sc.build_config(),
        platform=get_platform(sc.platform),
    )


class TestBitIdentity:
    @pytest.mark.parametrize(
        "policy,fracs",
        [
            # IDLE: single-frequency selector, no shutdowns — takes the
            # fork path.
            ("IDLE", [0.4, 0.6, 0.8]),
            # DVFS: the frequency ladder's soft decisions pull the
            # divergence onset below zero — exercises the fallback.
            ("DVFS", [0.4, 0.6]),
            # MIX: shutdown reservations active from t=0 — fallback.
            ("MIX", [0.5, 0.6]),
            # NONE ignores caps entirely: every cell is one replay, so
            # the warm start covers the whole duration.
            ("NONE", [0.4, 0.6]),
            # IDLE reversed: a different donor forks the same siblings.
            ("IDLE", [0.8, 0.6, 0.4]),
        ],
    )
    def test_batch_matches_solo_digests(self, policy, fracs, monkeypatch):
        forked = []
        install = batch_mod.install_fork_state

        def counted_install(cell, state, specs):
            forked.append(cell)
            install(cell, state, specs)

        monkeypatch.setattr(batch_mod, "install_fork_state", counted_install)
        cells, batch = _run_batch(policy, fracs)
        assert len(batch) == len(cells)
        # Every sibling forks from the donor, or none does (fallback).
        assert len(forked) == (len(cells) - 1 if policy in ("IDLE", "NONE") else 0)
        for sc, res in zip(cells, batch):
            solo = _run_solo(sc)
            assert trace_digest(res.recorder) == trace_digest(solo.recorder)
            assert res.n_submitted == solo.n_submitted

    def test_golden_digest_under_batch(self):
        _, batch = _run_batch("MIX", [0.5, 0.6])
        assert trace_digest(batch[0].recorder) == GOLDEN_SEED_DIGEST

    def test_single_cell_batch(self):
        cells, batch = _run_batch("IDLE", [0.5])
        solo = _run_solo(cells[0])
        assert trace_digest(batch[0].recorder) == trace_digest(solo.recorder)

    def test_rejects_empty_and_nonpositive(self):
        machine = BASE.build_machine()
        jobs = BASE.build_jobs(machine)
        pol = BASE.build_policy(machine)
        with pytest.raises(ValueError):
            run_replay_batch(
                machine, jobs, pol, duration=HOUR, caps_per_cell=[]
            )
        with pytest.raises(ValueError):
            run_replay_batch(
                machine, jobs, pol, duration=0.0, caps_per_cell=[[]]
            )


def _captured(policy, fracs, window):
    """The fork state a batch captures from its donor."""
    states = []
    capture = batch_mod.capture_fork_state

    def keep(donor, fork_t):
        states.append(capture(donor, fork_t))
        return states[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch_mod, "capture_fork_state", keep)
        _run_batch(policy, fracs, window=window)
    (state,) = states
    return state


class TestForkState:
    """The captured state: scalar meta, columnar job tables, one
    install path for the in-process fork and the durable store."""

    def test_directory_store_round_trip_matches_solo(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        fracs = [0.4, 0.6]
        group = checkpoint_group(BASE.with_(policy="IDLE"))
        # Cold: the donor captures and publishes (put), its sibling
        # installs the in-memory state.
        cold_warm = WarmStart(store, group)
        cells, cold = _run_batch("IDLE", fracs, warm_start=cold_warm)
        assert dict(cold_warm.counts) == {
            "checkpoints.misses": 1,
            "checkpoints.publishes": 1,
        }
        # Warm: every cell installs the state read back from disk (get).
        FORK_STATE_CACHE.clear()
        warm_warm = WarmStart(store, group)
        _, warm = _run_batch("IDLE", fracs, warm_start=warm_warm)
        assert dict(warm_warm.counts) == {"checkpoints.hits": 1}
        for sc, c, w in zip(cells, cold, warm):
            solo = trace_digest(_run_solo(sc).recorder)
            assert trace_digest(c.recorder) == solo
            assert trace_digest(w.recorder) == solo

    def test_version_one_store_misses_silently(self, tmp_path):
        """A checkpoint an older build wrote (job tables in the JSON
        meta) is a silent miss; it stays on disk only until this build
        publishes the key."""
        store = DirectoryCheckpointStore(tmp_path)
        group = checkpoint_group(BASE.with_(policy="IDLE"))
        key = checkpoint_key(group, 1800.0)
        meta = {
            "version": 1,
            "horizon": (1800.0).hex(),
            "now": (1800.0).hex(),
            "jobs": [{"id": 0, "n_nodes": 1, "state": "pending"}],
            "rec_jobs": [{"id": 0, "cores": 16, "state": "pending"}],
        }
        wrapper = {
            "schema": CHECKPOINT_SCHEMA,
            "group": group,
            "horizon": (1800.0).hex(),
            "meta": meta,
        }
        with open(store._path(key, ".npz"), "wb") as fh:
            np.savez_compressed(fh, job_nodes=np.arange(3, dtype=np.int64))
        store._path(key).write_text(json.dumps(wrapper), encoding="utf-8")
        assert FORK_STATE_VERSION == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # silent: no discard warning
            assert store.get(key) is None
            assert store.best(group, 9000.0) is None
        assert store._path(key).is_file()
        assert store._path(key, ".npz").is_file()
        assert store.health.discarded == 0

    def test_meta_is_scalars_only(self):
        """The meta does not grow with the job count: the job tables
        are array columns."""
        early = _captured("IDLE", [0.4, 0.6], (1800.0, 5400.0))
        late = _captured("IDLE", [0.4, 0.6], (5400.0, 6600.0))
        n_early = len(early["arrays"]["job_id"])
        n_late = len(late["arrays"]["job_id"])
        assert n_late > n_early > 0
        for state in (early, late):
            meta = state["meta"]
            assert all(
                v is None or isinstance(v, (str, int, float, bool))
                for v in meta.values()
            )
            assert len(json.dumps(meta)) < 1024
        assert len(json.dumps(late["meta"])) - len(json.dumps(early["meta"])) < 16
        assert early["meta"].keys() == late["meta"].keys()
