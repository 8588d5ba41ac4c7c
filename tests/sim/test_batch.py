"""Batched replays: bit-identity against solo replays.

The batch engine promises *equivalence, not approximation*: replaying N
cap schedules of one workload in one batch — forked from one donor's
shared prefix, or each cell from t=0 — must reproduce each solo
replay's trace digest byte for byte.  These tests pin that contract on
both paths (fork and fallback) and on the golden scenario.
"""

import pytest

from repro.exp import CapWindow, Scenario, trace_digest
from repro.platform import get_platform
from repro.sim import batch as batch_mod
from repro.sim.batch import run_replay_batch
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


def _run_batch(policy, fracs, *, window=(1800.0, 5400.0)):
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
