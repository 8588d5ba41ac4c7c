"""The four workloads of the end-to-end sweep benchmark, and the
measurement of one workload inside its own process (:func:`measure`).

Each workload is a list of scenarios, a backend and a store layout,
driven through the same public call the CLI makes:
``GridRunner.sweep`` on a fresh ``GridRunner`` for every repetition.

``--seed`` varies the cap fractions, not the job workloads.  At seed 0
every cell is exactly the one the benchmark documents (and its trace
digest is pinned in :data:`SEED0_DIGESTS`); any other seed shifts each
cap fraction by a seeded amount in ``[-width, +width]``.  The cap binds
in every sweep (see :data:`SWEEP_POLICY`), so a shifted cap changes the
replay and its digest.  The job workloads keep fixed seeds on purpose:
at 2 h and 1/8 Curie scale a different workload seed moves a cap
sweep's wall time by up to 3.4x, which would swamp any bound the
benchmark could enforce.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Callable

from repro.exp import (
    BatchBackend,
    CapWindow,
    DirectoryCheckpointStore,
    DirectoryStore,
    GridRunner,
    MemoryStore,
    Scenario,
    make_backend,
)
from repro.exp.library import get_scenario
from repro.exp.runner import _jobs_for, _machine_for
from repro.exp.shm import live_segments
from repro.platform import get_platform

import spans

HOUR = 3600.0
#: 1/56 Curie (90 nodes): the smoke size of the self-test
SMOKE_SCALE = 0.0179
#: grid step of the exported series on the on-disk workloads
SERIES_DT = 10.0
#: cap window of the sweep cells: minutes 96 to 112 of a 2 h replay
SWEEP_WINDOW = (5760.0, 6720.0)
SWEEP_DURATION = 2 * HOUR
#: Policy of the sweep cells.  Under SHUT the cap sets how many nodes
#: switch off, so the cells of one sweep replay differently.  (IDLE can
#: only hold jobs back: with the machine near full power, every cap
#: below ~0.93 holds back the same jobs and gives the same trace.)  A
#: zero drain horizon (SLURM's IGNORE_JOBS reservations) keeps the
#: replay before the window common to every cap, so the lockstep
#: backends still fork after one shared prefix; the default infinite
#: horizon would make every cell replay from t = 0.
SWEEP_POLICY = "SHUT"
SWEEP_CONFIG = {"reservation_drain_horizon": 0.0}
#: the library scenarios riding along in the pool sweeps as singletons
SINGLETONS = (
    "fatnode-bigjob-shut-60",
    "manythin-smalljob-dvfs-40",
    "manythin-staircase-mix",
    "medianjob-track-60",
)

#: sha256 over the ordered cell trace digests of each workload at seed 0
SEED0_DIGESTS = {
    "day-replay": "b1687aaa511579f7d43218cc434bc57075c2586f32f1249c172aca567a543ff2",
    "cap-sweep": "f0df6cec6b6ae4289511ee5ef694e739cea95eb21c02a2d1781645b9f8a5466f",
    "pool-sweep": "c36f853878f35564caf173ed9d418ff73aacee4855e942f4d6406c992b67749c",
    "warm-rerun": "68a1525fb21444ea4b62c7cc54b44609be9e31da03b3987ce8536702e6b37f7b",
}


def _offsets(seed: int, n: int, width: float, stream: int = 0) -> list[float]:
    """Seeded cap-fraction offsets; all zero at seed 0."""
    if seed == 0:
        return [0.0] * n
    rng = random.Random(f"{seed}/{stream}")
    return [rng.uniform(-width, width) for _ in range(n)]


def _sweep_cells(
    workload_seed: int,
    first_pct: int,
    step_pct: int,
    n: int,
    width: float,
    seed: int,
    smoke: bool,
) -> list[Scenario]:
    """Cap-sweep cells of one medianjob workload: ``n`` fractions
    ``first_pct + i * step_pct`` percent, each shifted by a seeded
    offset in ``[-width, +width]``.  The smoke size keeps the first and
    the last cell only."""
    scale = SMOKE_SCALE if smoke else 0.125
    base = Scenario(
        name=f"sweep-s{workload_seed}",
        interval="medianjob",
        policy=SWEEP_POLICY,
        scale=scale,
        duration=SWEEP_DURATION,
        seed=workload_seed,
        config=SWEEP_CONFIG,
    )
    offsets = _offsets(seed, n, width, stream=1000 * workload_seed + first_pct)
    cells = []
    for i in range(n):
        pct = first_pct + i * step_pct
        fraction = round(pct / 100 + offsets[i], 4)
        cells.append(
            base.with_(
                name=f"sweep-s{workload_seed}-{pct}",
                caps=(CapWindow(*SWEEP_WINDOW, fraction),),
            )
        )
    return [cells[0], cells[-1]] if smoke else cells


def day_cells(seed: int, smoke: bool) -> list[Scenario]:
    """Figure 6: the Curie day under MIX at a 40 % cap (±0.02)."""
    if smoke:
        base = Scenario.paper_cell(
            "24h", "MIX", 0.4, scale=SMOKE_SCALE, duration=2 * HOUR
        )
    else:
        base = get_scenario("fig6-24h-mix-40")
    cap = base.caps[0]
    fraction = round(cap.fraction + _offsets(seed, 1, 0.02)[0], 4)
    return [base.with_(caps=(CapWindow(cap.start, cap.end, fraction),))]


def cap_cells(seed: int, smoke: bool) -> list[Scenario]:
    """48 cap fractions 0.30-0.77 in 0.01 steps (±0.004) of one
    workload (seed 5)."""
    return _sweep_cells(5, 30, 1, 48, 0.004, seed, smoke)


def _pool_seeds(smoke: bool) -> range:
    return range(1 if smoke else 6)


def pool_cells(seed: int, smoke: bool) -> list[Scenario]:
    """6 workload seeds x 8 cap fractions 0.30-0.72 in 0.06 steps
    (±0.01), plus the library singletons.  The wide steps make every
    seed's cap bind at several levels."""
    cells: list[Scenario] = []
    for ws in _pool_seeds(smoke):
        cells += _sweep_cells(ws, 30, 6, 8, 0.01, seed, smoke)
    if smoke:
        return cells + [get_scenario("medianjob-track-60").with_(scale=SMOKE_SCALE)]
    return cells + [get_scenario(name) for name in SINGLETONS]


def warm_cells(seed: int, smoke: bool) -> list[Scenario]:
    """The pool-sweep cells plus 8 new cap fractions 0.33-0.75 per seed,
    between the stored ones."""
    cells = pool_cells(seed, smoke)
    for ws in _pool_seeds(smoke):
        cells += _sweep_cells(ws, 33, 6, 8, 0.01, seed, smoke)
    return cells


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    workers: int
    #: DirectoryStore + DirectoryCheckpointStore with series, in fresh
    #: directories; otherwise a MemoryStore and no checkpoints
    on_disk: bool
    cells: Callable[[int, bool], list[Scenario]]
    #: cells an untimed pass stores before the timed reps
    seeded: Callable[[int, bool], list[Scenario]] | None = None


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload("day-replay", "serial", 1, False, day_cells),
        Workload("cap-sweep", "batch", 1, False, cap_cells),
        Workload("pool-sweep", "batch-pool", 2, True, pool_cells),
        Workload("warm-rerun", "pool", 2, True, warm_cells, seeded=pool_cells),
    )
}


def make_runner(wl: Workload, root: Path, backend: str | None = None) -> GridRunner:
    backend_obj = make_backend(backend or wl.backend, workers=wl.workers)
    if not wl.on_disk:
        return GridRunner(backend=backend_obj, store=MemoryStore())
    return GridRunner(
        backend=backend_obj,
        store=DirectoryStore(root / "results", series_dt=SERIES_DT),
        series=True,
        series_dt=SERIES_DT,
        checkpoints=DirectoryCheckpointStore(root / "ckpt"),
        on_error="quarantine",
    )


def generate(cells: list[Scenario]) -> float:
    """Build every distinct machine and job workload of ``cells`` into
    the runner's per-process memo; returns the seconds it took."""
    t0 = time.perf_counter()
    for sc in cells:
        platform_hash = get_platform(sc.platform).content_hash()
        _machine_for(sc.platform, platform_hash, sc.scale)
        _jobs_for(
            sc.platform,
            platform_hash,
            sc.interval,
            sc.effective_seed,
            sc.effective_duration,
            sc.overload,
            sc.scale,
        )
    return time.perf_counter() - t0


def _disk_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def digest_of(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


@dataclass
class Rep:
    wall_s: float
    report: Any
    digests: list[str]
    disk_bytes: int
    leaked: int


def run_rep(wl: Workload, cells: list[Scenario], root: Path, seeded: Path | None) -> Rep:
    """One timed ``GridRunner.sweep`` in fresh store directories.

    The seeded stores are copied in before the clock starts; the
    directories are removed after the rep."""
    if seeded is not None:
        shutil.copytree(seeded, root)
    else:
        root.mkdir(parents=True)
    before = _disk_bytes(root)
    # The previous rep's cyclic garbage (engines, controllers) goes now,
    # not inside this rep's clock or on top of its memory peak.
    gc.collect()
    runner = make_runner(wl, root)
    try:
        t0 = time.perf_counter()
        report = runner.sweep(cells)
        wall = time.perf_counter() - t0
    finally:
        runner.close()
    added = _disk_bytes(root) - before
    shutil.rmtree(root)
    return Rep(
        wall_s=wall,
        report=report,
        digests=[r.trace_digest for r in report.results],
        disk_bytes=added,
        leaked=len(live_segments(shm_prefix())),
    )


def shm_prefix() -> str:
    """Prefix of every shm segment a backend of this process names."""
    return f"rs{os.getpid():x}a"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child.

    The children are the pool workers of this process's reps: the
    seeding pass and the reference check run in processes of their own.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def seed_stores(wl: Workload, seed: int, smoke: bool, root: Path) -> dict:
    """Store the seeded cells under ``root`` the way pool-sweep does."""
    cells = wl.seeded(seed, smoke)
    runner = make_runner(wl, root, backend="batch-pool")
    try:
        report = runner.sweep(cells)
    finally:
        runner.close()
    return {"attempted": len(cells), "failed": len(report.failures)}


def lockstep_groups(cells: list[Scenario]) -> list[list[int]]:
    """Indices of the cells of every lockstep group of two or more."""
    groups: dict[tuple[str, str], list[int]] = {}
    for i, sc in enumerate(cells):
        groups.setdefault(BatchBackend.group_key(sc), []).append(i)
    return [idxs for idxs in groups.values() if len(idxs) > 1]


def reference_cells(cells: list[Scenario]) -> list[int]:
    """Indices of the first and last cell of every lockstep group."""
    return [i for idxs in lockstep_groups(cells) for i in (idxs[0], idxs[-1])]


def reference_digests(cells: list[Scenario]) -> list[tuple[int, str, str]]:
    """(index, name, digest) of every reference cell, re-run cold on the
    serial replay path (no lockstep batch, no checkpoints), two cells at
    a time in pool workers."""
    picked = reference_cells(cells)
    with GridRunner(workers=2) as runner:
        results = runner.run([cells[i] for i in picked])
    return [(i, cells[i].name, r.trace_digest) for i, r in zip(picked, results)]


def uniform_groups(cells: list[Scenario], digests: list[str]) -> list[str]:
    """One problem per lockstep group whose cells all replayed alike.

    Such a group's cap never bound, so its forks check nothing a single
    cell would not: a fork that mis-applied the cap would go unseen.
    """
    return [
        f"lockstep group of {cells[idxs[0]].name}: all {len(idxs)} cells "
        f"share digest {digests[idxs[0]][:12]}"
        for idxs in lockstep_groups(cells)
        if len({digests[i] for i in idxs}) == 1
    ]


def rep_failures(rep: Rep, n_cells: int, first: list[str] | None) -> tuple[int, list[str]]:
    """Failed operations of one rep: failed or quarantined cells, cells
    missing or disagreeing with the first rep, and one for a leaked shm
    segment."""
    failures = rep.report.failures
    problems = [f"cell {f.scenario_name}: {f.kind} {f.message}" for f in failures]
    failed = len(failures)
    missing = n_cells - len(rep.digests) - len(failures)
    if missing:
        problems.append(f"{missing} cell(s) returned neither result nor failure")
        failed += missing
    elif first is not None and not failures:
        diff = sum(a != b for a, b in zip(rep.digests, first))
        if diff:
            problems.append(f"{diff} cell digest(s) differ from the first rep")
            failed += diff
    if rep.leaked:
        problems.append(f"{rep.leaked} shm segment(s) left under {shm_prefix()}")
        failed += 1
    return failed, problems


def executed_events(report: Any) -> int:
    return sum(r.n_events for r in report.results if not r.cached)


def measure(
    wl: Workload,
    cells: list[Scenario],
    seed: int,
    deadline: float,
    trace: bool,
    smoke: bool,
    tmp: Path,
    seeded: Path | None,
) -> dict:
    """Timed reps until ``deadline`` (a ``time.monotonic()`` instant),
    give or take half a rep, and the output checks.

    With ``trace`` every untraced rep is paired with a traced one, in
    ABBA order so that a drifting host speed cancels out of the pairs.
    """
    n = len(cells)
    tracer = None
    if trace:
        (tmp / "spans").mkdir()
        tracer = spans.Tracer(tmp / "spans")
    reps: list[Rep] = []
    traced: list[Rep] = []
    while True:
        t0 = time.monotonic()
        order = ((False, True) if len(reps) % 2 == 0 else (True, False)) if tracer else (False,)
        for on in order:
            root = tmp / f"rep{len(reps) + len(traced)}"
            if not on:
                reps.append(run_rep(wl, cells, root, seeded))
                continue
            tracer.install()
            try:
                traced.append(run_rep(wl, cells, root, seeded))
            finally:
                tracer.uninstall()
        now = time.monotonic()
        if smoke or now + (now - t0) / 2 >= deadline:
            break
    rss_mb = peak_rss_mb()

    first = reps[0].digests
    attempted, failed, problems = 0, 0, []
    for i, rep in enumerate(reps + traced):
        f, p = rep_failures(rep, n, first if i else None)
        attempted, failed = attempted + n, failed + f
        problems += p
    if len(first) == n:
        uniform = uniform_groups(cells, first)
        failed += len(uniform)
        problems += uniform

    digest = digest_of(first)
    check = None
    if seed == 0 and not smoke:
        check = "matches the seed-0 record"
        if digest != SEED0_DIGESTS[wl.name]:
            check = "MISMATCH with the seed-0 record"
            failed += n
            problems.append(f"digest {digest[:16]} != seed-0 record")

    return {
        "backend": wl.backend,
        "workers": wl.workers,
        "cells": n,
        "walls": [r.wall_s for r in reps],
        "events": executed_events(reps[0].report),
        "disk_bytes": [r.disk_bytes for r in reps],
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digest,
        "digests": first,
        "digest_check": check,
        "traced": traced_summary(tracer, reps, traced) if tracer else None,
    }


def traced_summary(tracer: spans.Tracer, untraced: list[Rep], traced: list[Rep]) -> dict:
    """Per-rep means of the traced reps' span totals and counts, and the
    tracer's overhead: the median over the (untraced, traced) pairs of
    traced over untraced wall, minus one."""
    k = len(traced)
    worker, worker_counts = tracer.worker_totals()
    counts = dict(tracer.counts)
    for name, value in worker_counts.items():
        counts[name] = counts.get(name, 0) + value

    def per_rep(totals: dict[str, list]) -> dict[str, list]:
        return {name: [s / k, incl / k, calls // k] for name, (s, incl, calls) in totals.items()}

    report = traced[-1].report
    return {
        "reps": k,
        "wall_s": sum(r.wall_s for r in traced) / k,
        "overhead": median([t.wall_s / u.wall_s for u, t in zip(untraced, traced)]) - 1.0,
        "driver": per_rep(tracer.totals),
        "worker": per_rep(worker),
        "counts": {name: value // k for name, value in counts.items()},
        "n_hits": report.n_hits,
        "n_retries": report.n_retries,
        "checkpoints": report.checkpoints,
        "transfer": report.transfer,
    }
