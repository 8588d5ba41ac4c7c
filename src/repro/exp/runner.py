"""Scenario execution: serial, parallel, and cached.

:func:`run_scenario` replays one :class:`~repro.exp.spec.Scenario` and
condenses it into a :class:`RunResult` — the metrics summary plus an
event-trace digest.  The digest covers every job outcome and every
power/utilisation sample with bit-exact float encoding, so two results
are equal iff the replays were byte-for-byte identical; that is what
makes serial and multi-process grid runs directly comparable.

Every execution unit — a lockstep group of cells that differ only in
their caps, or a single cell as a batch of one — replays through one
function, :func:`_replay_unit`, on
:func:`repro.sim.batch.run_replay_batch`, whether it runs in this
process or as a pool task (:func:`_run_task`, :func:`_run_group_task`).

:class:`GridRunner` is pure orchestration over two pluggable seams:
an :class:`~repro.exp.backends.ExecutionBackend` (where scenarios
execute: in-process, a ``multiprocessing`` pool, or one deterministic
shard of a split sweep) and a :class:`~repro.exp.store.ResultStore`
(where results persist: an in-memory memo, or a JSON/``.npz``
directory that concurrent writers may share).  One
``run()`` is dedupe → store lookup → backend submit → store write →
aggregate.  Results always come back in input order, and every
backend produces exactly the output a serial run would (each worker
rebuilds the scenario from scratch; nothing is shared), so neither
parallelism nor sharding ever changes results — only wall time.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.analysis.report import window_norms
from repro.exp import faults as _faults
from repro.exp.backends import (
    BatchBackend,
    ExecutionBackend,
    PoolBackend,
    ShardedBackend,
)
from repro.exp.checkpoints import (
    CheckpointStore,
    WarmStart,
    checkpoint_group,
    make_checkpoint_store,
)
from repro.exp import shm as _shm
from repro.exp.resilience import (
    ON_ERROR_MODES,
    FailureRecord,
    RetryPolicy,
    SweepError,
    SweepReport,
    TaskFailure,
)
from repro.exp.spec import Scenario
from repro.exp.store import (
    DEFAULT_SERIES_DT,
    DirectoryStore,
    MemoryStore,
    ResultStore,
    result_key,
)
from repro.sim.metrics import MetricsRecorder
from repro.sim.replay import ReplayResult

#: cache file schema version
_CACHE_SCHEMA = 1


#: rows (jobs, then samples) rendered per hash update.  The rendered
#: text of a chunk is the digest's only sizeable allocation: about
#: 0.3 MB at 256 rows, against 1.2 MB at 1,024 and several times the
#: recorder's own footprint for a whole replay, at the same speed.
_DIGEST_CHUNK = 256


def trace_digest(recorder: MetricsRecorder) -> str:
    """SHA-256 digest of a replay's full observable trace.

    Covers every job record (identity, placement width, chronology,
    assigned frequency, terminal state) and every recorded series
    sample, one ``|``-joined line each.  Floats are hashed via
    :func:`float.hex` (``nan``, ``inf`` and ``-inf`` included), so the
    digest is equal exactly when the traces are bit-identical.  The
    samples are read column by column (:meth:`MetricsRecorder.sample_columns`).
    """
    h = hashlib.sha256()
    hx = float.hex
    jobs = recorder.jobs
    ids = sorted(jobs)
    for lo in range(0, len(ids), _DIGEST_CHUNK):
        rows = [
            "|".join(
                (
                    str(r.job_id),
                    str(r.cores),
                    str(r.n_nodes),
                    hx(float(r.submit_time)),
                    "-" if r.start_time is None else hx(float(r.start_time)),
                    "-" if r.end_time is None else hx(float(r.end_time)),
                    "-" if r.freq_ghz is None else hx(float(r.freq_ghz)),
                    hx(float(r.degradation)),
                    r.state,
                )
            )
            for r in map(jobs.__getitem__, ids[lo : lo + _DIGEST_CHUNK])
        ]
        rows.append("")  # every line ends in a newline
        h.update("\n".join(rows).encode())
    columns = recorder.sample_columns()
    for lo in range(0, recorder.n_samples, _DIGEST_CHUNK):
        fields = [map(hx, c[lo : lo + _DIGEST_CHUNK].tolist()) for c in columns]
        rows = list(map("|".join, zip(*fields)))
        rows.append("")
        h.update("\n".join(rows).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class RunResult:
    """Condensed outcome of one scenario replay.

    Small enough to pickle across process boundaries and to cache as
    JSON, yet carrying everything the aggregation layer needs: the
    scenario itself, the metric summary (whole-interval and
    cap-window), and the trace digest that certifies determinism.
    """

    scenario: Scenario
    metrics: Mapping[str, float]
    trace_digest: str
    n_jobs: int
    n_rejected: int
    n_events: int
    n_samples: int
    wall_seconds: float
    cached: bool = False
    #: wall clock of the execution unit that produced this result: the
    #: successful attempt's elapsed for a solo replay, the whole
    #: group's elapsed for a lockstep batch cell (shared by siblings,
    #: >= ``wall_seconds``, which reports the cell's amortised share).
    #: ``None`` for entries cached before the field existed.
    elapsed_seconds: float | None = None

    @property
    def scenario_hash(self) -> str:
        return self.scenario.scenario_hash()

    def same_outcome(self, other: "RunResult") -> bool:
        """Bit-identical replay: same trace digest and metrics.

        NaN-aware (uncapped scenarios carry NaN window metrics, and
        ``nan != nan`` would make every comparison fail after a JSON
        round-trip breaks object identity).
        """
        if self.trace_digest != other.trace_digest:
            return False
        a, b = dict(self.metrics), dict(other.metrics)
        if set(a) != set(b):
            return False
        return all(
            a[k] == b[k] or (math.isnan(a[k]) and math.isnan(b[k])) for k in a
        )

    def to_dict(self) -> dict[str, Any]:
        # NaN encodes as null so cache files stay strict RFC 8259 JSON
        # (bare NaN tokens would break non-Python consumers).
        return {
            "schema": _CACHE_SCHEMA,
            "scenario": self.scenario.to_dict(),
            "scenario_hash": self.scenario_hash,
            "metrics": {
                k: (None if math.isnan(v) else v) for k, v in self.metrics.items()
            },
            "trace_digest": self.trace_digest,
            "n_jobs": self.n_jobs,
            "n_rejected": self.n_rejected,
            "n_events": self.n_events,
            "n_samples": self.n_samples,
            "wall_seconds": self.wall_seconds,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any], *, cached: bool = False) -> "RunResult":
        if d.get("schema") != _CACHE_SCHEMA:
            raise ValueError(f"unsupported result schema {d.get('schema')}")
        return cls(
            scenario=Scenario.from_dict(d["scenario"]),
            metrics={
                k: (float("nan") if v is None else float(v))
                for k, v in d["metrics"].items()
            },
            trace_digest=str(d["trace_digest"]),
            n_jobs=int(d["n_jobs"]),
            n_rejected=int(d["n_rejected"]),
            n_events=int(d["n_events"]),
            n_samples=int(d["n_samples"]),
            wall_seconds=float(d["wall_seconds"]),
            cached=cached,
            # Schema-tolerant: entries written before the field existed
            # (same _CACHE_SCHEMA) still load, just without an elapsed.
            elapsed_seconds=(
                float(d["elapsed_seconds"])
                if d.get("elapsed_seconds") is not None
                else None
            ),
        )


@lru_cache(maxsize=16)
def _machine_for(platform: str, platform_hash: str, scale: float):
    # ``platform_hash`` keys the memo to the spec *content*, so
    # register_platform(..., replace=True) invalidates stale entries
    # instead of silently serving the previous spec's hardware.
    from repro.platform import get_platform

    return get_platform(platform).build_machine(scale=scale)


@lru_cache(maxsize=8)
def _jobs_for(
    platform: str,
    platform_hash: str,
    interval: str,
    seed: int,
    duration: float,
    overload: float,
    scale: float,
):
    """Per-process workload memo — a grid run replays only a handful
    of distinct workloads across many cells, and generation is pure
    (fully keyed by its inputs, the platform via its content hash),
    so caching cannot affect results.  Returns a tuple: callers must
    not see a mutable shared list."""
    from repro.exp.spec import build_workload

    return tuple(
        build_workload(
            _machine_for(platform, platform_hash, scale),
            interval,
            seed=seed,
            duration=duration,
            overload=overload,
            platform=platform,
        )
    )


def replay_scenario(
    scenario: Scenario,
    *,
    checkpoints: CheckpointStore | None = None,
    counts: Counter | None = None,
) -> ReplayResult:
    """Run the full replay of a scenario (in-process, full telemetry):
    a batch of one cell (see :func:`_replay_cells`)."""
    return _replay_cells([scenario], checkpoints, counts)[0]


def _replay_cells(
    scenarios: Sequence[Scenario],
    checkpoints: CheckpointStore | None = None,
    counts: Counter | None = None,
) -> list[ReplayResult]:
    """Replay scenarios that differ at most in their caps as one batch
    through :func:`repro.sim.batch.run_replay_batch`: the shared prefix
    once, then each cell alone — bit identical to solo replays, pinned
    by the cross-backend golden digests.

    With a ``checkpoints`` store the batch probes the store for its
    cap-free prefix before replaying it cold, and publishes the prefix
    on a miss so the next run (any backend, any process, any machine)
    warm-starts.  Probes and publishes are counted into ``counts`` when
    given (see :class:`~repro.exp.checkpoints.WarmStart`).
    """
    from repro.platform import get_platform
    from repro.sim.batch import run_replay_batch

    base = scenarios[0]
    platform = get_platform(base.platform)
    platform_hash = platform.content_hash()
    machine = _machine_for(base.platform, platform_hash, base.scale)
    jobs = _jobs_for(
        base.platform,
        platform_hash,
        base.interval,
        base.effective_seed,
        base.effective_duration,
        base.overload,
        base.scale,
    )
    warm = (
        WarmStart(checkpoints, checkpoint_group(base), counts)
        if checkpoints is not None
        else None
    )
    return run_replay_batch(
        machine,
        jobs,
        base.build_policy(machine),
        duration=base.effective_duration,
        caps_per_cell=[sc.build_caps(machine) for sc in scenarios],
        config=base.build_config(),
        platform=platform,
        warm_start=warm,
    )


def scenario_series(scenario: Scenario, *, grid_dt: float = 300.0) -> dict[str, object]:
    """Replay a scenario and export the Figure 6/7 time-series bundle.

    Same shape as :func:`repro.analysis.figures.figure_series`; the
    hatched window/cap levels come from the scenario's first cap.
    """
    result = replay_scenario(scenario)
    machine = result.machine
    grid = result.recorder.to_grid(0.0, result.duration, grid_dt)
    first = scenario.caps[0] if scenario.caps else None
    return {
        "grid": grid,
        "result": result,
        "window": (first.start, first.end) if first is not None else None,
        "cap_watts": first.fraction * machine.max_power() if first else math.inf,
        "max_power": machine.max_power(),
        "total_cores": machine.total_cores,
        "frequencies": machine.freq_table.frequencies,
    }


@contextmanager
def _profiled(stem: str, profile_dir: str | Path | None) -> Iterator[None]:
    """cProfile the body into ``<profile_dir>/<stem>.pstats``.

    One file per scenario (its hash) or lockstep group
    (``batch-<cap-free hash>``); pool workers write files, so profiles
    survive process boundaries, and ``repro exp run --profile DIR``
    aggregates them afterwards.
    """
    if profile_dir is None:
        yield
        return
    import cProfile

    prof = cProfile.Profile()
    prof.enable()
    try:
        yield
    finally:
        prof.disable()
        Path(profile_dir).mkdir(parents=True, exist_ok=True)
        prof.dump_stats(Path(profile_dir) / f"{stem}.pstats")


def run_scenario(
    scenario: Scenario,
    *,
    attempt: int = 1,
    checkpoints: CheckpointStore | None = None,
    counts: Counter | None = None,
    profile_dir: str | Path | None = None,
) -> RunResult:
    """Replay one scenario and condense it into a :class:`RunResult`.

    ``attempt`` is the 1-based execution count — the fault-injection
    hook keys on it, so a ``times=1`` fault fails the first attempt
    and lets the retry through.  A no-op unless a plan is armed.
    ``checkpoints``/``counts`` thread warm starts into the replay (see
    :func:`_replay_cells`); ``profile_dir`` wraps it in cProfile.
    """
    return _replay_unit(
        [scenario], attempt, series=False, grid_dt=0.0,
        checkpoints=checkpoints, counts=counts, profile_dir=profile_dir,
    )[0]


def run_scenario_with_series(
    scenario: Scenario,
    *,
    grid_dt: float = 300.0,
    attempt: int = 1,
    checkpoints: CheckpointStore | None = None,
    counts: Counter | None = None,
    profile_dir: str | Path | None = None,
) -> tuple[RunResult, dict[str, np.ndarray]]:
    """Replay one scenario; return the condensed result *and* the
    Figure 6/7 grid series (the payload behind ``.npz`` caching)."""
    return _replay_unit(
        [scenario], attempt, series=True, grid_dt=grid_dt,
        checkpoints=checkpoints, counts=counts, profile_dir=profile_dir,
    )[0]


def _replay_unit(
    scenarios: Sequence[Scenario],
    attempt: int = 1,
    *,
    series: bool,
    grid_dt: float,
    checkpoints: CheckpointStore | None = None,
    counts: Counter | None = None,
    profile_dir: str | Path | None = None,
    shm_prefix: str | None = None,
) -> list[Any]:
    """One execution unit in this process — a lockstep group, or a
    single cell as a batch of one — through :func:`_replay_cells`.

    Planned faults fire first, once per cell.  Returns one payload per
    cell in input order (``RunResult``, or ``(RunResult, series)`` with
    ``series``; the series rides an shm segment under ``shm_prefix``
    when given).  A group cell's wall clock reports its share of the
    batch plus its own condensing, so wall sums stay comparable across
    backends, and the group's full elapsed rides on every cell; a
    single cell is its own unit, so its elapsed is its wall.
    """
    for sc in scenarios:
        _faults.maybe_fire(sc.scenario_hash(), attempt)
    base = scenarios[0]
    stem = (
        base.scenario_hash()
        if len(scenarios) == 1
        else f"batch-{base.with_(caps=()).scenario_hash()}"
    )
    t0 = time.perf_counter()
    with _profiled(stem, profile_dir):
        replays = _replay_cells(scenarios, checkpoints, counts)
    elapsed = time.perf_counter() - t0
    payloads: list[Any] = []
    for sc, rep in zip(scenarios, replays):
        result = _condense(sc, rep, time.perf_counter() - elapsed / len(scenarios))
        if len(scenarios) > 1:
            result = replace(result, elapsed_seconds=elapsed)
        if series:
            grid = dict(rep.recorder.to_grid(0.0, rep.duration, grid_dt))
            payloads.append((result, _pack_series(grid, shm_prefix, counts)))
        else:
            payloads.append(result)
    return payloads


def _condense(scenario: Scenario, result: ReplayResult, t0: float) -> RunResult:
    machine = result.machine
    rec = result.recorder
    metrics: dict[str, float] = dict(result.summary())
    metrics["job_energy_norm"] = result.job_energy_joules() / (
        machine.max_power() * result.duration
    )
    metrics["completed_jobs"] = float(rec.completed_jobs(0.0, result.duration))
    wait = rec.mean_wait_time()
    metrics["mean_wait_seconds"] = float(wait) if wait is not None else float("nan")

    # Cap-window metrics (the quantities Figure 8's trade-off reading
    # needs): normalised over the first cap window, NaN when uncapped.
    nan = float("nan")
    w_energy = w_work = w_eff = nan
    if scenario.caps:
        w_energy, w_work, w_eff = window_norms(
            result, scenario.caps[0].start, scenario.caps[0].end
        )
    metrics["window_energy_norm"] = w_energy
    metrics["window_work_norm"] = w_work
    metrics["window_effective_work_norm"] = w_eff

    wall = time.perf_counter() - t0
    return RunResult(
        scenario=scenario,
        metrics=metrics,
        trace_digest=trace_digest(rec),
        n_jobs=result.n_submitted,
        n_rejected=len(result.controller.rejected),
        n_events=result.controller.engine.processed_events,
        n_samples=rec.n_samples,
        wall_seconds=wall,
        # A single cell is its own execution unit; a group overwrites
        # this with the whole group's elapsed.
        elapsed_seconds=wall,
    )


def _arm_worker(
    platforms: Sequence[Mapping[str, Any]], faults: Mapping[str, Any] | None
) -> None:
    """Mirror the driver's platform registry and fault plan here.

    Scenarios carry only a platform *name*, and a worker's registry is
    unknowable from the driver: a ``spawn`` worker sees just the
    builtins, a ``fork`` worker whatever was registered when it
    forked.  Re-registering every referenced spec with ``replace=True``
    makes it mirror the driver exactly (identical content is a no-op).
    Likewise a spawn worker starts disarmed, and a fork worker's copy
    of the fault plan may be stale.
    """
    from repro.platform import PlatformSpec, register_platform

    for spec in platforms:
        register_platform(PlatformSpec.from_dict(spec), replace=True)
    if faults is not None:
        _faults.install_plan(faults)


def _pack_series(
    grid: dict[str, np.ndarray],
    shm_prefix: str | None,
    counts: Counter | None,
) -> Any:
    """Worker-side series transport: a segment descriptor when the
    data plane is on, the plain dict (pickle path) otherwise.

    ``shm_prefix`` is ``None`` exactly when no process boundary is in
    play (in-process backends), where neither transport nor
    accounting applies."""
    if shm_prefix is None:
        return grid
    payload = _shm.arena.place(grid, prefix=shm_prefix)
    if payload is not None:
        return payload
    counts["transfer.fallbacks"] += 1
    counts["transfer.bytes_shipped"] += sum(a.nbytes for a in grid.values())
    return grid


def _run_task(
    scenario: Scenario,
    *,
    platforms: Sequence[Mapping[str, Any]],
    faults: Mapping[str, Any] | None = None,
    **unit: Any,
):
    """One solo cell as a pool work item (top-level so it pickles): a
    unit of one, see :func:`_run_group_task`."""
    _arm_worker(platforms, faults)
    counts: Counter = Counter()
    return counts, _replay_unit([scenario], counts=counts, **unit)


def _run_group_task(
    envelope: "_shm.GroupEnvelope",
    *,
    platforms: Sequence[Mapping[str, Any]],
    faults: Mapping[str, Any] | None = None,
    **unit: Any,
):
    """One whole lockstep group as a pool work item (top-level so it
    pickles to workers).

    ``unit`` holds :func:`_replay_unit`'s keywords (``attempt``,
    ``series``, ``grid_dt``, ``checkpoints``, ``profile_dir``,
    ``shm_prefix``).  Returns ``(counts, payloads)`` with one payload
    per cell in input order: a directory checkpoint store pickles as
    its path, so the worker probes/publishes the sweep's own entries,
    and its warm-start and transfer counts ride back for the pool to
    merge into the sweep's counter.  Any exception — including a
    planned fault fired by a member cell, which on the pool may kill
    this whole worker — is the pool's signal to degrade the group to
    solo units.
    """
    _arm_worker(platforms, faults)
    scenarios = envelope.resolve()
    counts: Counter = Counter()
    out = counts, _replay_unit(scenarios, counts=counts, **unit)
    # Every cell's engine and controller is cyclic garbage now.  Left to
    # the collector's own schedule, earlier groups' cells pile up under
    # the worker's next unit: in pool-sweep they were 15 MB of a 66 MB
    # worker peak.  One collection per group is small next to its
    # replays; one per solo cell is not (it cost warm-rerun 15 % of its
    # wall time), so solo tasks leave it to the collector.
    gc.collect()
    return out


@dataclass
class SweepSelection:
    """A sweep's selection before anything runs (:meth:`GridRunner.select`)."""

    #: owned scenarios to execute, one per content hash, in input order
    to_run: list[Scenario] = field(default_factory=list)
    #: content hash of each ``to_run`` scenario -> its input slots
    slots: dict[str, list[int]] = field(default_factory=dict)
    #: ``(input slot, stored result)`` of every store hit
    hits: list[tuple[int, RunResult]] = field(default_factory=list)
    #: persisted failures skipped under ``on_error="skip"``
    skipped: list[FailureRecord] = field(default_factory=list)
    #: hashes in ``to_run`` with a persisted failure (a success heals it)
    known_failed: set[str] = field(default_factory=set)


class GridRunner:
    """Pure orchestration of scenario sweeps over pluggable seams.

    One :meth:`run` is **dedupe → store lookup → backend submit →
    store write → aggregate**: content-identical scenarios collapse to
    one execution, the :class:`~repro.exp.store.ResultStore` serves
    whatever it already holds, the
    :class:`~repro.exp.backends.ExecutionBackend` executes the rest
    (in-process, across a worker pool, or only its deterministic shard
    of a split sweep), and fresh results are written back to the store
    before being returned in input order.  :meth:`sweep` also returns
    what it did as a :class:`~repro.exp.resilience.SweepReport`, whose
    hit, execution, retry, warm-start, transfer and group counts are
    views of one :class:`collections.Counter`.

    Parameters
    ----------
    workers:
        Process count; ``None`` or ``<= 1`` runs serially in-process.
        Shorthand for ``backend=make_backend("pool", workers=workers)``:
        every cell replays independently on a worker.  Mutually
        exclusive with an explicit ``backend`` (passing both raises).
        Parallel execution is deterministic: results are identical to
        a serial run of the same list, in the same order.
    cache_dir:
        Shorthand for ``store=DirectoryStore(cache_dir)``: each
        finished scenario is written to
        ``<cache_dir>/<scenario16>-<platform8>-<policy8>.json`` (the
        key covers the scenario *and* the registered platform and
        policy content) and later runs of the same content skip
        straight to the stored result.  Mutually exclusive with an
        explicit ``store`` (passing both raises).
    mp_context:
        ``multiprocessing`` start method of the shorthand pool backend
        (see :class:`~repro.exp.backends.PoolBackend`).
    series:
        Also export each scenario's Figure 6/7 grid series and hand it
        to the store as a ``.npz`` payload under the same key
        (loadable via :meth:`load_series`).  A stored scenario missing
        its series is treated as a miss so the payload is
        (re)produced.  Only applies to stores that persist series
        (the in-memory memo does not).
    series_dt:
        Grid step of the exported series, in seconds (applies to the
        shorthand directory store; an explicit ``store`` carries its
        own).
    backend:
        Explicit :class:`~repro.exp.backends.ExecutionBackend`; use
        :func:`~repro.exp.backends.make_backend` for the CLI names.
        With a sharded backend, :meth:`run` returns results only for
        the scenarios the shard owns (plus store hits are *not*
        consulted for foreign scenarios — shards stay independent).
    store:
        Explicit :class:`~repro.exp.store.ResultStore`; use
        :func:`~repro.exp.store.make_store` for the CLI specs.
        Default: a :class:`~repro.exp.store.DirectoryStore` when
        ``cache_dir`` is set, an in-process
        :class:`~repro.exp.store.MemoryStore` otherwise.  One
        directory store serves any number of concurrent runners,
        local or on other machines (``dir:PATH`` and ``shared:PATH``
        build the same class).
    retry:
        :class:`~repro.exp.resilience.RetryPolicy` applied per
        scenario by the backend.  ``None`` (default) means one
        attempt, no retries — failures are terminal immediately.
    timeout:
        Per-scenario wall-clock budget in seconds; ``None`` disables.
        Only a pool of two or more workers enforces it (it kills and
        respawns hung workers); the in-process backends warn and
        ignore it.
    on_error:
        Disposition of terminally-failed scenarios: ``"raise"``
        (default — re-raise, the pre-fault-tolerance behaviour),
        ``"skip"`` (drop them from the results; known failures from a
        previous sweep are not re-attempted), or ``"quarantine"``
        (drop them, mark their persisted
        :class:`~repro.exp.resilience.FailureRecord` quarantined, and
        keep retrying them on later sweeps).
    checkpoints:
        A :class:`~repro.exp.checkpoints.CheckpointStore` (or a
        CLI-style spec string / directory path, see
        :func:`~repro.exp.checkpoints.make_checkpoint_store`) of
        persistent warm-start prefixes.  Every executed cell probes
        the store for its cap-free prefix before replaying it cold and
        publishes it on a miss (a lockstep group publishes once for all
        its cells).  Hit/miss/publish counts land
        in :attr:`SweepReport.checkpoints`.  An in-memory checkpoint
        store only helps in-process backends (pool workers would probe
        a pickled empty copy), so it is not shipped to pools.
    profile_dir:
        Dump one cProfile stats file per executed scenario into this
        directory (``<scenario_hash>.pstats``; the batch backend adds
        ``batch-<group>.pstats`` per lockstep group).
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        cache_dir: str | Path | None = None,
        mp_context: str | None = None,
        series: bool = False,
        series_dt: float = DEFAULT_SERIES_DT,
        backend: ExecutionBackend | None = None,
        store: ResultStore | None = None,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        on_error: str = "raise",
        checkpoints: "CheckpointStore | str | Path | None" = None,
        profile_dir: str | Path | None = None,
    ) -> None:
        self.workers = int(workers) if workers is not None else 1
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if series_dt <= 0:
            raise ValueError("series_dt must be positive")
        self.series = bool(series)
        self.series_dt = float(series_dt)
        if backend is None:
            if self.workers > 1:
                backend = PoolBackend(self.workers, mp_context=mp_context)
            else:
                backend = BatchBackend(grouped=False)
        elif workers is not None or mp_context is not None:
            raise ValueError(
                "pass either an explicit backend or workers/mp_context, not both"
            )
        self.backend = backend
        if store is None:
            if self.cache_dir is not None:
                store = DirectoryStore(self.cache_dir, series_dt=self.series_dt)
            else:
                store = MemoryStore()
        elif cache_dir is not None:
            raise ValueError("pass either an explicit store or cache_dir, not both")
        self.store = store
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"unknown on_error mode {on_error!r}; expected one of {ON_ERROR_MODES}"
            )
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.retry = retry
        self.timeout = timeout
        self.on_error = on_error
        if checkpoints is not None and not hasattr(checkpoints, "best"):
            checkpoints = make_checkpoint_store(str(checkpoints))
        self.checkpoints = checkpoints
        self.profile_dir = Path(profile_dir) if profile_dir is not None else None

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "GridRunner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- store access -----------------------------------------------------------------

    @property
    def _want_series(self) -> bool:
        return self.series and self.store.stores_series

    def _lookup(self, scenario: Scenario) -> RunResult | None:
        """Store hit for this scenario, relabelled to the request.

        The stored label may differ (content-identical scenario under
        another name) and the stored ``cached`` flag is stale by
        definition; the content is what matters.
        """
        key = result_key(scenario)
        result = self.store.get(key)
        if result is None:
            return None
        if result.scenario.scenario_hash() != scenario.scenario_hash():
            return None  # foreign/corrupt entry: recompute
        if self._want_series and not self.store.has_series(key):
            return None  # series payload missing/stale: re-run to produce it
        return replace(result, scenario=scenario, cached=True)

    def load_series(self, scenario: Scenario) -> dict[str, np.ndarray] | None:
        """Load a scenario's stored ``.npz`` series payload, if any.

        A payload recorded at a different grid step than the store's
        ``series_dt`` is treated as absent, matching :meth:`run`'s
        miss behaviour for stale resolutions.
        """
        return self.store.get_series(result_key(scenario))

    def _backend_in_process(self) -> bool:
        """Whether scenarios execute in this process (no pool workers)."""
        b = self.backend
        while isinstance(b, ShardedBackend):
            b = b.inner
        return not isinstance(b, PoolBackend)

    # -- execution --------------------------------------------------------------------

    def select(self, scenarios: Sequence[Scenario]) -> "SweepSelection":
        """What :meth:`sweep` runs, serves and skips, running nothing.

        Dedupes by content hash, drops scenarios outside the backend's
        shard, takes store hits, and under ``on_error="skip"`` drops
        scenarios with a persisted failure record.  ``repro exp run
        --plan`` places exactly the selected ``to_run``.  A hit bumps
        the entry's access time for LRU pruning, as in a sweep.
        """
        sel = SweepSelection()
        hits: dict[str, RunResult] = {}
        dropped: set[str] = set()  # foreign shards and skipped failures
        track_failures = self.store.persists_failures
        for i, sc in enumerate(scenarios):
            key = sc.scenario_hash()
            if key in sel.slots:
                sel.slots[key].append(i)
                continue
            if key in hits:
                sel.hits.append((i, hits[key]))
                continue
            if key in dropped:
                continue
            if not self.backend.owns(key):
                dropped.add(key)
                continue
            cached = self._lookup(sc)
            if cached is not None:
                hits[key] = cached
                sel.hits.append((i, cached))
                continue
            if track_failures:
                prior = self.store.get_failure(result_key(sc))
                if prior is not None:
                    if self.on_error == "skip":
                        # Known-bad: don't burn attempts on it again.
                        sel.skipped.append(replace(prior, skipped=True))
                        dropped.add(key)
                        continue
                    sel.known_failed.add(key)  # re-attempt; success heals
            sel.slots[key] = [i]
            sel.to_run.append(sc)
        return sel

    def run(
        self,
        scenarios: Sequence[Scenario],
        *,
        progress: Callable[[RunResult], None] | None = None,
    ) -> list[RunResult]:
        """Execute ``scenarios`` and return results in input order.

        Stored scenarios are skipped; duplicates (same content hash)
        are executed once and the result is shared.  Under a sharded
        backend, scenarios outside the shard are dropped entirely
        (not looked up, not executed): the returned list covers
        exactly the shard's slice of the request, and merging the
        shards' stores reassembles the full sweep.

        Thin wrapper over :meth:`sweep` returning just the results;
        under the default ``on_error="raise"`` the first terminal
        failure propagates, so a plain ``run()`` can never silently
        lose scenarios.
        """
        return self.sweep(scenarios, progress=progress).results

    def sweep(
        self,
        scenarios: Sequence[Scenario],
        *,
        progress: Callable[[RunResult], None] | None = None,
    ) -> SweepReport:
        """Execute ``scenarios`` fault-tolerantly; return the full
        :class:`~repro.exp.resilience.SweepReport`.

        Orchestration is :meth:`run`'s (dedupe → store lookup →
        backend submit → store write → aggregate) with failure as a
        first-class outcome: the backend retries each scenario under
        the :class:`~repro.exp.resilience.RetryPolicy`, terminal
        failures become :class:`~repro.exp.resilience.FailureRecord`s
        (persisted next to the store entry when the store supports
        it), and ``on_error`` decides whether they raise, skip, or
        quarantine.  A scenario with a persisted failure record from
        an earlier sweep is skipped outright under ``"skip"`` and
        re-attempted otherwise; a successful re-run deletes the
        record (**heals** it).

        Every count lands in the report's one counter,
        :attr:`SweepReport.counts`: store hits and executions here,
        retries and group tallies in the backend, warm-start probes in
        the replay, transfer bytes at both ends of the pool's pipe.
        """
        t_sweep = time.perf_counter()

        scenarios = list(scenarios)
        results: list[RunResult | None] = [None] * len(scenarios)
        report = SweepReport(backend=self.backend.name)
        counts = report.counts

        selection = self.select(scenarios)
        to_run, slot_of = selection.to_run, selection.slots
        report.skipped = selection.skipped
        for i, hit in selection.hits:
            sc = scenarios[i]
            slot_result = hit if hit.scenario == sc else replace(hit, scenario=sc)
            results[i] = slot_result
            counts["hits"] += 1
            if progress is not None:
                progress(slot_result)

        track_failures = self.store.persists_failures
        failed: set[str] = set()  # hashes that failed terminally this sweep

        def record_failure(sc: Scenario, failure: TaskFailure) -> None:
            record = FailureRecord(
                scenario_name=sc.name,
                scenario_hash=sc.scenario_hash(),
                key=result_key(sc),
                backend=self.backend.name,
                kind=failure.kind,
                error_type=failure.error_type,
                message=failure.message,
                attempts=failure.attempts,
                quarantined=(self.on_error == "quarantine"),
                skipped=(self.on_error == "skip"),
                recorded_at=time.time(),
            )
            failed.add(record.scenario_hash)
            report.failures.append(record)
            if track_failures:
                self.store.put_failure(record.key, record)
            if self.on_error == "raise":
                if failure.exception is not None:
                    raise failure.exception
                raise SweepError(
                    f"scenario {sc.name!r} ({record.scenario_hash}) failed "
                    f"terminally on backend {self.backend.name!r}: "
                    f"[{failure.kind}] {failure.message}",
                    [record],
                )

        def collect_result(sc: Scenario, item: Any) -> None:
            if want_series:
                result, series = item
                if isinstance(series, _shm.ShmPayload):
                    # Zero-copy adoption: the store reads the arrays
                    # straight out of the worker's segment; the driver
                    # closes and unlinks once they are persisted.
                    try:
                        with _shm.arena.adopt(series) as view:
                            counts["transfer.bytes_shared"] += view.nbytes
                            counts["transfer.segments"] += 1
                            self.store.put_series(
                                result_key(result.scenario), view.arrays
                            )
                    except _shm.ShmAdoptError as exc:
                        # The result survived; only its series payload
                        # was lost with the segment.  Degrade loudly to
                        # a missing-series store entry rather than
                        # failing a finished scenario.
                        warnings.warn(
                            f"series payload for {result.scenario.name!r} "
                            f"lost with its shm segment: {exc}",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                else:
                    self.store.put_series(result_key(result.scenario), series)
            else:
                result = item
            self.store.put(result_key(result.scenario), result)
            counts["executed"] += 1
            scenario_hash = result.scenario_hash
            if scenario_hash in selection.known_failed:
                # Heal: a success supersedes the persisted failure.
                if self.store.pop_failure(result_key(result.scenario)):
                    report.healed.append(sc.name)
            for i in slot_of[scenario_hash]:
                # Duplicate slots keep their own scenario label
                # (content-identical, possibly differently named).
                slot_result = (
                    result
                    if scenarios[i] == result.scenario
                    else replace(result, scenario=scenarios[i])
                )
                results[i] = slot_result
                if progress is not None:
                    progress(slot_result)

        want_series = self._want_series
        # An in-memory checkpoint store can't cross a process boundary
        # (workers would probe a pickled empty copy and publish into
        # the void), so only shareable stores ship to pools.
        use_ckpt = self.checkpoints is not None and (
            self._backend_in_process() or self.checkpoints.shareable
        )
        outcomes = self.backend.run_scenarios(
            to_run,
            series=want_series,
            grid_dt=self.store.series_dt if want_series else self.series_dt,
            retry=self.retry,
            timeout=self.timeout,
            checkpoints=self.checkpoints if use_ckpt else None,
            counts=counts,
            profile_dir=None if self.profile_dir is None else str(self.profile_dir),
        )
        for index, outcome in outcomes:
            if isinstance(outcome, TaskFailure):
                record_failure(to_run[index], outcome)
            else:
                collect_result(to_run[index], outcome)

        # Defensive accounting: every deduped scenario must come back
        # as a result or a failure — a backend that silently drops one
        # is a bug worth naming precisely.
        missing = sorted(
            h
            for h, slots in slot_of.items()
            if results[slots[0]] is None and h not in failed
        )
        if missing:  # pragma: no cover - defensive
            raise SweepError(
                f"backend {self.backend.name!r} dropped {len(missing)} "
                f"scenario(s) without result or failure: {', '.join(missing)}",
                report.failures,
            )

        report.results = [r for r in results if r is not None]
        report.wall_seconds = time.perf_counter() - t_sweep
        report.store_health = self.store.health.to_dict()
        return report
