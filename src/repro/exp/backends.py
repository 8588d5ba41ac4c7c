"""Execution backends: where the deduped scenarios of a sweep run.

Two executors share one contract, ``run_scenarios``: split the
scenarios into **units** — a lockstep group of two or more cells (same
cap-free content, same platform; see :meth:`BatchBackend.group_key`)
when grouping is on, else one cell — run every unit, and yield
``(index, outcome)`` pairs, where the outcome is the cell's
:class:`~repro.exp.runner.RunResult` (``(RunResult, series)`` with
series) or a :class:`~repro.exp.resilience.TaskFailure`.  Retries,
group tallies and transfer bytes go into the sweep's ``counts``
(:attr:`~repro.exp.resilience.SweepReport.counts`) as they happen.

* :class:`BatchBackend` runs the units in this process through
  :func:`repro.exp.runner._replay_unit`, the replay the pool's tasks
  also run: a group once, a cell as a batch of one with in-process
  retries.
* :class:`PoolBackend` runs every unit on a worker of a
  :class:`concurrent.futures.ProcessPoolExecutor` as
  :func:`~repro.exp.runner._run_group_task` or
  :func:`~repro.exp.runner._run_task`, in cost-model LPT order, and
  **survives worker death**: a crashed worker breaks the executor,
  which is respawned; in-flight cells are requeued and crash
  attribution is settled by re-running the suspects one at a time, so
  a poison scenario is charged (and eventually quarantined) while
  innocent bystanders are not.  A unit that outlives its timeout is
  presumed hung: the workers are killed, the pool respawned, the
  offender charged.  A group is never retried as a group: any failure
  degrades it into solo units in the same queue, where the per-cell
  rules above attribute it exactly.

The four CLI names are the four (grouped?, parallel?) corners:
``serial`` and ``batch`` run in-process, ``pool`` and ``batch-pool``
on ``workers`` processes (:func:`make_backend`).  :class:`ShardedBackend`
filters the scenarios a backend owns.  Every unit replays the
identical scenario specs, so *which* backend ran a scenario can never
change the result — the golden trace digests pin this bit-for-bit.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import time
import warnings
import weakref
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Collection, Iterator, Sequence

from repro.exp import faults as _faults
from repro.exp import shm as _shm
from repro.exp.costmodel import GroupEstimate, assign_workers, estimate_group
from repro.exp.resilience import (
    RetryPolicy,
    TaskFailure,
    TaskOutcome,
    run_with_retry,
)
from repro.exp.spec import Scenario, parse_shard, shard_index
from repro.exp.store import DEFAULT_SERIES_DT


class ExecutionBackend:
    """Duck-typed protocol of a harness execution backend."""

    #: human label (CLI/diagnostics)
    name: str = "backend"

    def owns(self, scenario_hash: str) -> bool:
        """Whether this backend executes the scenario with this content
        hash.  Full backends own everything; sharded ones a slice."""
        return True

    def run_scenarios(
        self, scenarios: Sequence[Scenario], **kwargs: Any
    ) -> Iterator[TaskOutcome]:
        """Execute ``scenarios`` (deduped by the runner); yields
        ``(index, outcome)`` pairs in no particular order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; must be idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _units(
    scenarios: Sequence[Scenario], grouped: bool, solo: Collection[int] = ()
) -> list[tuple[int, ...]]:
    """Index tuples of the execution units in first-appearance order:
    lockstep groups (singletons included) when ``grouped``, single
    cells otherwise.  Cells in ``solo`` always form units of one."""
    if not grouped:
        return [(i,) for i in range(len(scenarios))]
    groups: dict[Any, list[int]] = {}
    for i, sc in enumerate(scenarios):
        groups.setdefault(i if i in solo else BatchBackend.group_key(sc), []).append(i)
    return [tuple(idxs) for idxs in groups.values()]


def _count_units(units: Sequence[tuple[int, ...]], counts: Counter) -> None:
    """Count the groups and singletons of a grouped run.  The keys go
    in even when zero: their presence is what makes
    :attr:`SweepReport.groups` non-empty."""
    multi = [u for u in units if len(u) > 1]
    counts.update(
        {
            "groups.n_groups": len(multi),
            "groups.n_batched_cells": sum(len(u) for u in multi),
            "groups.n_singletons": len(units) - len(multi),
        }
    )


def place_units(
    scenarios: Sequence[Scenario], grouped: bool, workers: int
) -> list[tuple[GroupEstimate, int]]:
    """The pool's schedule: every unit's cost estimate and the worker
    its greedy LPT placement predicts, in dispatch order.  Lockstep
    groups and singletons share the one queue.  ``repro exp run
    --plan`` prints exactly this."""
    return assign_workers(
        [estimate_group(scenarios, u) for u in _units(scenarios, grouped)],
        workers,
    )


class BatchBackend(ExecutionBackend):
    """The in-process executor: ``batch`` when grouped, ``serial`` not.

    Grouped, scenarios that differ only in their cap windows — the
    shape of a powercap sweep — replay as one lockstep group through
    :func:`repro.sim.batch.run_replay_batch`: the pre-window prefix is
    replayed once and forked, then each cell runs alone.  Ungrouped,
    every cell is a batch of one.  Results are bit-identical to
    independent replays — the golden digests pin this.

    **Graceful degradation**: a cell with an armed fault plan entry is
    kept out of its group (its faults fire on the solo path, where
    they are retryable/quarantinable), and a lockstep replay that
    raises degrades every cell of its group to solo re-runs — one bad
    cell can cost its group the lockstep speedup, never their results.
    """

    def __init__(self, grouped: bool = True) -> None:
        self.grouped = bool(grouped)

    @property
    def name(self) -> str:
        return "batch" if self.grouped else "serial"

    @staticmethod
    def group_key(scenario: Scenario) -> tuple[str, str]:
        """Batching key: everything but the caps, platform by content."""
        from repro.platform import get_platform

        return (
            scenario.with_(caps=()).scenario_hash(),
            get_platform(scenario.platform).content_hash(),
        )

    def run_scenarios(
        self,
        scenarios: Sequence[Scenario],
        *,
        series: bool = False,
        grid_dt: float = DEFAULT_SERIES_DT,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        checkpoints: Any = None,
        counts: Counter,
        profile_dir: str | None = None,
    ) -> Iterator[TaskOutcome]:
        """Execute ``scenarios`` unit by unit in this process.

        ``checkpoints`` threads the runner's warm-start store through
        every unit — a group of one still reuses (and seeds) the shared
        prefix — and every count goes straight into ``counts``.
        ``timeout`` cannot be enforced in-process (nothing preempts a
        running replay from inside its own process), so it warns and
        points at the pool backends.
        """
        from repro.exp import runner

        if timeout is not None:
            warnings.warn(
                f"the in-process {self.name} backend cannot enforce "
                "per-scenario timeouts (a running replay cannot be "
                "preempted from its own process); the timeout is ignored "
                "— use --backend pool or batch-pool with --workers > 1 to "
                "run under the pool's hung-worker kill path",
                RuntimeWarning,
                stacklevel=3,
            )
        plan = _faults.active_plan()
        faulty = {
            i
            for i, sc in enumerate(scenarios)
            if plan is not None and plan.fault_for(sc.scenario_hash()) is not None
        }
        units = _units(scenarios, self.grouped, faulty)
        if self.grouped:
            _count_units(units, counts)
        replay = partial(
            runner._replay_unit,
            series=series,
            grid_dt=grid_dt,
            checkpoints=checkpoints,
            counts=counts,
            profile_dir=profile_dir,
        )
        for unit in units:
            if len(unit) > 1:
                try:
                    payloads = replay([scenarios[i] for i in unit])
                except Exception:  # noqa: BLE001 - degrade, don't lose the group
                    # The failure has no single owner yet; solo re-runs
                    # attribute (and retry) it exactly.
                    counts["groups.n_degraded_groups"] += 1
                else:
                    yield from zip(unit, payloads)
                    continue
            for i in unit:
                outcome, retries = run_with_retry(
                    partial(replay, [scenarios[i]]),
                    label=scenarios[i].scenario_hash(),
                    retry=retry,
                )
                counts["retries"] += retries
                yield i, (outcome if isinstance(outcome, TaskFailure) else outcome[0])


#: pools that must not survive interpreter shutdown (see _atexit_reap)
_LIVE_POOL_BACKENDS: "weakref.WeakSet[PoolBackend]" = weakref.WeakSet()
_REAPER_REGISTERED = False


def _atexit_reap() -> None:  # pragma: no cover - interpreter shutdown
    """Terminate pools that were never closed.

    Runs while the interpreter is still intact (unlike ``__del__`` at
    GC time, which could fire after multiprocessing's own machinery was
    torn down and spray ResourceWarnings).  ``terminate`` rather than
    ``close``: an abandoned pool's workers may be mid-task (or hung),
    and exit must not wait on them.
    """
    for backend in list(_LIVE_POOL_BACKENDS):
        try:
            backend._shutdown(terminate=True)
        except Exception:
            pass  # shutdown noise must never mask the real exit status


class PoolBackend(ExecutionBackend):
    """The pool executor: ``batch-pool`` when grouped, ``pool`` not.

    Parameters
    ----------
    workers:
        Process count.  Every unit runs on a worker, even with one
        worker or one unit, so ``timeout`` is always enforceable and a
        crash never reaches the driver.
    grouped:
        Dispatch lockstep groups whole (:func:`_run_group_task`) instead
        of one cell per task.
    mp_context:
        Start method; default picks ``fork`` where available (cheap,
        and harmless here: workers rebuild every scenario from its
        spec, so inherited state cannot leak into results) and
        ``spawn`` elsewhere.

    The pool lives for one :meth:`run_scenarios` call; :meth:`close`
    is idempotent, and leaked pools are terminated by one ``atexit``
    hook, never by ``__del__``.
    """

    #: poll interval of the dispatch loop (timeout checks), seconds
    _TICK = 0.25

    def __init__(
        self,
        workers: int | None = None,
        *,
        grouped: bool = False,
        mp_context: str | None = None,
    ) -> None:
        self.workers = max(1, int(workers) if workers is not None else 1)
        self.grouped = bool(grouped)
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._pool_size = 0
        #: pool respawns forced by worker death or hung-task kills
        self.n_respawns = 0
        #: driver-owned shm segment-name prefix: every segment this
        #: backend's workers place carries it, so killed workers'
        #: orphans are enumerable (and reaped on respawn/shutdown)
        self._shm_prefix = _shm.new_prefix()

    @property
    def name(self) -> str:
        return "batch-pool" if self.grouped else "pool"

    def _get_pool(self, n: int) -> ProcessPoolExecutor:
        """The live pool, created with ``min(workers, n)`` processes."""
        global _REAPER_REGISTERED
        if self._pool is None:
            self._pool_size = min(self.workers, max(n, 1))
            ctx = multiprocessing.get_context(self.mp_context)
            self._pool = ProcessPoolExecutor(
                max_workers=self._pool_size, mp_context=ctx
            )
            _LIVE_POOL_BACKENDS.add(self)
            if not _REAPER_REGISTERED:
                atexit.register(_atexit_reap)
                _REAPER_REGISTERED = True
        return self._pool

    def _shutdown(self, *, terminate: bool) -> None:
        pool, self._pool = self._pool, None
        _LIVE_POOL_BACKENDS.discard(self)
        if pool is not None:
            if terminate:
                procs = list(getattr(pool, "_processes", {}).values())
                for proc in procs:
                    try:
                        proc.terminate()
                    except Exception:  # pragma: no cover - already dead
                        pass
                pool.shutdown(wait=False, cancel_futures=True)
                for proc in procs:
                    # Bounded join: reaping below must not race a
                    # worker that is still dying mid-segment-write.
                    try:
                        proc.join(1.0)
                    except Exception:  # pragma: no cover - already reaped
                        pass
            else:
                pool.shutdown(wait=True, cancel_futures=False)
        # The workers are dead (or joined, or never existed): any
        # segment still carrying this backend's prefix was placed by a
        # worker whose descriptor never reached the driver — reclaim it
        # now rather than leak it until reboot.
        _shm.reap_prefix(self._shm_prefix)

    def _respawn(self, n: int) -> None:
        """Replace a broken/hung pool with a fresh one.  ``_shutdown``
        reaps the killed workers' orphaned shm segments before the
        fresh pool forks."""
        self.n_respawns += 1
        self._shutdown(terminate=True)
        self._get_pool(n)

    def close(self) -> None:
        """Shut the pool down; safe to call any number of times, and
        after a ``BrokenProcessPool`` already killed the workers."""
        self._shutdown(terminate=False)

    def run_scenarios(
        self,
        scenarios: Sequence[Scenario],
        *,
        series: bool = False,
        grid_dt: float = DEFAULT_SERIES_DT,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        checkpoints: Any = None,
        counts: Counter,
        profile_dir: str | None = None,
    ) -> Iterator[TaskOutcome]:
        """The crash-surviving dispatch loop over every unit.

        State per unit: ``execs`` (how many times it started — the
        ``attempt`` number fault plans key on) and ``charges``
        (failures attributed to *it*, judged against the retry
        budget); the two differ exactly when a pool break kills
        innocent bystanders, which re-execute uncharged.  On a pool
        break a lone solo suspect is charged (``kind="crash"``), other
        solo suspects re-run isolated (one in flight at a time) and
        suspect groups degrade.  On a timeout — a group's budget is
        ``timeout`` times its cell count — only the offender is
        charged (or degraded); the other in-flight units requeue.
        Every re-execution of a solo unit counts as a retry, charged or
        not; each task's own counter is merged into ``counts``.
        """
        from repro.exp import runner
        from repro.platform import get_platform

        policy = retry if retry is not None else RetryPolicy(max_attempts=1)
        plan = _faults.active_plan()
        specs = {
            name: get_platform(name).to_dict()
            for name in dict.fromkeys(sc.platform for sc in scenarios)
        }
        common = dict(
            series=series,
            grid_dt=grid_dt,
            faults=plan.to_dict() if plan is not None else None,
            checkpoints=checkpoints,
            profile_dir=profile_dir,
            shm_prefix=self._shm_prefix if series else None,
        )
        # LPT order: heavy units first, so the makespan approaches
        # total/workers.  Dispatch stays dynamic, so a wrong estimate
        # costs order, never correctness.
        units = [
            est.indices
            for est, _ in place_units(scenarios, self.grouped, self.workers)
        ]
        if self.grouped:
            _count_units(units, counts)
        execs = [0] * len(units)
        charges = [0] * len(units)
        # (unit, ready_at) queues: wide dispatch runs through
        # `pending`, crash attribution through `isolate`.
        pending = deque((u, 0.0) for u in range(len(units)))
        isolate: deque[tuple[int, float]] = deque()
        inflight: dict[Any, tuple[int, float]] = {}  # future -> (unit, started)
        tick = self._TICK
        if timeout is not None:
            tick = max(0.01, min(tick, timeout / 5))
        # Degraded groups become cells, so no more than one process per
        # cell can ever be busy.
        n_procs = len(scenarios)

        def submit(u: int) -> None:
            execs[u] += 1
            cells = [scenarios[i] for i in units[u]]
            if len(cells) > 1:
                fn, item = runner._run_group_task, _shm.GroupEnvelope.pack(cells)
            else:
                fn, item = runner._run_task, cells[0]
            names = dict.fromkeys(sc.platform for sc in cells)
            task = partial(
                fn,
                platforms=tuple(specs[name] for name in names),
                attempt=execs[u],
                **common,
            )
            # Charge what actually crosses the pipe.
            counts["transfer.bytes_shipped"] += len(pickle.dumps((task, item)))
            inflight[self._get_pool(n_procs).submit(task, item)] = (u, time.monotonic())

        def degrade(u: int) -> None:
            """A group is never retried as a group: its cells requeue
            as fresh solo units."""
            counts["groups.n_degraded_groups"] += 1
            for i in units[u]:
                units.append((i,))
                execs.append(0)
                charges.append(0)
                pending.append((len(units) - 1, 0.0))

        def charge(u: int, exc: BaseException | None, kind: str) -> TaskFailure | None:
            """Attribute one failure to solo unit ``u``: requeue it
            isolated after its backoff, or fail it for good."""
            charges[u] += 1
            retryable = exc is None or policy.is_retryable(exc)
            if retryable and charges[u] < policy.max_attempts:
                counts["retries"] += 1
                label = scenarios[units[u][0]].scenario_hash()
                delay = policy.backoff(label, charges[u])
                isolate.append((u, time.monotonic() + delay))
                return None
            return TaskFailure(
                kind=kind,
                error_type=type(exc).__name__ if exc is not None else kind,
                message=(
                    str(exc)
                    if exc is not None
                    else f"worker died executing this scenario "
                    f"({charges[u]} attempt(s))"
                    if kind == "crash"
                    else f"scenario exceeded its {timeout:g}s timeout "
                    f"({charges[u]} attempt(s))"
                ),
                attempts=charges[u],
                exception=exc,
            )

        def fail(u: int, exc: BaseException | None, kind: str) -> Iterator[TaskOutcome]:
            if len(units[u]) > 1:
                degrade(u)
                return
            failure = charge(u, exc, kind)
            if failure is not None:
                yield units[u][0], failure

        def ready(queue: deque[tuple[int, float]]) -> int | None:
            if queue and queue[0][1] <= time.monotonic():
                return queue.popleft()[0]
            return None

        try:
            if units:
                self._get_pool(n_procs)
            while pending or isolate or inflight:
                if isolate:
                    if not inflight:
                        u = ready(isolate)
                        if u is not None:
                            submit(u)
                else:
                    while len(inflight) < self._pool_size:
                        u = ready(pending)
                        if u is None:
                            break
                        submit(u)
                if not inflight:
                    # Backoff gap: nothing running, nothing ready yet.
                    queue = isolate or pending
                    time.sleep(
                        max(0.0, min(queue[0][1] - time.monotonic(), tick))
                        if queue
                        else tick
                    )
                    continue

                done, _ = wait(set(inflight), timeout=tick, return_when=FIRST_COMPLETED)
                suspects: list[int] | None = None
                for fut in done:
                    u, _started = inflight.pop(fut)
                    try:
                        task_counts, payloads = fut.result()
                    except BrokenProcessPool:
                        suspects = [u] + [v for v, _ in inflight.values()]
                        inflight.clear()
                        break
                    except Exception as exc:  # noqa: BLE001 - classified by policy
                        yield from fail(u, exc, "error")
                        continue
                    counts.update(task_counts)
                    yield from zip(units[u], payloads)

                if suspects is not None:
                    self._respawn(n_procs)
                    if len(suspects) == 1:
                        # Definite attribution: the lone in-flight unit
                        # killed its worker.
                        yield from fail(suspects[0], None, "crash")
                        continue
                    for v in suspects:
                        if len(units[v]) > 1:
                            degrade(v)
                        else:
                            # Ambiguous: isolate, uncharged (the re-run
                            # still counts as a retry in the report).
                            counts["retries"] += 1
                            isolate.append((v, 0.0))
                    continue

                if timeout is not None and inflight:
                    now = time.monotonic()
                    expired = {
                        fut
                        for fut, (u, started) in inflight.items()
                        if now - started > timeout * len(units[u]) and not fut.done()
                    }
                    if expired:
                        # Presumed hung: kill the whole pool (a single
                        # worker cannot be detached), requeue the
                        # innocent in-flight units, charge the offenders.
                        innocents = [
                            u for fut, (u, _s) in inflight.items() if fut not in expired
                        ]
                        offenders = [inflight[fut][0] for fut in expired]
                        inflight.clear()
                        self._respawn(n_procs)
                        for u in reversed(innocents):
                            if len(units[u]) == 1:
                                counts["retries"] += 1
                            pending.appendleft((u, 0.0))
                        for u in offenders:
                            yield from fail(u, None, "timeout")
        finally:
            self.close()


class ShardedBackend(ExecutionBackend):
    """A deterministic ``index/count`` slice of the grid.

    Shard membership is a pure function of the scenario content hash
    (:func:`repro.exp.spec.shard_index`), so every participant of a
    split sweep — other CI jobs, other machines — agrees on the
    partition without talking to each other, duplicates of one
    scenario always land in one shard, and the union of all shards is
    exactly the full grid.  Execution of the owned slice is delegated
    to ``inner`` (in-process serial by default).
    """

    def __init__(
        self,
        index: int,
        count: int,
        *,
        inner: ExecutionBackend | None = None,
    ) -> None:
        if count < 1:
            raise ValueError("shard count must be >= 1")
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} outside 0..{count - 1}")
        self.index = int(index)
        self.count = int(count)
        self.inner = inner if inner is not None else BatchBackend(grouped=False)
        self.name = f"shard {index + 1}/{count} on {self.inner.name}"

    def owns(self, scenario_hash: str) -> bool:
        return shard_index(scenario_hash, self.count) == self.index

    def run_scenarios(
        self, scenarios: Sequence[Scenario], **kwargs: Any
    ) -> Iterator[TaskOutcome]:
        return self.inner.run_scenarios(scenarios, **kwargs)

    def close(self) -> None:
        self.inner.close()


#: CLI names of the full backends
BACKEND_NAMES = ("serial", "pool", "batch", "batch-pool")


def make_backend(
    name: str | None = None,
    *,
    workers: int | None = None,
    mp_context: str | None = None,
    shard: str | tuple[int, int] | None = None,
) -> ExecutionBackend:
    """Build a backend from CLI-style arguments.

    ``name`` is ``serial``, ``pool``, ``batch`` or ``batch-pool``
    (``None`` picks ``pool`` when ``workers > 1``, ``serial``
    otherwise): the ``batch`` names group lockstep cells, the ``pool``
    names run on ``workers`` processes — in-process when ``workers <=
    1``.  ``shard`` — ``"k/n"`` or an ``(index, count)`` pair — wraps
    the result in a :class:`ShardedBackend` owning that slice.
    """
    n_workers = int(workers) if workers is not None else 1
    if name is None:
        name = "pool" if n_workers > 1 else "serial"
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    grouped = name.startswith("batch")
    if name.endswith("pool") and n_workers > 1:
        base: ExecutionBackend = PoolBackend(
            n_workers, grouped=grouped, mp_context=mp_context
        )
    else:
        base = BatchBackend(grouped=grouped)
    if shard is None:
        return base
    index, total = parse_shard(shard) if isinstance(shard, str) else shard
    if total == 1 and index == 0:
        return base  # 1/1 is the whole grid: no wrapper needed
    return ShardedBackend(index, total, inner=base)
