"""Experiment harness: declarative scenarios, pluggable grid runs.

The subsystem behind ``repro exp run/list/compare``:

* :class:`Scenario` / :class:`CapWindow` — declarative replay specs
  with stable content-hash identity, plus deterministic shard
  selection (:mod:`repro.exp.spec`);
* :class:`ExecutionBackend` — where scenarios execute: in-process
  (:class:`BatchBackend`) or on a ``multiprocessing`` pool, longest
  estimated unit first (:class:`PoolBackend`; the estimates are a
  pure function of the specs, :mod:`repro.exp.costmodel`), cell by
  cell or in lockstep groups of same-platform scenarios, or one shard
  of a split sweep (:class:`ShardedBackend`)
  (:mod:`repro.exp.backends`);
* :class:`ResultStore` — where results persist: an in-memory memo
  (:class:`MemoryStore`) or one JSON/``.npz`` directory
  (:class:`DirectoryStore`) that concurrent writers — threads,
  processes, machines on a network filesystem — may share; the
  ``dir:PATH`` and ``shared:PATH`` specs both name it
  (:mod:`repro.exp.store`);
* :class:`CheckpointStore` — persistent content-addressed warm-start
  prefixes: the batch replay's fork state as a durable artifact, restored
  bit-identically across runs, backends, and machines, in memory or
  in a :class:`DirectoryCheckpointStore` on the same file layer as
  :class:`DirectoryStore` (:mod:`repro.exp.checkpoints`);
* :func:`run_scenario` / :class:`GridRunner` — pure orchestration:
  dedupe → store lookup → backend submit → store write → aggregate
  (:mod:`repro.exp.runner`);
* fault tolerance — deterministic fault injection
  (:class:`FaultPlan`, :mod:`repro.exp.faults`), retry/timeout/
  quarantine semantics and structured sweep outcomes
  (:class:`RetryPolicy`, :class:`SweepReport`,
  :mod:`repro.exp.resilience`): each sweep keeps one
  :class:`collections.Counter`, and the report's hit, execution,
  retry, warm-start, transfer and group counts are views of it;
* :data:`SCENARIO_LIBRARY` — named, ready-to-run scenarios
  (:mod:`repro.exp.library`);
* aggregation and shard merging into the Figure 8 reporting layer
  (:mod:`repro.exp.aggregate`).
"""

from repro.exp.spec import (
    CapWindow,
    Scenario,
    expand_grid,
    parse_shard,
    shard_index,
    shard_scenarios,
)
from repro.exp.backends import (
    BatchBackend,
    ExecutionBackend,
    PoolBackend,
    ShardedBackend,
    make_backend,
)
from repro.exp.costmodel import (
    GroupEstimate,
    assign_workers,
    lpt_order,
    plan_table,
)
from repro.exp.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
    InjectedTransient,
    injected,
    install_plan,
    parse_fault_plan,
)
from repro.exp.resilience import (
    FAILURE_KINDS,
    ON_ERROR_MODES,
    FailureRecord,
    RetryPolicy,
    SweepError,
    SweepReport,
    TaskFailure,
)
from repro.exp.store import (
    DirectoryStore,
    MemoryStore,
    ResultStore,
    StoreHealth,
    make_store,
    result_key,
)
from repro.exp.checkpoints import (
    CheckpointStore,
    DirectoryCheckpointStore,
    MemoryCheckpointStore,
    WarmStart,
    checkpoint_group,
    checkpoint_key,
    make_checkpoint_store,
)
from repro.exp.runner import (
    GridRunner,
    RunResult,
    replay_scenario,
    run_scenario,
    run_scenario_with_series,
    scenario_series,
    trace_digest,
)
from repro.exp.library import (
    PAPER_GRID_ROWS,
    SCENARIO_LIBRARY,
    get_scenario,
    paper_grid_scenarios,
    scenario_names,
)
from repro.exp.aggregate import (
    cell_from_result,
    compare_results,
    merge_results,
    render_results_grid,
    results_table,
    results_to_cells,
)
from repro.exp.shm import (
    GroupEnvelope,
    SharedArena,
    ShmPayload,
    ShmView,
    set_shm_enabled,
    shm_available,
)

__all__ = [
    "CapWindow",
    "Scenario",
    "expand_grid",
    "parse_shard",
    "shard_index",
    "shard_scenarios",
    "ExecutionBackend",
    "BatchBackend",
    "PoolBackend",
    "ShardedBackend",
    "make_backend",
    "GroupEstimate",
    "assign_workers",
    "lpt_order",
    "plan_table",
    "ResultStore",
    "MemoryStore",
    "DirectoryStore",
    "StoreHealth",
    "make_store",
    "result_key",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "DirectoryCheckpointStore",
    "WarmStart",
    "checkpoint_group",
    "checkpoint_key",
    "make_checkpoint_store",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedCrash",
    "InjectedHang",
    "InjectedTransient",
    "injected",
    "install_plan",
    "parse_fault_plan",
    "FAILURE_KINDS",
    "ON_ERROR_MODES",
    "FailureRecord",
    "RetryPolicy",
    "SweepError",
    "SweepReport",
    "TaskFailure",
    "GroupEnvelope",
    "SharedArena",
    "ShmPayload",
    "ShmView",
    "set_shm_enabled",
    "shm_available",
    "GridRunner",
    "RunResult",
    "replay_scenario",
    "run_scenario",
    "run_scenario_with_series",
    "scenario_series",
    "trace_digest",
    "PAPER_GRID_ROWS",
    "SCENARIO_LIBRARY",
    "get_scenario",
    "paper_grid_scenarios",
    "scenario_names",
    "cell_from_result",
    "compare_results",
    "merge_results",
    "render_results_grid",
    "results_table",
    "results_to_cells",
]
