"""Per-layer spans, measured from outside the program.

The benchmark never edits ``src/``: it replaces each layer entry point
listed in :data:`HOOKS` with a timing wrapper for the duration of one
traced repetition, then restores the original.  A span's *self* time
is its duration minus the spans nested inside it, so the self times of
all layers in one process add up to the outermost span.

Pool workers inherit the wrappers through ``fork``.  Their spans are
flushed after every task (``_run_task`` / ``_run_group_task``) to
``spans-<pid>.jsonl`` in the tracer's directory, and
:meth:`Tracer.worker_totals` merges those files for the driver.  The
wrappers keep ``__module__``/``__qualname__`` (``functools.wraps``), so
tasks still pickle by reference to the wrapped attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path
from typing import Any, Callable

#: (module, attribute path, span name, kind) for every hooked entry
#: point.  Kinds: ``span`` (plain call), ``engine`` (also counts the
#: events the call processed), ``task`` (an execution unit; flushes
#: worker spans when it ends), ``gen`` (a generator whose resumptions
#: are the execution unit).
HOOKS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "SimEngine.run", "engine", "engine"),
    ("repro.sim.engine", "SimEngine.run_before", "batch.prefix", "engine"),
    ("repro.rjms.controller", "Controller._sched_pass", "controller.pass", "span"),
    ("repro.rjms.controller", "Controller.submit", "controller.submit", "span"),
    ("repro.rjms.queue", "PendingQueue.order", "queue.order", "span"),
    ("repro.cluster.power", "PowerAccountant.set_state", "accountant.set_state", "span"),
    ("repro.sim.metrics", "MetricsRecorder.sample", "recorder.sample", "span"),
    ("repro.sim.metrics", "MetricsRecorder.to_grid", "recorder.to_grid", "span"),
    ("repro.sim.metrics", "MetricsRecorder.energy_joules", "recorder.integrals", "span"),
    ("repro.sim.metrics", "MetricsRecorder.work_core_seconds", "recorder.integrals", "span"),
    ("repro.sim.metrics", "MetricsRecorder.job_energy_joules", "recorder.integrals", "span"),
    (
        "repro.sim.metrics",
        "MetricsRecorder.effective_work_core_seconds",
        "recorder.integrals",
        "span",
    ),
    ("repro.exp.spec", "build_workload", "workload.build", "span"),
    ("repro.sim.batch", "capture_fork_state", "batch.capture", "span"),
    ("repro.sim.batch", "install_fork_state", "batch.install", "span"),
    ("repro.exp.runner", "trace_digest", "runner.digest", "span"),
    ("repro.exp.runner", "_run_task", "task.solo", "task"),
    ("repro.exp.runner", "_run_group_task", "task.group", "task"),
    ("repro.exp.backends", "BatchBackend.run_scenarios", "task.batch", "gen"),
    ("repro.exp.runner", "GridRunner.sweep", "driver", "span"),
    ("repro.exp.store", "MemoryStore.get", "store.get", "span"),
    ("repro.exp.store", "MemoryStore.put", "store.put", "span"),
    ("repro.exp.store", "DirectoryStore.get", "store.get", "span"),
    ("repro.exp.store", "DirectoryStore.get_series", "store.get", "span"),
    ("repro.exp.store", "DirectoryStore.put", "store.put", "span"),
    ("repro.exp.store", "DirectoryStore.put_series", "store.put", "span"),
    ("repro.exp.checkpoints", "DirectoryCheckpointStore.best", "ckpt.best", "span"),
    ("repro.exp.checkpoints", "DirectoryCheckpointStore.get", "ckpt.get", "span"),
    ("repro.exp.checkpoints", "DirectoryCheckpointStore.put", "ckpt.put", "span"),
    ("repro.exp.shm", "SharedArena.place", "shm.place", "span"),
    ("repro.exp.shm", "SharedArena.adopt", "shm.adopt", "span"),
    ("repro.exp.shm", "GroupEnvelope.resolve", "shm.resolve", "span"),
)

#: span names whose self time is the execution unit's own overhead
TASK_SPANS = ("task.solo", "task.group", "task.batch")


def _resolve(module: str, path: str) -> tuple[Any, str, Any]:
    """The object holding a hooked attribute, its name, and its value.

    A class attribute must be defined on that class itself: wrapping an
    inherited one would shadow it on the subclass only.
    """
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, value


def check_hooks() -> None:
    """Fail loudly if any hooked entry point is missing or not callable.

    A rename in ``src/`` must break the benchmark, not silently drop a
    layer from the breakdown.
    """
    missing = []
    for module, path, _name, _kind in HOOKS:
        try:
            ok = callable(_resolve(module, path)[2])
        except (ImportError, AttributeError, KeyError):
            ok = False
        if not ok:
            missing.append(f"{module}.{path}")
    if missing:
        raise RuntimeError(
            "layer hooks missing or not callable: " + ", ".join(missing)
        )


class Tracer:
    """Aggregated self/inclusive time and call count per span name.

    Spans are folded into per-name totals as they close rather than
    kept one by one: the hottest layers run hundreds of thousands of
    calls per replay.
    """

    def __init__(self, flush_dir: str | Path) -> None:
        self.flush_dir = Path(flush_dir)
        self.pid = os.getpid()
        #: name -> [self_s, incl_s, calls]
        self.totals: dict[str, list] = {}
        #: name -> exact count (events processed)
        self.counts: dict[str, int] = {}
        #: child-time accumulators of the open spans, innermost last
        self.stack: list[float] = []
        self._saved: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked worker starts with empty totals and no open spans;
        # the driver's open sweep span is not the worker's parent.
        self.totals.clear()
        self.counts.clear()
        self.stack.clear()

    # -- wrappers ---------------------------------------------------------------------

    def _close(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        stack = self.stack
        child = stack.pop()
        acc = self.totals.get(name)
        if acc is None:
            acc = self.totals[name] = [0.0, 0.0, 0]
        acc[0] += dt - child
        acc[1] += dt
        acc[2] += 1
        if stack:
            stack[-1] += dt

    def _wrap(self, fn: Callable, name: str, kind: str) -> Callable:
        stack, close, perf = self.stack, self._close, time.perf_counter

        if kind == "gen":

            @functools.wraps(fn)
            def gen_span(*args: Any, **kwargs: Any) -> Any:
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(name, t0)
                    yield item

            return gen_span

        if kind == "engine":
            counts = self.counts

            @functools.wraps(fn)
            def engine_span(engine: Any, *args: Any, **kwargs: Any) -> Any:
                before = engine.processed_events
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(engine, *args, **kwargs)
                finally:
                    close(name, t0)
                    counts["engine.events"] = (
                        counts.get("engine.events", 0)
                        + engine.processed_events
                        - before
                    )

            return engine_span

        if kind == "task":
            flush = self.flush

            @functools.wraps(fn)
            def task_span(*args: Any, **kwargs: Any) -> Any:
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(name, t0)
                    if not stack:
                        flush()

            return task_span

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, t0)

        return span

    # -- lifecycle --------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every hooked entry point (call before any pool forks)."""
        check_hooks()
        for module, path, name, kind in HOOKS:
            owner, attr, original = _resolve(module, path)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        """Restore the original entry points."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def flush(self) -> None:
        """Worker side: append this process's totals to its span file
        and start afresh.  A no-op in the driver, whose totals are read
        in memory."""
        if os.getpid() == self.pid or not (self.totals or self.counts):
            return
        line = json.dumps({"totals": self.totals, "counts": self.counts})
        path = self.flush_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self.totals.clear()
        self.counts.clear()

    def worker_totals(self) -> tuple[dict[str, list], dict[str, int]]:
        """Merge every worker span file under the flush directory."""
        totals: dict[str, list] = {}
        counts: dict[str, int] = {}
        for path in sorted(self.flush_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                for name, (self_s, incl_s, calls) in rec["totals"].items():
                    acc = totals.setdefault(name, [0.0, 0.0, 0])
                    acc[0] += self_s
                    acc[1] += incl_s
                    acc[2] += calls
                for name, n in rec["counts"].items():
                    counts[name] = counts.get(name, 0) + n
        return totals, counts
