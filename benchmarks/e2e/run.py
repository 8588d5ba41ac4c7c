#!/usr/bin/env python3
"""End-to-end sweep benchmark with a per-layer breakdown.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S]
                                  [--trace 0|1] [--json OUT]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs in
turn.  A workload's run lasts ``run_seconds`` from ``BENCHMARK.json``
(``--seconds`` is accepted only with that value).  In that window, in
subprocesses of their own: ``warm-rerun`` seeds its stores; at any
seed but 0 the reference cells re-run cold on the serial path; then
the measuring process builds its inputs (set-up) and repeats
``GridRunner.sweep`` on a fresh runner until the window closes.  With
``--trace 0``, two more subprocesses before the window only time their
set-up, so ``setup_s`` is a median of three.  With ``--trace 1`` every
repetition is paired with one that has every layer entry point wrapped
in a timing span (see ``spans.py``), which gives the per-layer numbers.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spans import TASK_SPANS  # noqa: E402  (stdlib-only module beside this file)

#: scratch space for store directories and span files, inside the checkout
SCRATCH = ROOT / ".bench_e2e"
SETUP_MARK = "@setup-done"

#: per-layer times reported in seconds (every workload runs these layers)
TIME_LAYERS = {
    "engine": "engine.self_s",
    "controller.pass": "controller.pass_s",
    "controller.submit": "controller.submit_s",
    "queue.order": "queue.order_s",
    "accountant.set_state": "accountant.set_state_s",
    "recorder.sample": "recorder.sample_s",
    "recorder.integrals": "recorder.integrals_s",
    "runner.digest": "runner.digest_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
}
#: layers only some workloads run, reported as a share of the traced
#: wall (driver side) plus a share of the worker busy time (worker side)
SHARE_LAYERS = (
    "batch.prefix",
    "batch.capture",
    "batch.install",
    "recorder.to_grid",
    "ckpt.best",
    "ckpt.get",
    "ckpt.put",
    "shm.place",
    "shm.adopt",
    "shm.resolve",
)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- child: one workload in a fresh interpreter ----------------------------------------


def _stop_resource_tracker() -> None:
    """Stop (and wait for) the tracker process shared memory starts."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def child_main(args: argparse.Namespace) -> int:
    import spans
    import workloads as W

    spans.check_hooks()
    wl = W.WORKLOADS[args.child]
    try:
        if args.mode == "seed":
            print(json.dumps(W.seed_stores(wl, args.seed, args.smoke, Path(args.dir))))
            return 0
        cells = wl.cells(args.seed, args.smoke)
        if args.mode == "reference":
            print(json.dumps(W.reference_digests(cells)))
            return 0
        gen_s = W.generate(cells)
        SCRATCH.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=SCRATCH))
        try:
            W.make_runner(wl, tmp / "probe").close()
            print(SETUP_MARK, flush=True)
            if args.mode == "setup":
                return 0
            seeded = Path(args.dir) if args.dir else None
            result = W.measure(
                wl, cells, args.seed, args.deadline, args.trace, args.smoke, tmp, seeded
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    finally:
        _stop_resource_tracker()
    result["gen_s"] = gen_s
    print(json.dumps(result), flush=True)
    return 0


# -- parent: spawn, time set-up, derive metrics ----------------------------------------


def _child_cmd(name: str, args: argparse.Namespace, mode: str) -> list[str]:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        name,
        "--mode",
        mode,
        "--seed",
        str(args.seed),
        "--trace",
        str(args.trace),
    ]
    return cmd + (["--smoke"] if args.smoke else [])


def _start(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a child; return it with its set-up time (interpreter start
    to the set-up mark)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    for line in proc.stdout:
        if line.strip() == SETUP_MARK:
            return proc, time.perf_counter() - t0
    proc.wait()
    raise RuntimeError(f"{cmd[3]}: child exited with code {proc.returncode} during set-up")


def _finish(proc: subprocess.Popen, cmd: list[str]) -> Any:
    """Wait for a child; the JSON of its last output line."""
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[3]} ({cmd[5]}): child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _run(cmd: list[str]) -> Any:
    return _finish(subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True), cmd)


def check_reference(raw: dict, reference: list) -> None:
    """Count reference cells whose cold serial digest differs from the
    first rep's into ``raw``."""
    digests = raw["digests"]
    bad = [
        f"cell {cell}: digest {digests[i][:12] if i < len(digests) else '-'} "
        f"!= serial {digest[:12]}"
        for i, cell, digest in reference
        if i >= len(digests) or digests[i] != digest
    ]
    raw["attempted"] += len(reference)
    raw["failed"] += len(bad)
    raw["problems"] += bad
    raw["digest_check"] = f"{len(reference)} cell(s) re-run cold on serial" + (
        f", {len(bad)} MISMATCH" if bad else ", all match"
    )


def run_child(name: str, args: argparse.Namespace) -> tuple[dict, list[float]]:
    """One workload's run; its measurement record and set-up times."""
    import workloads as W

    wl = W.WORKLOADS[name]
    setup = []
    if not args.trace:
        for _ in range(2):
            proc, t = _start(_child_cmd(name, args, "setup"))
            proc.communicate()
            setup.append(t)
    deadline = time.monotonic() + args.seconds
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=SCRATCH) as tmp:
        measure = _child_cmd(name, args, "measure") + ["--deadline", repr(deadline)]
        seeding = None
        if wl.seeded is not None:
            seeded = str(Path(tmp) / "seeded")
            seeding = _run(_child_cmd(name, args, "seed") + ["--dir", seeded])
            measure += ["--dir", seeded]
        reference = None
        if wl.backend != "serial" and (args.seed != 0 or args.smoke):
            reference = _run(_child_cmd(name, args, "reference"))
        proc, t = _start(measure)
        setup.append(t)
        raw = _finish(proc, measure)
    if seeding is not None:
        raw["attempted"] += seeding["attempted"]
        raw["failed"] += seeding["failed"]
        if seeding["failed"]:
            raw["problems"].append(f"seeding pass failed {seeding['failed']} cell(s)")
    if reference is not None:
        check_reference(raw, reference)
    elif raw["digest_check"] is None:
        raw["digest_check"] = "serial backend is the reference; reps agree"
    return raw, setup


def stats(values: list[float], unit: str) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "unit": unit,
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def end_to_end(raw: dict, setup: list[float]) -> dict:
    walls = raw["walls"]
    return {
        "wall_s": stats(walls, "s"),
        "events_per_s": stats([raw["events"] / w for w in walls], "1/s"),
        "setup_s": stats(setup, "s"),
        "peak_rss_mb": stats([raw["rss_mb"]], "MB"),
    }


def layer_table(traced: dict) -> tuple[list[dict], float]:
    """Rows of (layer, side, self, inclusive, calls, share) and the
    worker busy time.  Driver-side shares are of the traced wall,
    worker-side shares of the worker busy time."""
    wall = traced["wall_s"]
    sides = [("driver", traced["driver"]), ("worker", traced["worker"])]
    busy = sum(t[name][1] for _, t in sides for name in TASK_SPANS if name in t)
    rows = []
    for side, totals in sides:
        denom = wall if side == "driver" else busy
        for name, (self_s, incl_s, calls) in sorted(totals.items()):
            rows.append(
                {
                    "layer": name,
                    "side": side,
                    "self_s": self_s,
                    "incl_s": incl_s,
                    "calls": calls,
                    "share": self_s / denom if denom else 0.0,
                }
            )
    return rows, busy


def per_layer(raw: dict, rows: list[dict], busy: float) -> dict[str, float]:
    """Every per-layer metric of the traced reps, from their layer table."""
    traced = raw["traced"]
    workers = raw["workers"]

    def total(name: str, col: str = "self_s") -> float:
        return sum(r[col] for r in rows if r["layer"] == name)

    def calls(name: str) -> int:
        return int(total(name, "calls"))

    # Where the execution units ran: the workers of a pool, else the driver.
    task_side = "worker" if workers > 1 else "driver"
    named = sum(
        r["self_s"]
        for r in rows
        if r["side"] == task_side and r["layer"] not in TASK_SPANS + ("driver",)
    )
    capacity = traced["wall_s"] if task_side == "driver" else busy
    ckpt = traced["checkpoints"] or {}
    xfer = traced["transfer"] or {}
    spec = xfer.get("spec_hits", 0) + xfer.get("spec_misses", 0)
    m: dict[str, float] = {name: total(layer) for layer, name in TIME_LAYERS.items()}
    m.update(
        {
            "task.self_s": sum(total(name) for name in TASK_SPANS),
            "driver.self_s": total("driver"),
            "worker.busy_s": busy,
            "workload.build_s": raw["gen_s"] + total("workload.build"),
        }
    )
    for layer in SHARE_LAYERS:
        m[f"{layer}_share"] = sum(r["share"] for r in rows if r["layer"] == layer)
    m.update(
        {
            "engine.events": traced["counts"].get("engine.events", 0),
            "controller.passes": calls("controller.pass"),
            "accountant.calls": calls("accountant.set_state"),
            "recorder.samples": calls("recorder.sample"),
            "batch.forks": calls("batch.install"),
            "tasks.solo": calls("task.solo"),
            "tasks.group": calls("task.group"),
            "tasks.retries": traced["n_retries"],
            "store.hits": traced["n_hits"],
            "store.disk_mb": median(raw["disk_bytes"]) / 2**20,
            "ckpt.hits": ckpt.get("hits", 0),
            "ckpt.misses": ckpt.get("misses", 0),
            "ckpt.publishes": ckpt.get("publishes", 0),
            "xfer.bytes_shipped": xfer.get("bytes_shipped", 0),
            "xfer.bytes_shared": xfer.get("bytes_shared", 0),
            "xfer.segments": xfer.get("segments", 0),
            "xfer.fallbacks": xfer.get("fallbacks", 0),
            "xfer.spec_hit_rate": xfer.get("spec_hits", 0) / spec if spec else 0.0,
            "worker.util": busy / (workers * traced["wall_s"]),
            "layers.coverage": named / capacity if capacity else 0.0,
            "trace.overhead": traced["overhead"],
        }
    )
    return m


def host_info() -> dict:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(name: str, rec: dict, units: dict[str, str]) -> None:
    print(
        f"== {name}: seed {rec['seed']}, {rec['cells']} cells, {rec['reps']} timed rep(s), "
        f"backend {rec['backend']} x{rec['workers']}"
    )
    for metric, s in rec["end_to_end"].items():
        print(
            f"  {metric:<14} {_fmt(s['median']):>12} {s['unit']:<4} "
            f"median of {s['n']} (min {_fmt(s['min'])}, max {_fmt(s['max'])})"
        )
    print(
        f"  {'fail_frac':<14} {_fmt(rec['fail_frac']):>12} ratio "
        f"({rec['failed']} failed of {rec['attempted']} attempted)"
    )
    print(f"  digest         {rec['digest'][:16]}  ({rec['digest_check']})")
    for problem in rec["problems"]:
        print(f"  FAILED: {problem}")
    if rec.get("layers") is None:
        return
    print(
        f"  -- {rec['traced_reps']} traced rep(s), {_fmt(rec['traced_wall_s'])} s each; "
        "self time per layer and rep, share of traced wall (driver) or of worker "
        "busy time (worker) --"
    )
    for row in sorted(rec["layers"], key=lambda r: (r["side"], -r["self_s"])):
        print(
            f"  {row['side']:<6} {row['layer']:<22} {row['self_s']:>10.4f} s "
            f"{100 * row['share']:>6.1f} %  {row['calls']:>9} calls"
        )
    for metric, value in rec["per_layer"].items():
        print(f"  {metric:<24} {_fmt(value):>14} {units[metric]}")


def run_workload(name: str, args: argparse.Namespace, units: dict[str, str]) -> dict:
    raw, setup = run_child(name, args)
    e2e = end_to_end(raw, setup)
    rec = {
        "seed": args.seed,
        "cells": raw["cells"],
        "reps": len(raw["walls"]),
        "backend": raw["backend"],
        "workers": raw["workers"],
        "digest": raw["digest"],
        "digest_check": raw["digest_check"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "fail_frac": raw["failed"] / raw["attempted"],
        "problems": raw["problems"],
        "end_to_end": e2e,
    }
    if raw["traced"] is not None:
        rows, busy = layer_table(raw["traced"])
        rec["traced_reps"] = raw["traced"]["reps"]
        rec["traced_wall_s"] = raw["traced"]["wall_s"]
        rec["layers"] = rows
        rec["per_layer"] = per_layer(raw, rows, busy)
    print_workload(name, rec, units)
    return rec


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    # The run length is part of the benchmark: accepted for harnesses
    # that always pass it, but only with the value BENCHMARK.json fixes.
    p.add_argument("--seconds", type=float, default=bench["run_seconds"], help=argparse.SUPPRESS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", metavar="OUT", help="write the full result record here")
    p.add_argument(
        "--smoke", action="store_true", help="tiny inputs, one rep (self-test only)"
    )
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument(
        "--mode", choices=("setup", "seed", "reference", "measure"), help=argparse.SUPPRESS
    )
    p.add_argument("--deadline", type=float, help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds != bench["run_seconds"]:
        p.error(f"--seconds must be {bench['run_seconds']}, the run_seconds of BENCHMARK.json")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)

    bench = load_benchmark()
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    records = {name: run_workload(name, args, units) for name in names}

    metrics = {}
    for name, rec in records.items():
        for m in bench[kind]:
            value = (
                rec["per_layer"][m["name"]]
                if args.trace
                else rec["end_to_end"][m["name"]]["median"]
            )
            key = m["name"] if args.workload else f"{name}/{m['name']}"
            metrics[key] = {"value": value, "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if args.json:
        record = {
            "schema": 1,
            "host": host_info(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "workloads": records,
        }
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
