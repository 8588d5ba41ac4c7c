#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark records.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is a record written by ``run.py --json OUT`` (or a file with a
``records`` list of them).  Side A is the base, side B the change.  All
records must share one run length and be full-size (not smoke).  For
every (end-to-end metric, workload) pair the rep values of all
untraced records of a side are pooled, and the table shows each side's
median and quartiles, the change in the metric's worse direction, and
the bound from ``BENCHMARK.json``.  The flag is

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread of either side (quartile distance over
  median) is wider than the bound, or a side has a single value, so
  the medians cannot be told apart at that bound; unless every B value
  reads better than every A value;
* ``unchanged`` — neither: B is no worse than the bound allows (the
  change column shows any gain).

Exact counts (``engine.events``, ``controller.passes``, ``xfer.*``, ...)
and digests must be identical across all records of one workload and
seed.  The exit code is 1 when any pair regressed or is unresolved, or
an exact count differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]

#: per-layer counts that must repeat exactly for the same inputs
EXACT_COUNTS = (
    "engine.events",
    "controller.passes",
    "accountant.calls",
    "recorder.samples",
    "batch.forks",
    "tasks.solo",
    "tasks.group",
    "tasks.retries",
    "store.hits",
    "ckpt.hits",
    "ckpt.misses",
    "ckpt.publishes",
    "xfer.bytes_shipped",
    "xfer.bytes_shared",
    "xfer.segments",
    "xfer.fallbacks",
)


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def classify(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Flag one (metric, workload) pair; also return B's change
    relative to A's median, positive when B is worse."""
    ma, mb = median(a), median(b)
    worse = (mb - ma) / abs(ma) if better == "lower" else (ma - mb) / abs(ma)
    b_always_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    # One value has no measurable spread, so it resolves nothing.
    unknown = min(len(a), len(b)) < 2
    if (unknown or max(spread(a), spread(b)) > bound) and not b_always_better:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    return "unchanged", worse


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        records += data["records"] if "records" in data else [data]
    return records


def pooled(records: list[dict], workload: str, metric: str) -> list[float]:
    """Rep values of one end-to-end metric over the untraced records."""
    return [
        v
        for rec in records
        if not rec["trace"] and workload in rec["workloads"]
        for v in rec["workloads"][workload]["end_to_end"][metric]["values"]
    ]


def mismatched_runs(records: list[dict]) -> list[str]:
    """Why these records cannot be compared, if they cannot."""
    problems = []
    lengths = {rec["seconds"] for rec in records}
    if len(lengths) > 1:
        problems.append(f"records of different run lengths: {sorted(lengths)} s")
    if any(rec["smoke"] for rec in records):
        problems.append("smoke records measure nothing")
    return problems


def count_mismatches(records: list[dict]) -> list[str]:
    """Exact counts and digests that differ for one workload and seed."""
    seen: dict[tuple[str, int, str], set] = {}
    for rec in records:
        for name, wl in rec["workloads"].items():
            key = (name, wl["seed"])
            seen.setdefault(key + ("digest",), set()).add(wl["digest"])
            for count in EXACT_COUNTS:
                if count in wl.get("per_layer", {}):
                    seen.setdefault(key + (count,), set()).add(wl["per_layer"][count])
    return [
        f"{name} seed {seed}: {what} differs: {sorted(map(str, values))}"
        for (name, seed, what), values in sorted(seen.items())
        if len(values) > 1
    ]


def _q(values: list[float]) -> str:
    q1, q3 = (quantiles(values, n=4)[::2]) if len(values) > 1 else (values[0], values[0])
    return f"{median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def compare(a: list[dict], b: list[dict], bench: dict) -> tuple[list[dict], list[str]]:
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for metric in bench["end_to_end"]:
        for workload in workloads:
            va = pooled(a, workload, metric["name"])
            vb = pooled(b, workload, metric["name"])
            if not va or not vb:
                continue
            flag, worse = classify(va, vb, metric["better"], metric["bound"])
            rows.append(
                {
                    "metric": metric["name"],
                    "workload": workload,
                    "a": va,
                    "b": vb,
                    "worse": worse,
                    "bound": metric["bound"],
                    "flag": flag,
                }
            )
    return rows, count_mismatches(a + b)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cut = argv.index("--")
    a, b = load(argv[:cut]), load(argv[cut + 1 :])
    if not a or not b:
        print("need at least one record on each side", file=sys.stderr)
        return 2
    problems = mismatched_runs(a + b)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, mismatches = compare(a, b, bench)
    print(
        f"{'metric':<13} {'workload':<11} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'worse':>7} {'bound':>6}  flag"
    )
    for r in rows:
        print(
            f"{r['metric']:<13} {r['workload']:<11} {_q(r['a']):<34} {_q(r['b']):<34} "
            f"{100 * r['worse']:>6.1f}% {100 * r['bound']:>5.0f}%  {r['flag']}"
        )
    for line in mismatches:
        print(f"count mismatch: {line}")
    bad = [r for r in rows if r["flag"] != "unchanged"]
    return 1 if bad or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
