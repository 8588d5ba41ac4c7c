#!/usr/bin/env python
"""Gate the zero-copy data plane's two headline ratios.

Usage::

    python benchmarks/check_data_plane.py bench.json [BENCH_pr10.json]

Two checks, both against the PR 10 acceptance bar:

1. **Transfer ratio** (from the live ``bench.json``): the shm transfer
   microbench must move at least ``--min-xfer-ratio`` (default 5) times
   fewer bytes over the driver<->worker pipe than the pickle path for
   the same 12-cell group payload.  The benchmarks record the traffic
   they generated as ``extra_info["pipe_bytes"]``; in practice the shm
   descriptor path is ~3 orders of magnitude smaller.  This is a
   deterministic byte count, so it is gated on the live run.

2. **Batch-pool ratio** (from the committed baseline): the recorded
   single-core batch-pool multigroup mean must sit within
   ``--max-pool-ratio`` (default 1.05) of the in-process batch
   multigroup floor — the batch-pool dispatch may not cost
   more than 5% over running the same groups in process.  Wall-clock
   means on a shared CI runner are noisy, so the gate holds the
   *committed* record and the live run's ratio is reported
   informationally.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_pr10.json"

PICKLE_CASE = "test_perf_transfer_pickle_series"
SHM_CASE = "test_perf_transfer_shm_series"
FLOOR_CASE = "test_perf_cap_sweep_batch_multigroup"
POOL_CASE = "test_perf_cap_sweep_batchpool"


def load_entries(path: Path) -> dict[str, dict[str, float]]:
    """Normalise raw pytest-benchmark output and the committed
    trajectory format to ``{name: {"mean_s": .., "pipe_bytes": ..}}``."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if "benchmarks" not in data:
        raise SystemExit(f"{path}: no 'benchmarks' key")
    entries = data["benchmarks"]
    out: dict[str, dict[str, float]] = {}
    if isinstance(entries, list):  # raw pytest-benchmark output
        for b in entries:
            entry = {"mean_s": float(b["stats"]["mean"])}
            extra = b.get("extra_info") or {}
            if "pipe_bytes" in extra:
                entry["pipe_bytes"] = float(extra["pipe_bytes"])
            out[b["name"]] = entry
        return out
    for name, e in entries.items():  # committed trajectory format
        out[name] = {k: float(v) for k, v in e.items()}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument(
        "baseline", type=Path, nargs="?", default=DEFAULT_BASELINE,
        help=f"committed baseline (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--min-xfer-ratio", type=float, default=5.0,
        help="pickle pipe bytes must exceed shm pipe bytes by this factor",
    )
    parser.add_argument(
        "--max-pool-ratio", type=float, default=1.05,
        help="recorded batch-pool mean over multigroup-floor mean cap",
    )
    args = parser.parse_args(argv)

    current = load_entries(args.current)
    baseline = load_entries(args.baseline)
    failures: list[str] = []

    # 1. driver<->worker traffic, live run.
    pickle_bytes = current.get(PICKLE_CASE, {}).get("pipe_bytes")
    shm_bytes = current.get(SHM_CASE, {}).get("pipe_bytes")
    if pickle_bytes is None or shm_bytes is None or shm_bytes <= 0:
        failures.append(
            "transfer microbenches missing from the live run "
            f"(need pipe_bytes on {PICKLE_CASE} and {SHM_CASE})"
        )
    else:
        ratio = pickle_bytes / shm_bytes
        verdict = "OK" if ratio >= args.min_xfer_ratio else "FAIL"
        print(
            f"transfer: pickle {pickle_bytes:,.0f} B vs shm "
            f"{shm_bytes:,.0f} B over the pipe — {ratio:,.0f}x lower "
            f"(>= {args.min_xfer_ratio:g}x required) {verdict}"
        )
        if ratio < args.min_xfer_ratio:
            failures.append(
                f"shm transfer only {ratio:.2f}x below pickle traffic"
            )

    # 2. batch-pool dispatch overhead, committed record.
    floor = baseline.get(FLOOR_CASE, {}).get("mean_s")
    pool = baseline.get(POOL_CASE, {}).get("mean_s")
    if not floor or not pool:
        failures.append(
            f"baseline {args.baseline.name} missing {FLOOR_CASE}/{POOL_CASE}"
        )
    else:
        ratio = pool / floor
        verdict = "OK" if ratio <= args.max_pool_ratio else "FAIL"
        print(
            f"batch-pool (recorded): {pool:.3f}s over floor {floor:.3f}s — "
            f"{ratio:.3f}x (<= {args.max_pool_ratio:g}x required) {verdict}"
        )
        if ratio > args.max_pool_ratio:
            failures.append(
                f"recorded batch-pool mean {ratio:.3f}x the multigroup floor"
            )
    live_floor = current.get(FLOOR_CASE, {}).get("mean_s")
    live_pool = current.get(POOL_CASE, {}).get("mean_s")
    if live_floor and live_pool:
        print(
            f"batch-pool (this run, informational): "
            f"{live_pool / live_floor:.3f}x the floor"
        )

    if failures:
        print("\nFAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("\nOK: data-plane ratios hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
