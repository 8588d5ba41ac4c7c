"""Self-test of the end-to-end benchmark.

Smoke-runs every workload at a tiny size (1/56 Curie, two cells per
lockstep group, one rep, traced) and checks that every metric
``BENCHMARK.json`` names is printed and every layer metric is present;
checks that the run length is fixed, that a lockstep group whose cells
all replay alike fails and that a missing layer hook fails loudly; and
checks how ``compare.py`` classifies synthetic inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run per workload, all started at once."""
    out = tmp_path_factory.mktemp("e2e")
    procs = {
        name: subprocess.Popen(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload",
                name,
                "--smoke",
                "--trace",
                "1",
                "--json",
                str(out / f"{name}.json"),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name in WORKLOADS
    }
    runs = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr[-2000:]
        record = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
        runs[name] = (stdout, record)
    return runs


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_printed(smoke, name):
    stdout, _ = smoke[name]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert f" {m['name']} " in stdout, m["name"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_layer_metric_is_present(smoke, name):
    _, record = smoke[name]
    wl = record["workloads"][name]
    assert set(wl["end_to_end"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert set(wl["per_layer"]) == {m["name"] for m in BENCH["per_layer"]}
    layers = {row["layer"] for row in wl["layers"]}
    assert {"driver", "engine", "controller.pass", "runner.digest"} <= layers
    assert wl["per_layer"]["engine.events"] > 0
    assert record["host"]["nproc"] >= 1


def test_run_length_is_fixed():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "5"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2 and "run_seconds" in proc.stderr


def test_uniform_lockstep_group_fails():
    import workloads

    cells = workloads.cap_cells(0, smoke=True)
    assert workloads.uniform_groups(cells, ["a", "b"]) == []
    assert workloads.uniform_groups(cells, ["a", "a"])


def test_missing_hook_fails_loudly(monkeypatch):
    from repro.rjms.queue import PendingQueue

    spans.check_hooks()
    monkeypatch.delattr(PendingQueue, "order")
    with pytest.raises(RuntimeError, match="PendingQueue.order"):
        spans.check_hooks()


def test_compare_classifies():
    base = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert compare.classify(base, [10.1, 10.0, 10.2, 10.1, 9.9], "lower", 0.1)[0] == "unchanged"
    assert compare.classify(base, [12.0, 12.1, 11.9, 12.2, 12.0], "lower", 0.1)[0] == "regressed"
    # A gain is not a regression.
    assert compare.classify(base, [8.0, 8.1, 7.9, 8.0, 8.2], "lower", 0.1)[0] == "unchanged"
    # Higher-is-better metrics regress downwards.
    assert compare.classify(base, [8.0, 8.1, 7.9, 8.0, 8.2], "higher", 0.1)[0] == "regressed"
    # Spread wider than the bound: the medians cannot be told apart.
    noisy = [7.0, 13.0, 8.0, 12.0, 10.0]
    flag, worse = compare.classify(base, noisy, "lower", 0.1)
    assert flag == "unresolved" and worse == 0.0
    # ...unless every change run beats every base run.
    assert compare.classify([13.0, 17.0, 14.0, 16.0], [6.0, 9.0, 7.0, 8.0], "lower", 0.1)[0] == "unchanged"
    # A single value per side has no spread to judge by.
    assert compare.classify([10.0], [10.1], "lower", 0.1)[0] == "unresolved"


def test_compare_flags_count_mismatch():
    def record(events: int) -> dict:
        return {
            "workloads": {
                "cap-sweep": {
                    "seed": 0,
                    "digest": "d",
                    "per_layer": {"engine.events": events},
                    "end_to_end": {},
                }
            }
        }

    assert compare.count_mismatches([record(5), record(5)]) == []
    assert compare.count_mismatches([record(5), record(6)])


def test_compare_refuses_unlike_runs():
    def record(seconds: float, smoke: bool = False) -> dict:
        return {"seconds": seconds, "smoke": smoke}

    assert compare.mismatched_runs([record(30.0), record(30.0)]) == []
    assert compare.mismatched_runs([record(30.0), record(20.0)])
    assert compare.mismatched_runs([record(30.0, smoke=True)])
