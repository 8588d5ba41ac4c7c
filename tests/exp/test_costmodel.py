"""Cost model: cold estimates and LPT placement.

The estimates only order the batch-pool dispatch — these tests pin the
properties that ordering relies on (monotonic cold estimates, shared
prefixes folded into group estimates, deterministic LPT placement),
and that the calibration metadata an older store still holds stays
inert.
"""

import time

import pytest

from repro.exp import (
    CapWindow,
    DirectoryStore,
    GridRunner,
    GroupEstimate,
    Scenario,
    assign_workers,
    lpt_order,
    plan_table,
)
from repro.exp.costmodel import estimate_cell, estimate_group
from repro.exp.runner import RunResult

HOUR = 3600.0

TINY = Scenario(
    name="tiny-cost",
    interval="medianjob",
    policy="NONE",
    scale=1 / 56,
    duration=HOUR,
)


class TestColdEstimates:
    def test_bigger_work_costs_more(self):
        base = estimate_cell(TINY)
        assert base > 0
        assert estimate_cell(TINY.with_(duration=2 * HOUR)) > base
        assert estimate_cell(TINY.with_(scale=2 / 56)) > base
        assert estimate_cell(TINY.with_(overload=3.2)) > base

    def test_caps_do_not_change_the_cell_estimate(self):
        # Every cell of one lockstep group estimates identically.
        capped = TINY.with_(caps=(CapWindow(1800.0, 3000.0, 0.5),))
        assert estimate_cell(capped) == estimate_cell(TINY)

    def test_group_estimate_folds_shared_prefix(self):
        # Later windows mean a longer shared prefix, replayed once —
        # the same two cells must estimate cheaper than with windows
        # opening near t=0.
        def group(start):
            return [
                TINY.with_(name=f"c{f}", caps=(CapWindow(start, 3000.0, f),))
                for f in (0.4, 0.6)
            ]

        late = estimate_group(group(1800.0), [0, 1])
        early = estimate_group(group(360.0), [0, 1])
        cell = estimate_cell(TINY)
        assert cell < late.seconds < early.seconds <= 2 * cell
        assert late.n_cells == 2


class TestLPTPlacement:
    def _estimates(self, seconds):
        return [
            GroupEstimate(group=f"g{i}", label=f"g{i}", indices=(i,), seconds=s)
            for i, s in enumerate(seconds)
        ]

    def test_lpt_order_heaviest_first(self):
        order = lpt_order(self._estimates([3.0, 5.0, 1.0, 4.0]))
        assert [e.seconds for e in order] == [5.0, 4.0, 3.0, 1.0]

    def test_greedy_placement_balances_load(self):
        placed = assign_workers(self._estimates([3.0, 5.0, 1.0, 4.0]), 2)
        assert [(e.seconds, w) for e, w in placed] == [
            (5.0, 0), (4.0, 1), (3.0, 1), (1.0, 0),
        ]
        # Deterministic: the same inputs place identically.
        assert placed == assign_workers(
            self._estimates([3.0, 5.0, 1.0, 4.0]), 2
        )

    def test_single_worker_is_pure_lpt(self):
        placed = assign_workers(self._estimates([1.0, 2.0]), 1)
        assert [(e.seconds, w) for e, w in placed] == [(2.0, 0), (1.0, 0)]

    def test_plan_table_renders_totals(self):
        text = plan_table(
            assign_workers(self._estimates([3.0, 5.0, 1.0, 4.0]), 2), 2
        )
        assert "worker" in text
        assert "4 unit(s), 4 cell(s)" in text
        assert "est total 13.0s" in text
        assert "makespan 7.0s" in text


class TestMetaPersistence:
    """Stores written before calibration was dropped keep a
    ``meta/costmodel.json`` that nothing reads any more."""

    def test_meta_does_not_leak_into_result_keys(self, tmp_path):
        doc = tmp_path / "meta" / "costmodel.json"
        doc.parent.mkdir()
        doc.write_text('{"schema": 1, "groups": {}, "rates": {}}', encoding="utf-8")
        store = DirectoryStore(tmp_path)
        assert store.keys() == []
        assert store.prune(max_entries=0) == []
        assert doc.exists()


class TestElapsedField:
    def test_solo_elapsed_equals_wall(self):
        r = GridRunner().run([TINY])[0]
        assert r.elapsed_seconds == pytest.approx(r.wall_seconds)

    def test_group_cell_walls_do_not_accumulate(self, monkeypatch):
        # Regression: each cell of a lockstep group also counted the
        # condensing of the cells before it, so its wall grew with its
        # position in the group.  Slow every cell's digest by `delay`.
        from repro.exp import make_backend, runner

        delay = 0.05
        digest = runner.trace_digest

        def slow_digest(recorder):
            time.sleep(delay)
            return digest(recorder)

        monkeypatch.setattr(runner, "trace_digest", slow_digest)
        cells = [
            TINY.with_(name=f"tiny-{f}", caps=(CapWindow(1200.0, 2400.0, f),))
            for f in (0.4, 0.5, 0.6, 0.7)
        ]
        with GridRunner(backend=make_backend("batch")) as r:
            walls = [res.wall_seconds for res in r.run(cells)]
        assert walls[-1] - walls[0] < 1.5 * delay

    def test_from_dict_tolerates_missing_elapsed(self):
        r = GridRunner().run([TINY])[0]
        d = r.to_dict()
        assert RunResult.from_dict(d).elapsed_seconds == pytest.approx(
            r.elapsed_seconds
        )
        d.pop("elapsed_seconds")  # a pre-field cache entry
        assert RunResult.from_dict(d).elapsed_seconds is None

    def test_results_table_renders_missing_elapsed_as_dash(self):
        from dataclasses import replace

        from repro.exp import results_table

        r = GridRunner().run([TINY])[0]
        table = results_table([replace(r, elapsed_seconds=None)])
        assert "unit" in table.splitlines()[0]
        assert " - " in table.splitlines()[2]
