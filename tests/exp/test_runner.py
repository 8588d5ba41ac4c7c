"""GridRunner mechanics: caching, deduplication, aggregation, CLI."""

import gc
import json
import math

import pytest

from repro.exp import (
    CapWindow,
    GridRunner,
    RunResult,
    Scenario,
    cell_from_result,
    compare_results,
    results_table,
    result_key,
    results_to_cells,
    run_scenario,
)

HOUR = 3600.0

#: tiny, fast scenario shared by the tests below (90-node Curie, 1 h)
TINY = Scenario(
    name="tiny",
    interval="medianjob",
    policy="MIX",
    scale=1 / 56,
    duration=HOUR,
    caps=(),
)
TINY_CAPPED = TINY.with_(
    name="tiny-capped",
    caps=(CapWindow(0.25 * HOUR, 0.75 * HOUR, 0.6),),
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_scenario(TINY)


class TestRunResult:
    def test_dict_roundtrip(self, tiny_result):
        back = RunResult.from_dict(tiny_result.to_dict())
        assert back.same_outcome(tiny_result)
        assert back.scenario == tiny_result.scenario
        assert back.n_jobs == tiny_result.n_jobs
        assert back.n_events == tiny_result.n_events

    def test_metrics_complete(self, tiny_result):
        for key in (
            "energy_norm",
            "work_norm",
            "jobs_norm",
            "effective_work_norm",
            "job_energy_norm",
            "launched_jobs",
            "completed_jobs",
            "window_energy_norm",
        ):
            assert key in tiny_result.metrics, key
        # Uncapped: window metrics are NaN.
        assert math.isnan(tiny_result.metrics["window_energy_norm"])

    def test_window_metrics_when_capped(self):
        r = run_scenario(TINY_CAPPED)
        assert 0.0 < r.metrics["window_energy_norm"] <= 1.0 + 1e-9
        assert 0.0 <= r.metrics["window_work_norm"] <= 1.0 + 1e-9

    def test_digest_shape(self, tiny_result):
        assert len(tiny_result.trace_digest) == 64
        assert tiny_result.n_samples > 0 and tiny_result.n_events > 0


class TestGroupTask:
    def test_a_group_task_frees_its_cells(self):
        """A pool worker's group task collects its cells' cyclic
        garbage before returning, so it cannot pile up under the
        worker's next unit."""
        from repro.exp import shm
        from repro.exp.runner import _run_group_task
        from repro.platform import get_platform
        from repro.rjms.controller import Controller

        def live_controllers():
            return sum(isinstance(o, Controller) for o in gc.get_objects())

        cells = [
            TINY.with_(name=f"tiny-{f}", caps=(CapWindow(0.5 * HOUR, HOUR, f),))
            for f in (0.5, 0.7)
        ]
        gc.collect()
        before = live_controllers()
        gc.disable()
        try:
            counts, payloads = _run_group_task(
                shm.GroupEnvelope.pack(cells),
                platforms=(get_platform(TINY.platform).to_dict(),),
                attempt=1,
                series=False,
                grid_dt=0.0,
            )
            assert live_controllers() == before
        finally:
            gc.enable()
        assert [r.scenario for r in payloads] == cells


class TestCache:
    def test_cache_roundtrip_and_skip(self, tmp_path):
        runner = GridRunner(cache_dir=tmp_path)
        first = runner.run([TINY])[0]
        assert not first.cached
        assert (tmp_path / f"{result_key(TINY)}.json").is_file()
        second = runner.run([TINY])[0]
        assert second.cached
        assert second.same_outcome(first)

    def test_renamed_scenario_hits_cache(self, tmp_path):
        runner = GridRunner(cache_dir=tmp_path)
        first = runner.run([TINY])[0]
        renamed = TINY.with_(name="same-content-other-label")
        second = runner.run([renamed])[0]
        assert second.cached and second.same_outcome(first)
        assert second.scenario.name == "same-content-other-label"

    def test_corrupt_cache_entry_reruns(self, tmp_path):
        runner = GridRunner(cache_dir=tmp_path)
        first = runner.run([TINY])[0]
        path = tmp_path / f"{result_key(TINY)}.json"
        path.write_text("{not json", encoding="utf-8")
        second = runner.run([TINY])[0]
        assert not second.cached
        assert second.same_outcome(first)
        # And the cache healed itself.
        assert json.loads(path.read_text())["trace_digest"] == first.trace_digest

    def test_changed_content_misses_cache(self, tmp_path):
        runner = GridRunner(cache_dir=tmp_path)
        runner.run([TINY])
        other = TINY.with_(seed=123)
        result = runner.run([other])[0]
        assert not result.cached


class TestDeduplication:
    def test_duplicate_content_runs_once(self, tmp_path):
        calls = []
        runner = GridRunner(cache_dir=tmp_path)
        results = runner.run(
            [TINY, TINY.with_(name="twin")], progress=calls.append
        )
        # One execution (one cache file appears), two result slots in
        # input order, each keeping its own label, progress per slot.
        assert len(results) == 2
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert len(calls) == 2
        assert [r.scenario.name for r in results] == ["tiny", "twin"]
        assert results[0].same_outcome(results[1])


class TestSeriesPayload:
    def test_npz_written_and_loadable(self, tmp_path):
        import numpy as np

        with GridRunner(cache_dir=tmp_path, series=True) as runner:
            result = runner.run([TINY])[0]
            npz = tmp_path / f"{result_key(TINY)}.npz"
            assert npz.is_file()
            series = runner.load_series(TINY)
        assert series is not None
        assert {"time", "power", "off_cores", "idle_power", "bonus"} <= set(series)
        # The payload is the scenario's own Figure 6/7 grid.
        from repro.exp import replay_scenario

        replay = replay_scenario(TINY)
        grid = replay.recorder.to_grid(0.0, replay.duration, 300.0)
        for key, arr in grid.items():
            assert np.array_equal(series[key], arr), key
        assert result.n_samples == replay.recorder.n_samples

    def test_missing_npz_is_a_cache_miss(self, tmp_path):
        with GridRunner(cache_dir=tmp_path, series=False) as runner:
            runner.run([TINY])  # JSON cached, no npz
        with GridRunner(cache_dir=tmp_path, series=True) as runner:
            result = runner.run([TINY])[0]
            assert not result.cached  # re-ran to produce the series
            assert runner.load_series(TINY) is not None
            # Second pass: both payloads present, served from cache.
            assert runner.run([TINY])[0].cached

    def test_changed_series_dt_is_a_cache_miss(self, tmp_path):
        with GridRunner(cache_dir=tmp_path, series=True, series_dt=300.0) as r:
            r.run([TINY])
        with GridRunner(cache_dir=tmp_path, series=True, series_dt=60.0) as r:
            result = r.run([TINY])[0]
            assert not result.cached  # stale-resolution payload replaced
            series = r.load_series(TINY)
        import numpy as np

        assert np.all(np.diff(series["time"]) == 60.0)
        assert "_series_dt" not in series

    def test_no_series_without_cache_dir(self):
        runner = GridRunner(series=True)
        assert runner.run([TINY])[0].trace_digest
        assert runner.load_series(TINY) is None

    def test_corrupt_npz_is_a_cache_miss(self, tmp_path):
        with GridRunner(cache_dir=tmp_path, series=True) as r:
            first = r.run([TINY])[0]
        npz = tmp_path / f"{result_key(TINY)}.npz"
        npz.write_bytes(b"not a zip file")
        with GridRunner(cache_dir=tmp_path, series=True) as r:
            assert r.load_series(TINY) is None
            second = r.run([TINY])[0]
            assert not second.cached  # re-ran and healed the payload
            assert second.trace_digest == first.trace_digest
            assert r.load_series(TINY) is not None


class TestAggregation:
    def test_cell_from_result(self):
        r = run_scenario(TINY_CAPPED)
        cell = cell_from_result(r)
        assert cell.workload == "medianjob"
        assert cell.policy == "MIX"
        assert cell.cap_fraction == 0.6
        assert cell.energy_norm == pytest.approx(r.metrics["energy_norm"])
        assert cell.window_energy_norm == pytest.approx(
            r.metrics["window_energy_norm"]
        )

    def test_results_table_renders(self, tiny_result):
        text = results_table([tiny_result])
        assert "tiny" in text and tiny_result.scenario_hash in text

    def test_compare_results_reports_identity(self, tiny_result):
        text = compare_results(tiny_result, run_scenario(TINY))
        assert "traces identical" in text

    def test_results_to_cells_renderable(self):
        from repro.analysis.report import render_grid

        cells = results_to_cells([run_scenario(TINY_CAPPED)])
        assert "medianjob" in render_grid(cells)


class TestCustomPlatforms:
    """Scenarios referencing platforms registered downstream."""

    def _spec(self, idle_watts=40.0):
        import dataclasses

        from repro.platform import FATNODE_PLATFORM

        return dataclasses.replace(
            FATNODE_PLATFORM, name="custom-box", idle_watts=idle_watts
        )

    def test_replace_invalidates_runner_memos(self):
        """register_platform(..., replace=True) must not leave the
        per-process machine/workload memos serving the old spec."""
        from repro.platform import register_platform, unregister_platform

        try:
            register_platform(self._spec(idle_watts=40.0))
            sc = Scenario(
                name="custom",
                interval="medianjob",
                policy="SHUT",
                platform="custom-box",
                scale=1.0,
                duration=HOUR,
                caps=(CapWindow(0.25 * HOUR, 0.75 * HOUR, 0.7),),
            )
            before = run_scenario(sc)
            register_platform(self._spec(idle_watts=41.0), replace=True)
            after = run_scenario(sc)
            # Different idle watts change every power sample.
            assert after.trace_digest != before.trace_digest
        finally:
            unregister_platform("custom-box")

    def test_replace_invalidates_disk_cache(self, tmp_path):
        """The JSON/.npz cache key covers the platform *content*, so a
        replaced registry entry is a cache miss, not a stale hit."""
        from repro.platform import register_platform, unregister_platform

        try:
            register_platform(self._spec(idle_watts=40.0))
            sc = Scenario(
                name="custom",
                interval="medianjob",
                policy="SHUT",
                platform="custom-box",
                scale=1.0,
                duration=HOUR,
                # The cap window makes the replay sensitive to the
                # idle watts (drained nodes sit idle under the cap).
                caps=(CapWindow(0.25 * HOUR, 0.75 * HOUR, 0.7),),
            )
            runner = GridRunner(cache_dir=tmp_path)
            (before,) = runner.run([sc])
            register_platform(self._spec(idle_watts=41.0), replace=True)
            (after,) = runner.run([sc])
            assert not after.cached
            assert after.trace_digest != before.trace_digest
            # Same content again: now it is a hit.
            (again,) = GridRunner(cache_dir=tmp_path).run([sc])
            assert again.cached and again.trace_digest == after.trace_digest
        finally:
            unregister_platform("custom-box")

    def test_job_widths_snap_to_platform_node_size(self):
        """Multi-node jobs request whole nodes of the *target* machine
        (64-core on fatnode), not Curie's 16-core nodes."""
        from repro.platform import get_platform
        from repro.workload.intervals import generate_interval

        pf = get_platform("fatnode")
        machine = pf.build_machine()
        jobs = generate_interval(
            machine,
            "bigjob",
            reference_cores=pf.workload_reference_cores,
        )
        node = machine.cores_per_node
        assert any(j.cores > node for j in jobs)
        for j in jobs:
            if j.cores > node:
                assert j.cores % node == 0, j.cores

    @pytest.mark.slow
    def test_spawn_workers_learn_downstream_platforms(self):
        """A spawn-started worker only knows the builtins; GridRunner
        must ship downstream-registered specs along with the work."""
        from repro.platform import register_platform, unregister_platform

        try:
            register_platform(self._spec())
            sc = Scenario(
                name="custom",
                interval="medianjob",
                policy="SHUT",
                platform="custom-box",
                scale=1.0,
                duration=HOUR,
            )
            serial = run_scenario(sc)
            variant = sc.with_(name="custom-seeded", seed=99)
            results = GridRunner(workers=2, mp_context="spawn").run([sc, variant])
            assert results[0].trace_digest == serial.trace_digest
            assert results[1].trace_digest != serial.trace_digest
        finally:
            unregister_platform("custom-box")


class TestCli:
    def test_exp_list(self, capsys):
        from repro.cli import main

        assert main(["exp", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig6-24h-mix-40" in out and "demand-response-day" in out

    def test_exp_run_grid_serial_with_cache(self, capsys, tmp_path):
        from repro.cli import main

        argv = [
            "exp", "run",
            "--grid", "policy=SHUT,DVFS", "cap=0.6",
            "--scale", str(1 / 56),
            "--duration", "1.5",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "medianjob-shut-60" in out and "medianjob-dvfs-60" in out
        # Re-run: everything served from cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("(cache)") == 2

    def test_exp_run_requires_work(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["exp", "run"])

    def test_bad_grid_axis_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["exp", "run", "--grid", "colour=red"])

    def test_exp_list_platform_column_and_filter(self, capsys):
        from repro.cli import main

        assert main(["exp", "list"]) == 0
        out = capsys.readouterr().out
        assert "platform" in out and "manythin-smalljob-dvfs-40" in out
        assert main(["exp", "list", "--platform", "fatnode"]) == 0
        out = capsys.readouterr().out
        assert "fatnode-bigjob-shut-60" in out
        assert "fig6-24h-mix-40" not in out

    def test_exp_platforms_lists_registry(self, capsys):
        from repro.cli import main

        assert main(["exp", "platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("curie", "fatnode", "manythin"):
            assert name in out

    def test_exp_run_unknown_platform_lists_registry(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["exp", "run", "--scenario", "tiny", "--platform", "atari"])
        message = str(exc.value)
        assert "atari" in message
        assert "curie" in message and "manythin" in message

    def test_exp_list_unknown_platform_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="available"):
            main(["exp", "list", "--platform", "atari"])

    def test_exp_run_platform_grid_axis(self, capsys, tmp_path):
        from repro.cli import main

        argv = [
            "exp", "run",
            "--grid", "platform=fatnode,manythin", "policy=SHUT", "cap=0.7",
            "--duration", "2.0",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fatnode-medianjob-shut-70" in out
        assert "manythin-medianjob-shut-70" in out
