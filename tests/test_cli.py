"""CLI smoke tests: the argparse entry points end to end.

Everything drives :func:`repro.cli.main` exactly as a shell would,
on tiny scenarios (90-node machine, two-hour replays) so the whole
module stays in the quick loop.
"""

import pytest

from repro.cli import main

TINY = ["--scale", "0.017857", "--duration", "2"]
#: library scenarios keep their absolute window placement ([2h, 3h)
#: for paper cells), so named runs need a 3-hour replay to cover it
TINY_NAMED = ["--scale", "0.017857", "--duration", "3"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestListings:
    def test_exp_list_renders_the_library(self, capsys):
        code, out = run_cli(capsys, "exp", "list")
        assert code == 0
        assert "fig6-24h-mix-40" in out
        assert "medianjob-adaptive-60" in out

    def test_exp_list_names_only(self, capsys):
        code, out = run_cli(capsys, "exp", "list", "--names")
        assert code == 0
        lines = out.strip().splitlines()
        from repro.exp import scenario_names

        assert lines == scenario_names()

    def test_exp_platforms(self, capsys):
        code, out = run_cli(capsys, "exp", "platforms")
        assert code == 0
        for name in ("curie", "fatnode", "manythin"):
            assert name in out

    def test_exp_policies(self, capsys):
        code, out = run_cli(capsys, "exp", "policies")
        assert code == 0
        for name in ("NONE", "IDLE", "SHUT", "DVFS", "MIX", "ADAPTIVE", "TRACK"):
            assert name in out
        assert "grouped" in out and "track" in out

    def test_exp_policies_names_only(self, capsys):
        code, out = run_cli(capsys, "exp", "policies", "--names")
        from repro.policy import policy_names

        assert code == 0
        assert out.strip().splitlines() == policy_names()


class TestExpRun:
    def test_serial_grid_run_prints_table(self, capsys):
        code, out = run_cli(
            capsys,
            "exp", "run",
            "--grid", "policy=SHUT,ADAPTIVE", "cap=0.6",
            "--backend", "serial",
            *TINY,
        )
        assert code == 0
        assert "running 2 scenario(s)" in out
        assert "backend serial" in out
        assert "medianjob-shut-60" in out
        assert "medianjob-adaptive-60" in out
        assert "ADAPT" in out  # the results table renders registry names

    def test_store_round_trip_serves_cache(self, capsys, tmp_path):
        store = f"dir:{tmp_path}"
        args = [
            "exp", "run",
            "--scenario", "medianjob-track-60",
            "--backend", "serial",
            "--store", store,
            *TINY_NAMED,
        ]
        code, first = run_cli(capsys, *args)
        assert code == 0 and "(cache)" not in first
        code, second = run_cli(capsys, *args)
        assert code == 0 and "(cache)" in second

    def test_plan_places_groups_and_singletons_in_one_queue(self, capsys):
        # One 3-cell cap group plus two unrelated library cells: the
        # plan is the pool's own queue, so it places all five cells.
        code, out = run_cli(
            capsys,
            "exp", "run",
            "--scenario", "fig7a-bigjob-shut-60",
            "--scenario", "fig7b-smalljob-dvfs-40",
            "--grid", "interval=medianjob", "policy=MIX", "cap=0.6,0.5,0.4",
            "--workers", "2", "--plan",
            *TINY_NAMED,
        )
        assert code == 0
        assert "3 unit(s), 5 cell(s)" in out

    def test_plan_leaves_out_what_the_store_holds(self, capsys, tmp_path):
        # Regression: --plan listed cells the sweep would serve from
        # the store.  Store the seed-5 group, then plan both seeds.
        grid = ["interval=medianjob", "policy=MIX", "cap=0.6,0.5,0.4"]
        store = ["--cache-dir", str(tmp_path), *TINY]
        code, _ = run_cli(
            capsys, "exp", "run", "--grid", *grid, "seed=5",
            "--backend", "batch", *store,
        )
        assert code == 0
        code, out = run_cli(
            capsys, "exp", "run", "--grid", *grid, "seed=5,6",
            "--workers", "2", "--plan", *store,
        )
        assert code == 0
        assert "1 unit(s), 3 cell(s)" in out
        assert "medianjob-mix-60-s6" in out and "-s5" not in out

    def test_unknown_scenario_lists_library(self, capsys):
        with pytest.raises(SystemExit, match="fig6-24h-mix-40"):
            main(["exp", "run", "--scenario", "nope"])

    def test_unknown_policy_in_grid_lists_registry(self, capsys):
        with pytest.raises(SystemExit, match="ADAPTIVE"):
            main(["exp", "run", "--grid", "policy=TURBO"])


class TestPolicyErrors:
    def test_replay_unknown_policy_lists_registry(self, capsys):
        with pytest.raises(SystemExit, match="unknown policy 'TURBO'"):
            main(["replay", "--policy", "TURBO"])

    def test_model_unknown_policy_lists_registry(self, capsys):
        with pytest.raises(SystemExit, match="ADAPTIVE"):
            main(["model", "--policy", "TURBO", "--cap", "0.6"])

    def test_model_accepts_registry_policies(self, capsys):
        code, out = run_cli(
            capsys,
            "model", "--policy", "ADAPTIVE", "--cap", "0.6", "--scale", "0.017857",
        )
        assert code == 0
        assert "model case" in out


class TestFaultTolerance:
    #: seed 1 at rate 1.0 plans a *transient* fault for the single
    #: medianjob-track-60 cell (pinned by the scenario hash, which the
    #: golden-digest suite already locks down)
    ARMED = ["--inject-faults", "seed:1:1.0:1", "--max-retries", "2"]

    def test_injected_transient_retries_to_success(self, capsys):
        code, out = run_cli(
            capsys,
            "exp", "run", "--scenario", "medianjob-track-60",
            "--backend", "serial", *self.ARMED, *TINY_NAMED,
        )
        assert code == 0
        assert "fault plan armed: 1 fault(s) (transientx1)" in out
        assert "1 retry" in out

    def test_poison_quarantine_failures_heal_cycle(self, capsys, tmp_path):
        base = [
            "exp", "run", "--scenario", "medianjob-track-60",
            "--backend", "serial", "--cache-dir", str(tmp_path),
            *TINY_NAMED,
        ]
        code, out = run_cli(
            capsys, *base,
            "--inject-faults", "seed:1:1.0:*",  # poison: fires every attempt
            "--max-retries", "1", "--on-error", "quarantine",
        )
        assert code == 0  # quarantined losses are accounted for
        assert "quarantined: medianjob-track-60" in out

        code, out = run_cli(capsys, "exp", "failures", "--cache-dir", str(tmp_path))
        assert code == 1
        assert "medianjob-track-60" in out and "quarantined" in out

        code, out = run_cli(capsys, *base)  # fault-free re-run heals
        assert code == 0 and "1 healed" in out

        code, out = run_cli(capsys, "exp", "failures", "--cache-dir", str(tmp_path))
        assert code == 0 and "no failure records" in out

    def test_plan_leaves_out_known_failures_under_skip(self, capsys, tmp_path):
        # Regression: --plan placed a cell with a persisted failure
        # record that the sweep under --on-error skip does not run.
        base = [
            "exp", "run", "--scenario", "medianjob-track-60",
            "--backend", "serial", "--cache-dir", str(tmp_path),
            *TINY_NAMED,
        ]
        code, _ = run_cli(
            capsys, *base, "--inject-faults", "seed:1:1.0:*",
            "--max-retries", "1", "--on-error", "quarantine",
        )
        assert code == 0
        code, out = run_cli(capsys, *base, "--workers", "2", "--plan")
        assert code == 0 and "1 unit(s), 1 cell(s)" in out  # re-attempted
        code, out = run_cli(
            capsys, *base, "--workers", "2", "--plan", "--on-error", "skip"
        )
        assert code == 0 and "0 unit(s), 0 cell(s)" in out
        code, out = run_cli(capsys, *base, "--on-error", "skip")
        assert code == 0 and "1 skipped (known failures)" in out

    def test_bad_fault_spec_exits(self, capsys):
        with pytest.raises(SystemExit, match="error:"):
            main([
                "exp", "run", "--scenario", "medianjob-track-60",
                "--inject-faults", "bogus", *TINY_NAMED,
            ])

    def test_on_error_rejects_unknown_mode(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "exp", "run", "--scenario", "medianjob-track-60",
                "--on-error", "explode", *TINY_NAMED,
            ])

    def test_failures_requires_exactly_one_store(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["exp", "failures"])
        with pytest.raises(SystemExit, match="exactly one"):
            main([
                "exp", "failures",
                "--store", f"dir:{tmp_path}", "--cache-dir", str(tmp_path),
            ])

    def test_failures_rejects_memory_store(self, capsys):
        with pytest.raises(SystemExit, match="persist"):
            main(["exp", "failures", "--store", "memory"])


class TestStorePrune:
    def _fill(self, capsys, tmp_path, names):
        for name in names:
            code, _ = run_cli(
                capsys,
                "exp", "run", "--scenario", name,
                "--backend", "serial", "--cache-dir", str(tmp_path),
                *TINY_NAMED,
            )
            assert code == 0

    def test_prune_evicts_oldest_beyond_cap(self, capsys, tmp_path):
        self._fill(
            capsys, tmp_path, ["medianjob-adaptive-60", "medianjob-track-60"]
        )
        assert len(list(tmp_path.glob("*.json"))) == 2
        code, out = run_cli(
            capsys,
            "exp", "store", "prune",
            "--cache-dir", str(tmp_path),
            "--max-entries", "1",
            "--verbose",
        )
        assert code == 0
        assert "pruned 1 entry" in out
        assert "evicted" in out
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_prune_noop_under_cap(self, capsys, tmp_path):
        code, out = run_cli(
            capsys,
            "exp", "store", "prune",
            "--store", f"dir:{tmp_path}",
            "--max-entries", "5",
        )
        assert code == 0
        assert "pruned 0 entries" in out

    def test_prune_requires_exactly_one_store(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["exp", "store", "prune", "--max-entries", "1"])
        with pytest.raises(SystemExit, match="exactly one"):
            main([
                "exp", "store", "prune", "--max-entries", "1",
                "--store", f"dir:{tmp_path}", "--cache-dir", str(tmp_path),
            ])
