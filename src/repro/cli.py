"""Command-line interface: ``repro-powercap``.

Subcommands:

* ``replay``  — replay one interval under a policy and cap, print the
  summary and an ASCII figure;
* ``grid``    — run the Figure 8 policy grid and print the bars;
* ``tables``  — print the static paper tables (Figures 2, 4, 5);
* ``model``   — evaluate the Section III model for a given cap;
* ``exp``     — the experiment harness (:mod:`repro.exp`):

  * ``exp list``     — the built-in scenario library;
  * ``exp platforms``/``exp policies`` — the platform and policy
    registries;
  * ``exp run``      — run named scenarios and/or a parameter grid
    through a pluggable execution backend (``--backend
    serial|pool|batch``,
    ``--shard k/n`` for one deterministic slice of a split sweep) and
    result store (``--store memory|dir:PATH``; ``shared:PATH`` is a
    synonym of ``dir:PATH``);
  * ``exp compare``  — metric-by-metric diff of two scenarios;
  * ``exp store prune`` — evict result-store entries over a
    count/age budget (``--max-entries/--max-age/--lru``);
  * ``exp checkpoints list/prune`` — inspect and evict the persistent
    warm-start checkpoints behind ``exp run --checkpoints``.
"""

from __future__ import annotations

import argparse
import sys

HOUR = 3600.0


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scale",
        type=float,
        default=0.125,
        help="machine scale factor (1.0 = the platform's full rack "
             "count, 5040 nodes on Curie; default 0.125)",
    )
    p.add_argument(
        "--platform",
        default="curie",
        metavar="NAME",
        help="platform registry entry to simulate (see `exp platforms`; "
             "default curie)",
    )


def _resolve_platform(name: str):
    """Registry lookup with a CLI-friendly error listing the entries."""
    from repro.platform import get_platform

    try:
        return get_platform(name)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")


def _resolve_policy(name: str):
    """Policy-registry lookup with a CLI-friendly error listing the
    entries (same UX as an unknown ``--platform``)."""
    from repro.policy import get_policy

    try:
        return get_policy(name)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.analysis.figures import figure_series, render_series_ascii
    from repro.workload.intervals import PAPER_INTERVALS, generate_interval

    platform = _resolve_platform(args.platform)
    policy_spec = _resolve_policy(args.policy)
    machine = platform.build_machine(scale=args.scale)
    spec = PAPER_INTERVALS[args.interval]
    jobs = generate_interval(
        machine,
        args.interval,
        seed=args.seed,
        classes=platform.interval_classes(args.interval),
        reference_cores=platform.workload_reference_cores,
    )
    series = figure_series(
        machine,
        jobs,
        args.policy,
        duration=spec.duration,
        cap_fraction=(
            None
            if not policy_spec.enforces_caps or args.cap >= 1.0
            else args.cap
        ),
        grid_dt=spec.duration / 200,
        platform=platform,
    )
    result = series["result"]
    print(render_series_ascii(series, width=args.width))
    print()
    for key, value in result.summary().items():
        print(f"{key:>20}: {value:,.4g}")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_grid, run_policy_grid
    from repro.workload.intervals import generate_interval

    platform = _resolve_platform(args.platform)
    machine = platform.build_machine(scale=args.scale)
    names = args.workloads.split(",")
    workloads = {
        n: generate_interval(
            machine,
            n,
            classes=platform.interval_classes(n),
            reference_cores=platform.workload_reference_cores,
        )
        for n in names
    }
    cells = run_policy_grid(machine, workloads, platform=platform)
    print(render_grid(cells))
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.core.powermodel import rho

    platform = _resolve_platform(args.platform)
    table = platform.frequency_table()
    topo = platform.topology()
    print(f"[{platform.name}] Figure 2 — enclosure power bonus")
    for row in topo.bonus_figure_rows(table.max.watts):
        print(
            f"  {row['level']:<8} components={row['component_watts']:>5.0f} W  "
            f"bonus={row['bonus_watts']:>5.0f} W  "
            f"accumulated={row['accumulated_watts']:>6.0f} W"
        )
    print(f"\n[{platform.name}] Figure 4 — node power per state")
    print(f"  {'Switch-off':<14}{table.down_watts:>6.0f} W")
    print(f"  {'Idle':<14}{table.idle_watts:>6.0f} W")
    for step in table:
        print(f"  DVFS {step.ghz:<4} GHz{step.watts:>8.0f} W")
    if platform.benchmark_degmin:
        print(f"\n[{platform.name}] Figure 5 — degmin / rho per benchmark")
        for name, degmin in platform.benchmark_degmin:
            r = rho(degmin, table.max.watts, table.min.watts, table.down_watts)
            best = "Switch-off" if r <= 0 else "DVFS"
            print(f"  {name:<14} degmin={degmin:<5} rho={r:+.3f}  -> {best}")
    else:
        print(f"\n[{platform.name}] no per-benchmark degradation table")
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    from repro.core.offline import OfflinePlanner
    from repro.rjms.reservations import PowercapReservation

    platform = _resolve_platform(args.platform)
    _resolve_policy(args.policy)
    machine = platform.build_machine(scale=args.scale)
    planner = OfflinePlanner(machine, platform.make_policy(args.policy, machine.freq_table))
    cap_watts = args.cap * machine.max_power()
    cap = PowercapReservation(0.0, HOUR, watts=cap_watts)
    plan = planner.plan(cap)
    mp = planner.model_plan(cap_watts)
    print(f"machine      : {machine.n_nodes} nodes, max {machine.max_power()/1e3:.0f} kW")
    print(f"cap          : {args.cap:.0%} = {cap_watts/1e3:.0f} kW")
    print(f"model case   : {mp.case.value} (rho={mp.rho:+.3f})")
    print(f"model Noff   : {mp.n_off:.1f}   model Ndvfs: {mp.n_dvfs:.1f}")
    if plan.any_shutdown:
        print(
            f"offline plan : {plan.n_off_selected} nodes off "
            f"({plan.n_full_racks} racks + {plan.n_full_chassis} chassis), "
            f"bonus {plan.bonus_watts/1e3:.2f} kW"
        )
        print(f"worst case   : {plan.worst_case_alive_watts/1e3:.0f} kW alive <= cap")
    else:
        print("offline plan : no switch-off (policy or cap does not require it)")
    return 0


def _parse_grid_spec(tokens: list[str]) -> dict[str, list]:
    """Parse ``key=v1,v2`` tokens into :func:`expand_grid` axes.

    Example: ``interval=bigjob,smalljob policy=SHUT,DVFS cap=0.8,0.4
    platform=curie,manythin``.
    """
    convert = {
        "cap": float,
        "seed": int,
        "interval": str,
        "policy": str,
        "platform": str,
    }
    axes: dict[str, list] = {}
    for token in tokens:
        key, _, values = token.partition("=")
        if not values:
            raise SystemExit(f"bad grid token {token!r}: expected key=v1,v2,...")
        if key not in convert:
            raise SystemExit(
                f"unknown grid axis {key!r}; allowed: {', '.join(convert)}"
            )
        if key in axes:
            raise SystemExit(
                f"duplicate grid axis {key!r}: merge the values into one token"
            )
        axes[key] = [convert[key](v) for v in values.split(",") if v]
        if not axes[key]:
            raise SystemExit(f"empty value list in grid token {token!r}")
    return axes


def _add_runner_args(p: argparse.ArgumentParser) -> None:
    """Execution-backend and result-store options of ``exp run/compare``."""
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = serial)")
    p.add_argument("--backend", default=None,
                   choices=["serial", "pool", "batch", "batch-pool"],
                   help="execution backend (default: pool when --workers > 1, "
                        "serial otherwise): serial and batch run in-process, "
                        "pool and batch-pool on --workers worker processes "
                        "(in-process with --workers 1), longest estimated "
                        "unit first; the batch names replay "
                        "same-platform scenarios that differ only in caps "
                        "as one lockstep group")
    p.add_argument("--shard", default=None, metavar="K/N",
                   help="run only the deterministic shard K of N of the "
                        "scenario set (1-based, e.g. 2/3); independent jobs "
                        "running the other shards against one shared store "
                        "reassemble the full sweep")
    p.add_argument("--store", default=None, metavar="SPEC",
                   help="result store: memory, or a directory as dir:PATH "
                        "(shared:PATH and a bare path are synonyms); one "
                        "directory is safe for concurrent writers, also "
                        "across machines on a network filesystem")
    p.add_argument("--cache-dir", default=None,
                   help="per-scenario result cache directory "
                        "(shorthand for --store dir:PATH)")
    p.add_argument("--checkpoints", default=None, metavar="SPEC",
                   help="persistent warm-start checkpoint store: a "
                        "directory as PATH or dir:PATH (shared:PATH is a "
                        "synonym), safe for concurrent writers; cap-"
                        "sweep prefixes computed once are restored by "
                        "every later run pointing at the same store, "
                        "across backends and machines")
    p.add_argument("--max-retries", type=int, default=0, metavar="N",
                   help="retry a failed scenario up to N times with "
                        "exponential backoff before giving up (default 0: "
                        "fail on the first error)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-scenario wall-clock budget; a scenario past it "
                        "is presumed hung and its workers are killed and "
                        "respawned.  Only pool and batch-pool with --workers "
                        "> 1 enforce it; in-process backends warn and "
                        "ignore it")
    p.add_argument("--on-error", default="raise",
                   choices=["raise", "skip", "quarantine"],
                   help="disposition of scenarios that exhaust their "
                        "attempts: raise (abort the sweep, default), skip "
                        "(drop them; known failures are not re-attempted), "
                        "or quarantine (drop them, keep a persisted failure "
                        "record, retry on later sweeps)")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="arm a deterministic fault plan over the scenario "
                        "set: seed:N[:RATE[:TIMES]] (TIMES '*' = every "
                        "attempt) or @plan.json; for chaos-testing the "
                        "sweep machinery")


def _build_runner(args: argparse.Namespace):
    """A :class:`GridRunner` from the ``--backend/--shard/--store``
    (and legacy ``--workers/--cache-dir``) arguments."""
    from repro.exp import GridRunner, RetryPolicy, make_backend, make_store

    kwargs: dict = {}
    try:
        if args.backend is not None or getattr(args, "shard", None) is not None:
            kwargs["backend"] = make_backend(
                args.backend,
                workers=args.workers,
                shard=getattr(args, "shard", None),
            )
        else:
            kwargs["workers"] = args.workers
        if args.store is not None:
            if args.cache_dir is not None:
                raise ValueError("pass --store or --cache-dir, not both")
            kwargs["store"] = make_store(args.store)
        else:
            kwargs["cache_dir"] = args.cache_dir
        max_retries = getattr(args, "max_retries", 0)
        if max_retries < 0:
            raise ValueError("--max-retries cannot be negative")
        if max_retries:
            kwargs["retry"] = RetryPolicy(max_attempts=max_retries + 1)
        kwargs["timeout"] = getattr(args, "timeout", None)
        kwargs["on_error"] = getattr(args, "on_error", "raise")
        if getattr(args, "checkpoints", None) is not None:
            from repro.exp import make_checkpoint_store

            kwargs["checkpoints"] = make_checkpoint_store(args.checkpoints)
        if getattr(args, "profile", None) is not None:
            kwargs["profile_dir"] = args.profile
        return GridRunner(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _gather_scenarios(args: argparse.Namespace) -> list:
    from repro.exp import expand_grid, get_scenario, scenario_names

    platform = getattr(args, "platform", None)
    if platform is not None:
        _resolve_platform(platform)
    names = list(args.scenario or ())
    if getattr(args, "library", False):
        names.extend(n for n in scenario_names() if n not in names)
    scenarios = []
    try:
        for name in names:
            sc = get_scenario(name)
            if platform is not None:
                sc = sc.with_(platform=platform)
            if args.scale is not None:
                sc = sc.with_(scale=args.scale)
            if args.duration is not None:
                # Revalidated by Scenario: a window beyond the new
                # duration is rejected rather than silently kept.
                sc = sc.with_(duration=args.duration * HOUR)
            scenarios.append(sc)
        if args.grid:
            axes = _parse_grid_spec(args.grid)
            if platform is not None and "platform" not in axes:
                axes["platform"] = [platform]
            kwargs = {}
            if args.scale is not None:
                kwargs["scale"] = args.scale
            if args.duration is not None:
                kwargs["duration"] = args.duration * HOUR
            scenarios.extend(expand_grid(axes, **kwargs))
    except (ValueError, KeyError) as exc:
        # Scenario validation errors are user input errors at the CLI.
        raise SystemExit(f"error: {exc.args[0] if exc.args else exc}")
    if not scenarios:
        raise SystemExit("nothing to run: pass --scenario, --library and/or --grid")
    return scenarios


def cmd_exp_list(args: argparse.Namespace) -> int:
    from repro.exp import SCENARIO_LIBRARY

    wanted = getattr(args, "platform", None)
    if wanted is not None:
        _resolve_platform(wanted)
    if args.names:
        for sc in SCENARIO_LIBRARY:
            if wanted is None or sc.platform == wanted:
                print(sc.name)
        return 0
    header = (
        f"{'name':<28} {'hash':<16} {'platform':<10} {'interval':>9} "
        f"{'policy':>6} {'dur(h)':>6} {'caps':<24}"
    )
    print(header)
    print("-" * len(header))
    for sc in SCENARIO_LIBRARY:
        if wanted is not None and sc.platform != wanted:
            continue
        caps = " ".join(
            f"{c.fraction:.0%}@[{c.start / HOUR:g},{c.end / HOUR:g}h)" for c in sc.caps
        ) or "-"
        print(
            f"{sc.name:<28} {sc.scenario_hash():<16} {sc.platform:<10.10} "
            f"{sc.interval:>9} {sc.policy_name:>6} "
            f"{sc.effective_duration / HOUR:>6g} {caps:<24}"
        )
    return 0


def cmd_exp_platforms(args: argparse.Namespace) -> int:
    from repro.platform import platform_specs

    header = (
        f"{'name':<10} {'hash':<16} {'nodes':>6} {'cores/n':>7} "
        f"{'DVFS (GHz)':<14} {'steps':>5} {'max kW':>7} description"
    )
    print(header)
    print("-" * len(header))
    for pf in platform_specs():
        table = pf.frequency_table()
        machine = pf.build_machine()
        ghz_range = f"{table.min.ghz:g}-{table.max.ghz:g}"
        print(
            f"{pf.name:<10.10} {pf.content_hash():<16} {machine.n_nodes:>6d} "
            f"{pf.cores_per_node:>7d} {ghz_range:<14} {len(table):>5d} "
            f"{machine.max_power() / 1e3:>7.0f} {pf.description}"
        )
    return 0


def cmd_exp_policies(args: argparse.Namespace) -> int:
    from repro.policy import policy_specs

    if args.names:
        for spec in policy_specs():
            print(spec.name)
        return 0
    header = (
        f"{'name':<10} {'hash':<16} {'shutdown':<9} {'frequency':<9} "
        f"{'range':<5} {'caps':<4} {'gain':>5} description"
    )
    print(header)
    print("-" * len(header))
    for spec in policy_specs():
        gain = f"{spec.track_gain:g}" if spec.frequency == "track" else "-"
        print(
            f"{spec.name:<10.10} {spec.content_hash():<16} {spec.shutdown:<9} "
            f"{spec.frequency:<9} {spec.freq_range:<5} "
            f"{'yes' if spec.enforces_caps else 'no':<4} {gain:>5} "
            f"{spec.description}"
        )
    return 0


def _prune_budget(args: argparse.Namespace) -> tuple[int | None, float | None]:
    """Validate and convert the shared ``--max-entries/--max-age`` pair."""
    if args.max_entries is None and args.max_age is None:
        raise SystemExit("error: pass --max-entries and/or --max-age")
    max_age = args.max_age * HOUR if args.max_age is not None else None
    return args.max_entries, max_age


def _describe_budget(args: argparse.Namespace) -> str:
    parts = []
    if args.max_entries is not None:
        parts.append(f"cap {args.max_entries}")
    if args.max_age is not None:
        parts.append(f"max age {args.max_age:g}h")
    if getattr(args, "lru", False):
        parts.append("lru")
    return ", ".join(parts)


def cmd_exp_store_prune(args: argparse.Namespace) -> int:
    from repro.exp import make_store

    if (args.store is None) == (args.cache_dir is None):
        raise SystemExit("error: pass exactly one of --store or --cache-dir")
    spec = args.store if args.store is not None else f"dir:{args.cache_dir}"
    max_entries, max_age = _prune_budget(args)
    try:
        store = make_store(spec)
        removed = store.prune(max_entries, max_age=max_age, lru=args.lru)
    except (NotImplementedError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    kept = len(store.keys())
    print(
        f"pruned {len(removed)} entr{'y' if len(removed) == 1 else 'ies'} "
        f"from {spec} ({kept} kept, {_describe_budget(args)})"
    )
    if args.verbose:
        for key in removed:
            print(f"  evicted {key}")
    return 0


def cmd_exp_checkpoints_list(args: argparse.Namespace) -> int:
    from repro.exp import make_checkpoint_store

    try:
        store = make_checkpoint_store(args.checkpoints)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if not hasattr(store, "_peek_horizon"):
        raise SystemExit("error: a memory checkpoint store has nothing to list")
    keys = store.keys()
    if not keys:
        print(f"no checkpoints in {args.checkpoints}")
        return 0
    import time as _time

    now = _time.time()
    print(f"{'key':<42} {'horizon':>10} {'size':>9} {'age':>8}")
    print("-" * 73)
    total = 0
    for key in keys:
        horizon = store._peek_horizon(key)
        hz = f"{horizon:.0f}s" if horizon is not None else "?"
        size = 0
        age = "?"
        for path in (store._path(key, s) for s in store._suffixes):
            try:
                st = path.stat()
            except OSError:
                continue
            size += st.st_size
            age = f"{(now - st.st_mtime) / HOUR:.1f}h"
        total += size
        print(f"{key:<42} {hz:>10} {size:>9d} {age:>8}")
    print(
        f"{len(keys)} checkpoint(s), {total / 1e6:.2f} MB in {args.checkpoints}"
    )
    return 0


def cmd_exp_checkpoints_prune(args: argparse.Namespace) -> int:
    from repro.exp import make_checkpoint_store

    max_entries, max_age = _prune_budget(args)
    try:
        store = make_checkpoint_store(args.checkpoints)
        removed = store.prune(max_entries, max_age=max_age, lru=args.lru)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    kept = len(store.keys())
    print(
        f"pruned {len(removed)} checkpoint(s) from {args.checkpoints} "
        f"({kept} kept, {_describe_budget(args)})"
    )
    if args.verbose:
        for key in removed:
            print(f"  evicted {key}")
    return 0


def cmd_exp_failures(args: argparse.Namespace) -> int:
    from repro.exp import make_store

    if (args.store is None) == (args.cache_dir is None):
        raise SystemExit("error: pass exactly one of --store or --cache-dir")
    spec = args.store if args.store is not None else f"dir:{args.cache_dir}"
    try:
        store = make_store(spec)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if not store.persists_failures:
        raise SystemExit(f"error: store {spec} does not persist failure records")
    records = store.failures()
    if not records:
        print(f"no failure records in {spec}")
        return 0
    if args.clear:
        for record in records:
            store.pop_failure(record.key)
        print(f"cleared {len(records)} failure record(s) from {spec}")
        return 0
    header = (
        f"{'scenario':<28} {'hash':<16} {'kind':<8} {'state':<12} "
        f"{'att':>3} {'backend':<14} error"
    )
    print(header)
    print("-" * len(header))
    for record in sorted(records, key=lambda r: r.scenario_name):
        state = (
            "quarantined"
            if record.quarantined
            else "skipped" if record.skipped else "failed"
        )
        print(
            f"{record.scenario_name:<28.28} {record.scenario_hash:<16} "
            f"{record.kind:<8} {state:<12} {record.attempts:>3d} "
            f"{record.backend:<14.14} {record.error_type}: {record.message}"
        )
    print(f"{len(records)} failure record(s); a successful re-run heals them")
    return 1


def _print_profile_summary(profile_dir: str, top: int = 15) -> None:
    """Aggregate the sweep's ``.pstats`` dumps into one hot-path table."""
    import io
    import pstats
    from pathlib import Path

    paths = sorted(Path(profile_dir).glob("*.pstats"))
    if not paths:
        print(f"no profile stats written under {profile_dir}")
        return
    stream = io.StringIO()
    stats = pstats.Stats(*map(str, paths), stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    print()
    print(
        f"hot paths ({len(paths)} profile(s) under {profile_dir}, "
        f"top {top} by cumulative time):"
    )
    print(stream.getvalue().rstrip())


def _print_sweep_plan(args: argparse.Namespace, scenarios: list) -> int:
    """``exp run --plan``: the batch-pool schedule, nothing executed.

    Builds the sweep's runner for its store, shard and ``--on-error``,
    takes the scenarios its sweep would execute
    (:meth:`repro.exp.GridRunner.select`), and prints the placement
    the pool computes for ``--workers`` workers
    (:func:`repro.exp.backends.place_units`).
    """
    from repro.exp import shm
    from repro.exp.backends import place_units
    from repro.exp.costmodel import plan_table

    with _build_runner(args) as runner:
        to_run = runner.select(scenarios).to_run
    workers = max(1, args.workers)
    print(plan_table(place_units(to_run, True, workers), workers))
    print(shm.status_line())
    return 0


def cmd_exp_run(args: argparse.Namespace) -> int:
    import contextlib

    from repro.exp import (
        injected,
        parse_fault_plan,
        render_results_grid,
        results_table,
    )

    scenarios = _gather_scenarios(args)
    if getattr(args, "plan", False):
        return _print_sweep_plan(args, scenarios)
    chaos = contextlib.nullcontext()
    if args.inject_faults is not None:
        try:
            plan = parse_fault_plan(
                args.inject_faults, (sc.scenario_hash() for sc in scenarios)
            )
        except (ValueError, OSError) as exc:
            raise SystemExit(f"error: {exc}")
        kinds = ", ".join(
            f"{k}x{n}" for k, n in sorted(plan.kinds_planned().items())
        ) or "none"
        print(f"fault plan armed: {len(plan.specs)} fault(s) ({kinds})")
        chaos = injected(plan)
    with _build_runner(args) as runner, chaos:
        total = sum(
            1 for sc in scenarios if runner.backend.owns(sc.scenario_hash())
        )
        where = f"backend {runner.backend.name}"
        if args.workers > 1:
            where += f", {args.workers} workers"
        if args.store:
            where += f", store {args.store}"
        elif args.cache_dir:
            where += f", cache {args.cache_dir}"
        if total != len(scenarios):
            print(
                f"running {total} of {len(scenarios)} scenario(s) "
                f"({where}; the rest belong to other shards)"
            )
        else:
            print(f"running {total} scenario(s) ({where})")
        done = 0

        def progress(result) -> None:
            nonlocal done
            done += 1
            src = "cache" if result.cached else f"{result.wall_seconds:.1f}s"
            print(f"  [{done}/{total}] {result.scenario.name} ({src})")

        report = runner.sweep(scenarios, progress=progress)
    print()
    print(results_table(report.results))
    if args.bars:
        print()
        print(render_results_grid(report.results))
    print()
    print(f"sweep: {report.summary()}")
    for record in report.failures:
        state = "quarantined" if record.quarantined else "FAILED"
        print(
            f"  {state}: {record.scenario_name} ({record.scenario_hash}) "
            f"[{record.kind}/{record.error_type}] after "
            f"{record.attempts} attempt(s): {record.message}"
        )
    for record in report.skipped:
        print(
            f"  skipped (known failure): {record.scenario_name} "
            f"({record.scenario_hash}) [{record.kind}]"
        )
    if getattr(args, "profile", None) is not None:
        _print_profile_summary(args.profile)
    # Quarantined/skipped scenarios are an accounted-for, deliberate
    # outcome; anything else lost makes the run fail.
    return 1 if report.unquarantined_losses else 0


def cmd_exp_compare(args: argparse.Namespace) -> int:
    from repro.exp import compare_results, get_scenario

    try:
        a, b = get_scenario(args.a), get_scenario(args.b)
        if args.platform is not None:
            a, b = a.with_(platform=args.platform), b.with_(platform=args.platform)
        if args.scale is not None:
            a, b = a.with_(scale=args.scale), b.with_(scale=args.scale)
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"error: {exc.args[0] if exc.args else exc}")
    with _build_runner(args) as runner:
        results = runner.run([a, b])
    if len(results) != 2:
        # A sharded backend only executes its own slice; a comparison
        # needs both sides, so run the shards into a shared store
        # first and compare against that store without --shard.
        raise SystemExit(
            "error: the backend produced only "
            f"{len(results)} of the 2 scenarios (sharded run?); "
            "compare without --shard, pointing --store at the shards' "
            "shared store"
        )
    print(compare_results(*results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-powercap",
        description="Power-capped RJMS scheduling (IPDPSW'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("replay", help="replay one interval under a policy")
    _add_machine_args(p)
    p.add_argument("--interval", default="medianjob",
                   choices=["medianjob", "smalljob", "bigjob", "24h"])
    p.add_argument("--policy", default="MIX", metavar="NAME",
                   help="policy registry entry (see `exp policies`; "
                        "default MIX)")
    p.add_argument("--cap", type=float, default=0.6,
                   help="cap fraction of max power (1.0 disables)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--width", type=int, default=96)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("grid", help="run the Figure 8 policy grid")
    _add_machine_args(p)
    p.add_argument("--workloads", default="bigjob,medianjob,smalljob")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("tables", help="print the static paper tables")
    p.add_argument("--platform", default="curie", metavar="NAME",
                   help="platform whose tables to print (default curie)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("model", help="evaluate the Section III model")
    _add_machine_args(p)
    p.add_argument("--policy", default="SHUT", metavar="NAME",
                   help="policy registry entry (see `exp policies`; "
                        "default SHUT)")
    p.add_argument("--cap", type=float, required=True)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("exp", help="experiment harness (scenario sweeps)")
    exp_sub = p.add_subparsers(dest="exp_command", required=True)

    p = exp_sub.add_parser("list", help="list the built-in scenario library")
    p.add_argument("--platform", default=None, metavar="NAME",
                   help="only list scenarios of this platform")
    p.add_argument("--names", action="store_true",
                   help="print bare scenario names only (one per line, "
                        "for scripting)")
    p.set_defaults(func=cmd_exp_list)

    p = exp_sub.add_parser(
        "platforms", help="list the platform registry entries"
    )
    p.set_defaults(func=cmd_exp_platforms)

    p = exp_sub.add_parser(
        "policies", help="list the policy registry entries"
    )
    p.add_argument("--names", action="store_true",
                   help="print bare policy names only (one per line, "
                        "for scripting)")
    p.set_defaults(func=cmd_exp_policies)

    p = exp_sub.add_parser(
        "store", help="result-store maintenance"
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    def _add_prune_budget_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-entries", type=int, default=None,
                       help="keep at most this many entries (oldest "
                            "evicted first)")
        p.add_argument("--max-age", type=float, default=None, metavar="HOURS",
                       help="evict entries older than this many hours")
        p.add_argument("--lru", action="store_true",
                       help="order and age entries by last access instead "
                            "of last write (hits bump the access time)")
        p.add_argument("--verbose", action="store_true",
                       help="print each evicted key")

    p = store_sub.add_parser(
        "prune",
        help="evict store entries beyond a size and/or age budget",
    )
    p.add_argument("--store", default=None, metavar="SPEC",
                   help="result store to prune: dir:PATH (shared:PATH is "
                        "a synonym)")
    p.add_argument("--cache-dir", default=None,
                   help="shorthand for --store dir:PATH")
    _add_prune_budget_args(p)
    p.set_defaults(func=cmd_exp_store_prune)

    p = exp_sub.add_parser(
        "checkpoints", help="warm-start checkpoint-store maintenance"
    )
    ckpt_sub = p.add_subparsers(dest="checkpoints_command", required=True)
    p = ckpt_sub.add_parser(
        "list", help="list stored warm-start checkpoints"
    )
    p.add_argument("--checkpoints", required=True, metavar="SPEC",
                   help="checkpoint store: a directory as PATH or "
                        "dir:PATH (shared:PATH is a synonym)")
    p.set_defaults(func=cmd_exp_checkpoints_list)
    p = ckpt_sub.add_parser(
        "prune",
        help="evict checkpoints beyond a size and/or age budget",
    )
    p.add_argument("--checkpoints", required=True, metavar="SPEC",
                   help="checkpoint store: a directory as PATH or "
                        "dir:PATH (shared:PATH is a synonym)")
    _add_prune_budget_args(p)
    p.set_defaults(func=cmd_exp_checkpoints_prune)

    p = exp_sub.add_parser(
        "failures",
        help="list (or clear) persisted per-scenario failure records",
    )
    p.add_argument("--store", default=None, metavar="SPEC",
                   help="result store to inspect: dir:PATH (shared:PATH "
                        "is a synonym)")
    p.add_argument("--cache-dir", default=None,
                   help="shorthand for --store dir:PATH")
    p.add_argument("--clear", action="store_true",
                   help="delete every failure record instead of listing")
    p.set_defaults(func=cmd_exp_failures)

    p = exp_sub.add_parser("run", help="run scenarios / a parameter grid")
    p.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="library scenario to run (repeatable)",
    )
    p.add_argument(
        "--library",
        action="store_true",
        help="run every library scenario (combines with --scenario/--grid; "
             "overrides like --scale/--platform apply to them too)",
    )
    p.add_argument(
        "--grid",
        nargs="+",
        metavar="AXIS=V1,V2",
        help="parameter grid, e.g. interval=bigjob,smalljob policy=SHUT,MIX "
             "cap=0.8,0.4 platform=curie,manythin",
    )
    p.add_argument("--scale", type=float, default=None,
                   help="override the machine scale of every scenario")
    p.add_argument("--platform", default=None, metavar="NAME",
                   help="override the platform of every named scenario and "
                        "default the grid's platform axis (see `exp platforms`)")
    p.add_argument("--duration", type=float, default=None,
                   help="replay length in hours (overrides the scenario/interval "
                        "default; cap windows keep their absolute placement, and "
                        "shrinking below a window is rejected)")
    _add_runner_args(p)
    p.add_argument("--bars", action="store_true",
                   help="also print the Figure 8 bar rendering")
    p.add_argument("--profile", default=None, metavar="DIR",
                   help="dump per-scenario cProfile stats into DIR "
                        "(<scenario_hash>.pstats) and print an aggregated "
                        "top-N hot-path summary after the sweep")
    p.add_argument("--plan", action="store_true",
                   help="print the batch-pool schedule without executing "
                        "anything: every unit (lockstep groups and "
                        "singleton cells in one queue) with its cost "
                        "estimate and LPT worker placement; scenarios the "
                        "store already holds, and known failures under "
                        "--on-error skip, are left out, as the sweep "
                        "would not run them")
    p.set_defaults(func=cmd_exp_run)

    p = exp_sub.add_parser("compare", help="compare two library scenarios")
    p.add_argument("a", help="first scenario name")
    p.add_argument("b", help="second scenario name")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--platform", default=None, metavar="NAME",
                   help="override the platform of both scenarios")
    _add_runner_args(p)
    p.set_defaults(func=cmd_exp_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
