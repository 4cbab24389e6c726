"""Command-line interface for the DarwinGame reproduction.

Subcommands::

    python -m repro tune --app redis --scale bench --seed 7 --save tune.jsonl
    python -m repro report tune.jsonl
    python -m repro compare --app lammps --strategies DarwinGame,BLISS
    python -m repro experiment --name fig10 --scale test --jobs 4
    python -m repro table1
    python -m repro sweep --apps redis,lammps --seeds 0,1,2 --jobs 4 \
        --store sweep.jsonl --telemetry --progress
    python -m repro resume sweep.jsonl --jobs 4
    python -m repro serve --port 8765 --data-root serve.d --telemetry
    python -m repro status sweep.jsonl --watch
    python -m repro report sweep.jsonl
    python -m repro report sweep.jsonl --metrics
    python -m repro store info sweep.jsonl

Global ``--verbose`` / ``--quiet`` (before the subcommand) tune how chatty
every command is; progress and status lines flow through the ``repro``
logger (:mod:`repro.telemetry.log`), result tables through stdout.

The CLI is a thin layer over the library: tune/compare/sweep/resume/
status/report and the ``serve`` daemon all drive the stable
:mod:`repro.api` facade, so anything a subcommand prints can be recomputed
programmatically (and the rest through :mod:`repro.experiments` and
:mod:`repro.campaigns`).  ``tune`` and ``compare`` are one-cell sweeps —
one app, VM and seed — so ``tune --save`` writes the same campaign store
the equivalent ``sweep --store`` writes, and ``report`` reads campaign
stores only.  A :class:`~repro.errors.ReproError` from any subcommand — a
store that cannot be opened, a grid that does not validate — prints one
line and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import api
from repro.apps.registry import APPLICATION_NAMES
from repro.apps.scaling import level_cap
from repro.campaigns import CampaignGrid, open_store
from repro.campaigns.dispatch import MAX_JOBS
from repro.campaigns.runner import cached_application
from repro.campaigns.store import SIDECAR_PROFILES, SIDECAR_TELEMETRY
from repro.cloud.vm import PRESETS
from repro.errors import ReproError, SpaceError
from repro.faults import FaultPlan
from repro.experiments import (
    render_table,
    run_format_power,
    run_headline,
    run_sensitivity,
    run_shift_study,
    run_stability,
    run_statistical_comparison,
    run_table1,
    run_vm_sweep,
)
from repro.experiments.format_power import FORMAT_NAMES
from repro.formats.recipes import TOURNAMENT_FORMAT_NAMES
from repro.scenarios import SCENARIO_NAMES
from repro.telemetry import (
    LiveProgress,
    configure_logging,
    get_logger,
    render_status,
    render_store_metrics,
    watch,
)

_LOG = get_logger("cli")

_EXPERIMENTS = (
    "fig10", "fig11", "fig12", "fig15", "stability", "sensitivity",
    "formats", "shift", "statistical", "scenarios",
)

#: Where the execution flags take their defaults: the sweep options' own.
_SWEEP_DEFAULTS = api.SweepOptions()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--app", default="redis", choices=APPLICATION_NAMES, help="application to tune"
    )
    parser.add_argument("--scale", default="bench", help="space scale preset")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--vm", default="m5.8xlarge", choices=sorted(PRESETS), help="instance type"
    )
    parser.add_argument(
        "--scenario", default="steady", metavar="PACK",
        help=f"dynamic-cloud scenario pack (registered: {', '.join(SCENARIO_NAMES)})",
    )
    parser.add_argument(
        "--format", default="darwin", metavar="RECIPE", dest="format",
        help="tournament-format recipe for the DarwinGame engine "
             f"(registered: {', '.join(TOURNAMENT_FORMAT_NAMES)})",
    )


def _run_one_cell(args: argparse.Namespace, strategies: tuple,
                  store: Optional[str] = None):
    """Run ``args``' app, VM, seed, scenario and format under each of
    ``strategies`` as a one-cell grid through :func:`repro.api.submit_grid`.

    Returns the records in strategy order, or ``None`` once every failed
    campaign is logged.  A failure is not retried: it is a deterministic
    function of the spec.
    """
    grid = CampaignGrid(
        apps=(args.app,),
        strategies=strategies,
        vms=(args.vm,),
        seeds=(args.seed,),
        scale=args.scale,
        scenarios=(args.scenario,),
        formats=(args.format,),
    )
    job = api.submit_grid(grid, api.SweepOptions(max_retries=0), store=store)
    report = job.result()
    for record in report.failures:
        _LOG.error("campaign %s failed: %s", record.campaign_id, record.error)
    return None if report.failures else report.records


def _cmd_tune(args: argparse.Namespace) -> int:
    records = _run_one_cell(args, (args.strategy,), store=args.save or None)
    if records is None:
        return 1
    (record,) = records
    # The campaign ran in this process, so this is the app it tuned.
    app = cached_application(args.app, args.scale)
    print(render_table(
        ["metric", "value"],
        [
            ("application", app.name),
            ("search space", app.space.size),
            ("scenario", args.scenario),
            ("format", args.format),
            ("strategy", args.strategy),
            ("chosen index", record.best_index),
            ("mean cloud exec time (s)", record.mean_time),
            ("CoV %", record.cov_percent),
            ("tuning core-hours", record.core_hours),
        ],
        title=f"{args.strategy} on {app.name} ({args.vm})",
    ))
    print("\nChosen configuration:")
    for knob, value in app.space.config_dict(record.best_index).items():
        print(f"  {knob} = {value}")
    if args.save:
        print(f"\nCampaign stored in {args.save}")
    return 0


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def report(finished: int, total: int, record) -> None:
        mark = "ok" if record.ok else "FAILED"
        _LOG.info("[%d/%d] %s %s", finished, total, record.campaign_id, mark)

    return report


def _fault_plan_from_args(args: argparse.Namespace):
    """Parse ``--inject-faults`` (empty = no chaos); raises ReproError."""
    text = getattr(args, "inject_faults", "")
    if not text:
        return None
    try:
        return FaultPlan.parse(text)
    except ReproError as exc:
        raise ReproError(f"bad --inject-faults plan: {exc}") from None


def _options_from_args(args: argparse.Namespace) -> api.SweepOptions:
    """One :class:`repro.api.SweepOptions` from the shared CLI flags."""
    return api.SweepOptions(
        jobs=args.jobs,
        max_retries=args.max_retries,
        backoff=args.backoff,
        task_timeout=args.task_timeout,
        telemetry=args.telemetry,
        profile=args.profile,
        fault_plan=_fault_plan_from_args(args),
    )


def _run_sweep(grid: CampaignGrid, args: argparse.Namespace) -> int:
    """Execute a grid into ``args.store`` through :func:`repro.api.
    submit_grid` and render the outcome the way ``repro sweep`` always has."""
    options = _options_from_args(args)
    # --progress swaps the per-campaign log lines for one in-place meter
    # with throughput and an EWMA ETA; --quiet silences both.
    meter = LiveProgress() if args.progress and not args.quiet else None
    progress = meter if meter is not None else _progress_printer(args.quiet)
    try:
        job = api.submit_grid(
            grid, options, store=args.store, progress=progress
        )
    finally:
        if meter is not None:
            meter.close()
    report = job.result()
    store = job.store
    print(job.report().table(title=f"sweep {store.path}"))
    if report.failures:
        print(job.report(view="failures").table(
            title=f"sweep {store.path} failures"
        ))
    _LOG.info(
        "executed %d, skipped %d already stored, %d retries, "
        "%.1fs wall with --jobs %d (%.1f campaigns/min)",
        report.executed, report.skipped, report.retries,
        report.wall_seconds, report.jobs, report.campaigns_per_minute,
    )
    if options.telemetry:
        _LOG.info(
            "telemetry sidecar: %s (inspect with `repro status %s` or "
            "`repro report %s --metrics`)",
            store.sidecar_path(SIDECAR_TELEMETRY), store.path, store.path,
        )
    if options.profile:
        _LOG.info("campaign profiles: %s", store.sidecar_path(SIDECAR_PROFILES))
    return 1 if report.failures else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    def csv(text: str) -> tuple:
        return tuple(s.strip() for s in text.split(",") if s.strip())

    try:
        seeds = tuple(int(s) for s in csv(args.seeds))
    except ValueError:
        raise ReproError(
            f"seeds must be integers, got {args.seeds!r} (fix --seeds)"
        ) from None
    grid = CampaignGrid(
        apps=csv(args.apps),
        strategies=csv(args.strategies),
        vms=csv(args.vms),
        seeds=seeds,
        scale=args.scale,
        eval_runs=args.eval_runs,
        scenarios=csv(args.scenarios),
        formats=csv(args.formats),
    )
    return _run_sweep(grid, args)


def _cmd_resume(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    if not store.exists():
        _LOG.error(
            "no store at %s; start one with `repro sweep --store`", store.path
        )
        return 2
    grid = store.read_grid()
    if grid is None:
        _LOG.error(
            "%s has no grid header; re-run `repro sweep` with the original "
            "arguments and --store %s", store.path, store.path,
        )
        return 2
    return _run_sweep(grid, args)


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so plain CLI runs never pay for the service stack.
    from repro.service import ServiceConfig, TenantQuota, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        data_root=args.data_root,
        options=_options_from_args(args),
        quota=TenantQuota(
            core_hours=args.quota_core_hours or None,
            max_active=args.quota_max_active,
        ),
    )
    return serve(config)


def _cmd_status(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    if not store.exists():
        _LOG.error(
            "no store at %s; start one with `repro sweep --store`", store.path
        )
        return 2
    if args.watch:
        watch(store.path, interval=args.interval)
        return 0
    snap = api.job_status(store)
    if args.json:
        print(json.dumps(snap.to_payload(), sort_keys=True))
    else:
        print(render_status(snap))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = open_store(args.path)
    grid, records = store.load()
    if grid is None and not records:
        raise ReproError(
            f"no campaigns stored at {args.path}; write some with "
            f"`repro sweep --store` or `repro tune --save`"
        )
    if args.view == "metrics":
        print(render_store_metrics(args.path), end="")
        return 0
    suffix = "" if args.view == "summary" else " " + args.view.replace("-", " ")
    print(api.fetch_report(store, view=args.view).table(
        title=f"sweep {args.path}{suffix}"
    ))
    if grid is not None:
        done = {r.campaign_id for r in records if r.ok}
        pending = sum(1 for s in grid.specs() if s.campaign_id not in done)
        if pending:
            _LOG.info(
                "%d of %d campaigns still pending — finish with: "
                "python -m repro resume %s", pending, grid.size, args.path,
            )
    return 0


def _store_disk_bytes(path) -> int:
    """Bytes on disk for a store path."""
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _cmd_store_info(args: argparse.Namespace) -> int:
    store = open_store(args.path)
    if not store.exists():
        _LOG.error("no store at %s", store.path)
        return 2
    grid, records = store.load()
    done = sum(1 for r in records if r.ok)
    failed = len(records) - done
    rows = [
        ("path", str(store.path)),
        ("records", len(records)),
        ("done", done),
        ("failed", failed),
        ("grid campaigns", grid.size if grid is not None else "no header"),
        ("size (KiB)", round(_store_disk_bytes(store.path) / 1024, 1)),
    ]
    if grid is not None:
        done_ids = {r.campaign_id for r in records if r.ok}
        pending = sum(1 for s in grid.specs() if s.campaign_id not in done_ids)
        rows.append(("pending", pending))
    print(render_table(["field", "value"], rows, title=f"store {args.path}"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    strategies = tuple(s.strip() for s in args.strategies.split(","))
    records = _run_one_cell(args, strategies)
    if records is None:
        return 1
    print(render_table(
        ["strategy", "exec time (s)", "CoV %", "core-hours"],
        [(r.spec.strategy, r.mean_time, r.cov_percent, r.core_hours)
         for r in records],
        title=f"Comparison on {args.app} (scale={args.scale}, "
              f"seed={args.seed}, scenario={args.scenario}, "
              f"format={args.format})",
    ))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    # Up front, as `sweep` does: a bad scale would otherwise surface only
    # as every campaign failing.
    try:
        level_cap(args.scale)
    except SpaceError as exc:
        raise ReproError(f"{exc} (fix --scale)") from None
    if args.seed < 0:
        raise ReproError(f"seed must be >= 0, got {args.seed} (fix --seed)")
    # Every study's runner or pool starts up to --jobs workers; refused
    # here, before any study runs.
    api.SweepOptions(jobs=args.jobs)
    if args.name in ("fig10", "fig11", "fig12"):
        result = run_headline(
            scale=args.scale, repeats=args.repeats, seed=args.seed, jobs=args.jobs
        )
        metric = {
            "fig10": ("exec time (s)", lambda r: r.mean_time),
            "fig11": ("CoV %", lambda r: r.cov_percent),
            "fig12": ("% of exhaustive core-hours",
                      lambda r: r.core_hours_pct_of_exhaustive),
        }[args.name]
        rows = [(r.app_name, r.strategy, metric[1](r)) for r in result.rows]
        print(render_table(["app", "strategy", metric[0]], rows, title=args.name))
    elif args.name == "fig15":
        result = run_vm_sweep(scale=args.scale, seed=args.seed, jobs=args.jobs)
        rows = [(r.vm_name, r.darwin_time, r.gap_percent, r.cov_percent)
                for r in result.rows]
        print(render_table(
            ["VM", "DarwinGame (s)", "gap %", "CoV %"], rows, title="fig15"
        ))
    elif args.name == "stability":
        result = run_stability(
            scale=args.scale, repeats=args.repeats, seed=args.seed, jobs=args.jobs
        )
        print(render_table(
            ["repeats", "distinct picks", "modal fraction"],
            [(result.repeats, result.distinct_picks, result.modal_pick_fraction)],
            title="pick stability",
        ))
    elif args.name == "sensitivity":
        result = run_sensitivity(
            scale=args.scale, seed=args.seed, jobs=args.jobs
        )
        print(render_table(
            ["parameter", "value", "exec time (s)"],
            [(p.parameter, p.value, p.mean_time) for p in result.points],
            title="hyper-parameter sensitivity",
        ))
    elif args.name == "formats":
        result = run_format_power(trials=200, seed=args.seed, jobs=args.jobs)
        rows = [
            (fmt, noise, result.row(fmt, noise).predictive_power,
             result.row(fmt, noise).mean_games)
            for fmt in FORMAT_NAMES
            for noise in result.noise_levels()
        ]
        print(render_table(
            ["format", "noise std", "P(best wins)", "games"],
            rows, title="tournament-format predictive power",
        ))
    elif args.name == "shift":
        result = run_shift_study(
            scale=args.scale, seed=args.seed, jobs=args.jobs
        )
        rows = [
            (r.strategy, r.shift, r.mean_time, r.degradation_percent)
            for r in result.rows
        ]
        print(render_table(
            ["strategy", "level shift", "exec time (s)", "degradation %"],
            rows, title="interference distribution shift",
        ))
    elif args.name == "scenarios":
        from repro.experiments import run_scenario_robustness

        result = run_scenario_robustness(
            scale=args.scale,
            seeds=tuple(args.seed + k for k in range(args.repeats)),
            jobs=args.jobs,
        )
        print(result.table(title="tuner robustness across scenario packs"))
    elif args.name == "statistical":
        result = run_statistical_comparison(
            scale=args.scale, repeats=args.repeats, seed=args.seed, jobs=args.jobs
        )
        rows = [
            (r.app_name, r.strategy, r.mean_time, r.gap_vs_optimal_percent,
             r.cov_percent)
            for r in result.rows
        ]
        print(render_table(
            ["app", "strategy", "exec time (s)", "gap %", "CoV %"],
            rows, title="Sec. 3.2 statistical baselines",
        ))
    else:  # pragma: no cover - argparse restricts choices
        return 2
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = run_table1()
    print(render_table(
        ["application", "app params", "system params", "space size"],
        [
            (r.app_name, len(r.app_parameters), len(r.system_parameters), r.space_size)
            for r in rows
        ],
        title="Table 1 — search spaces (full scale)",
    ))
    return 0


def _add_execution(parser: argparse.ArgumentParser) -> None:
    """The worker-pool size every executing command shares (sweep, resume,
    serve)."""
    parser.add_argument(
        "--jobs", type=int, default=_SWEEP_DEFAULTS.jobs,
        help=f"parallel worker processes, 1 to {MAX_JOBS} "
             f"(default: %(default)s)",
    )


def _add_observability(parser: argparse.ArgumentParser) -> None:
    """The telemetry and profiling opt-ins (sweep, resume, serve)."""
    parser.add_argument(
        "--telemetry", action="store_true",
        help="journal structured span/counter/gauge events to the store's "
             ".telemetry sidecar (worker events are merged by the parent); "
             "inspect with `repro status` or `repro report --metrics`",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="capture per-campaign cProfile stats into the store's "
             ".profiles directory (one .pstats file per attempt)",
    )


def _add_progress(parser: argparse.ArgumentParser) -> None:
    """The interactive progress toggles (sweep, resume — not serve)."""
    parser.add_argument(
        "--progress", action="store_true",
        help="replace per-campaign progress lines with one in-place meter "
             "showing done/failed counts, throughput, and an EWMA ETA",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-campaign progress"
    )


def _add_fault_tolerance(parser: argparse.ArgumentParser) -> None:
    """The sweep/resume retry, timeout, and chaos knobs."""
    parser.add_argument(
        "--max-retries", type=int, default=_SWEEP_DEFAULTS.max_retries,
        help="re-executions granted after a campaign's first failed attempt "
             "before it is quarantined as failed (default: %(default)s)",
    )
    parser.add_argument(
        "--backoff", type=float, default=_SWEEP_DEFAULTS.backoff,
        help="base of the exponential retry delay in seconds, at most 60 "
             "— retry k waits backoff * 2**(k-1), capped at 60 "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=_SWEEP_DEFAULTS.task_timeout,
        help="seconds a campaign may run before its worker is presumed hung "
             "and killed; 0 disables (parallel sweeps only; default: "
             "%(default)s)",
    )
    parser.add_argument(
        "--inject-faults", default="", metavar="PLAN",
        help="chaos-test the sweep with a seeded fault plan, e.g. "
             "'seed=7,rate=1.0,kinds=crash+transient,max=2,hang=30,"
             "store=0.5' — deterministic per (seed, campaign, attempt)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DarwinGame reproduction command-line interface"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, dest="verbose",
        help="more logging (DEBUG with timestamps); place before the "
             "subcommand",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0, dest="log_quiet",
        help="less logging (warnings and errors only); place before the "
             "subcommand",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tune = sub.add_parser("tune", help="run one tuning campaign")
    _add_common(p_tune)
    p_tune.add_argument(
        "--strategy",
        default="DarwinGame",
        choices=tuple(api.SUPPORTED_STRATEGIES),
    )
    p_tune.add_argument(
        "--save", default="", metavar="STORE",
        help="store the campaign in this campaign store (the same JSONL "
             "file the equivalent one-cell `repro sweep --store` writes; "
             "appends to an existing store)",
    )
    p_tune.set_defaults(func=_cmd_tune)

    p_report = sub.add_parser(
        "report", help="aggregate a campaign store"
    )
    p_report.add_argument(
        "path",
        help="campaign store written by sweep, resume, serve or tune --save",
    )
    # One view per call: the flags are alternatives, not filters.
    views = p_report.add_mutually_exclusive_group()
    for view, help_text in (
        ("by-scenario", "aggregate per scenario pack (tuner robustness "
                        "under dynamic cloud conditions)"),
        ("by-format", "aggregate per tournament-format recipe (which "
                      "tournament shape picks the best configurations, at "
                      "what cost)"),
        ("failures", "the failure/retry view: quarantined campaigns, their "
                     "errors and attempt counts, sweep-wide retry totals"),
        ("metrics", "replay the store's .telemetry sidecar into counters, "
                    "gauges, and histograms (text exposition format); "
                    "requires a sweep run with --telemetry"),
    ):
        views.add_argument(
            f"--{view}", dest="view", action="store_const", const=view,
            default="summary", help=help_text,
        )
    p_report.set_defaults(func=_cmd_report)

    p_status = sub.add_parser(
        "status", help="live done/running/queued/failed view of a sweep store"
    )
    p_status.add_argument(
        "store", help="store written by sweep (its ledger/telemetry "
                      "sidecars are fused in when present)",
    )
    p_status.add_argument(
        "--watch", action="store_true",
        help="refresh the status block in place until the sweep finishes",
    )
    p_status.add_argument(
        "--interval", type=float, default=2.0,
        help="--watch refresh period in seconds, above 0 (default: 2.0)",
    )
    p_status.add_argument(
        "--json", action="store_true",
        help="emit one JSON object instead of the rendered block",
    )
    p_status.set_defaults(func=_cmd_status)

    p_sweep = sub.add_parser(
        "sweep", help="run a campaign grid through the parallel runner"
    )
    p_sweep.add_argument(
        "--apps", default=",".join(APPLICATION_NAMES),
        help="comma-separated application names",
    )
    p_sweep.add_argument(
        "--strategies", default="DarwinGame",
        help="comma-separated strategy names",
    )
    p_sweep.add_argument(
        "--vms", default="m5.8xlarge", help="comma-separated VM presets"
    )
    p_sweep.add_argument(
        "--seeds", default="0", help="comma-separated environment seeds"
    )
    p_sweep.add_argument(
        "--scenarios", default="steady",
        help="comma-separated scenario packs — the dynamic-conditions sweep "
             f"axis (registered: {', '.join(SCENARIO_NAMES)})",
    )
    p_sweep.add_argument(
        "--formats", default="darwin",
        help="comma-separated tournament-format recipes — the tournament-"
             f"shape sweep axis (registered: {', '.join(TOURNAMENT_FORMAT_NAMES)})",
    )
    p_sweep.add_argument("--scale", default="bench", help="space scale preset")
    p_sweep.add_argument(
        "--eval-runs", type=int, default=100,
        help="post-tuning evaluation executions per campaign "
             "(2 to 10000)",
    )
    p_sweep.add_argument(
        "--store", default="campaigns.jsonl",
        help="checkpoint store path (resumable; one JSONL file)",
    )
    _add_execution(p_sweep)
    _add_progress(p_sweep)
    _add_fault_tolerance(p_sweep)
    _add_observability(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_resume = sub.add_parser(
        "resume", help="finish an interrupted sweep from its store"
    )
    p_resume.add_argument(
        "store", help="store written by sweep"
    )
    _add_execution(p_resume)
    _add_progress(p_resume)
    _add_fault_tolerance(p_resume)
    _add_observability(p_resume)
    p_resume.set_defaults(func=_cmd_resume)

    p_serve = sub.add_parser(
        "serve",
        help="run the tuning service: a long-lived HTTP/JSON daemon over "
             "the same facade sweep/resume use",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    p_serve.add_argument(
        "--port", type=int, default=8765, help="TCP port to bind (0 = pick)"
    )
    p_serve.add_argument(
        "--data-root", default="repro-serve.d",
        help="directory holding one store per (tenant, job); every store "
             "remains readable by `repro status` / `report` / `resume`",
    )
    p_serve.add_argument(
        "--quota-core-hours", type=float, default=0.0,
        help="per-tenant core-hour budget; submissions past it get HTTP "
             "429 (0 = unmetered)",
    )
    p_serve.add_argument(
        "--quota-max-active", type=int, default=8,
        help="per-tenant cap on queued-plus-running jobs (default: 8)",
    )
    _add_execution(p_serve)
    _add_fault_tolerance(p_serve)
    _add_observability(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_store = sub.add_parser(
        "store", help="inspect campaign stores"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_sinfo = store_sub.add_parser(
        "info", help="record counts and disk usage of a store"
    )
    p_sinfo.add_argument("path", help="store path")
    p_sinfo.set_defaults(func=_cmd_store_info)

    p_cmp = sub.add_parser("compare", help="compare strategies on one app")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--strategies", default="DarwinGame,BLISS,ActiveHarmony",
        help="comma-separated strategy names",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("--name", required=True, choices=_EXPERIMENTS)
    p_exp.add_argument("--scale", default="bench")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--repeats", type=int, default=3)
    p_exp.add_argument(
        "--jobs", type=int, default=_SWEEP_DEFAULTS.jobs,
        help=f"parallel campaign workers (grid experiments), 1 to "
             f"{MAX_JOBS} (default: %(default)s)",
    )
    p_exp.set_defaults(func=_cmd_experiment)

    p_t1 = sub.add_parser("table1", help="print Table 1")
    p_t1.set_defaults(func=_cmd_table1)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.log_quiet)
    try:
        return args.func(args)
    except ReproError as exc:
        # Refused input (an unopenable store, an invalid grid): one line
        # naming the problem, not a traceback.
        _LOG.error("%s", exc)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (`repro status ... | head`).  Point
        # stdout at devnull so the interpreter's shutdown flush cannot
        # raise again, and exit quietly like any well-behaved filter.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
