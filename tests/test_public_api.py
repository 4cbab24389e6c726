"""The documented public API must stay importable: every package's ``__all__``."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]

#: The scenario and format views are one `AxisSummary` built by
#: `summarise_by`, and every summary renders itself with `table()`, so
#: these and `render_report` are gone.
_REMOVED_REPORT_NAMES = (
    "FormatRow", "FormatSummary", "ScenarioRow", "ScenarioSummary",
    "failure_table", "format_table", "scenario_table",
    "summarise_by_format", "summarise_by_scenario", "summary_table",
)

#: Names deleted from a package's exports; none may come back.
_REMOVED = {
    "repro": (
        "partition_regions", "render_report", "ApplicationCache",
        "SurfaceCache",
    ),
    "repro.apps": ("ConstrainedApplication", "penalised_application"),
    "repro.campaigns": _REMOVED_REPORT_NAMES,
    "repro.cloud": ("simulate_colocated",),
    "repro.experiments": (
        "StrategyRun", "evaluation_from_dict", "jsonable", "load_campaign",
        "protocol", "repeat_seed_plan", "repeat_strategy", "run_strategy",
        "save_campaign", "tuning_result_from_dict",
        "ScenarioRobustnessResult",
    ),
    "repro.scenarios": ("DEFAULT_SCENARIO",),
    "repro.space": (
        "Constraint", "log_size", "partition_regions", "region_of",
        "requires", "sample_valid", "valid_fraction", "valid_mask",
    ),
    "repro.telemetry": ("profile_dir", "profile_dir_for", "set_profile_dir"),
    # Each tournament format is one class; its state machine took the name.
    "repro.formats": (
        "BarrageRun", "DoubleEliminationRun", "GroupedDoubleEliminationRun",
        "RoundRobinRun", "SingleEliminationRun", "StreakSwissRun",
        "SwissSystemRun",
    ),
}

#: Names deleted from a module that is not a package, or from a class.
_REMOVED_MEMBERS = {
    "repro.api": ("_StrategyNames", "_strategy_names", "render_report"),
    "repro.campaigns.report": _REMOVED_REPORT_NAMES + (
        "_axis_rows", "_format_of", "_scenario_of",
    ),
    "repro.campaigns.runner:SweepReport": ("strategy_runs",),
    # The disk surface cache is gone: one application LRU per process,
    # behind `cached_application`, is what is left of `repro.caching`.
    "repro.campaigns.runner": (
        "_worker_init", "SurfaceCache", "grid_app_pairs", "process_app_cache",
    ),
    "repro.campaigns.runner:CampaignRunner": ("_warm_cache",),
    "repro.apps.surfaces:PerformanceSurface": ("content_hash",),
    "repro.campaigns.store.record:CampaignRecord": ("to_strategy_run",),
    # A sweep's fault plan and profile directory are arguments, not
    # process state.
    "repro.faults": (
        "_ACTIVE_PLAN", "_IN_DISPATCH_WORKER", "active_fault_plan",
        "mark_dispatch_worker", "maybe_inject", "set_active_fault_plan",
    ),
    "repro.telemetry.profiling": (
        "_PROFILE_DIR", "profile_dir", "set_profile_dir",
    ),
    # A model computes its surface values as they are asked for; no
    # table is installed from outside, and a dispatch worker builds its
    # applications at their first campaign.
    "repro.apps.model": ("SurfaceLoader",),
    "repro.apps.model:ApplicationModel": (
        "set_surface_loader", "load_cached_surfaces", "_surface_loader",
        "_loader_probed", "load_surfaces", "surfaces_complete",
    ),
    # The Sec. 3.2 comparison is read off the headline grid.
    "repro.experiments.statistical": ("_aggregate", "_CACHE"),
    # A campaign store is the one cache of campaign results; the
    # co-location study runs no campaigns and keeps nothing.
    "repro.experiments.headline": ("_CACHE",),
    "repro.experiments.shift_study": ("_CACHE",),
    "repro.experiments.colocation_study": ("_CACHE",),
    # A format is built from its players and settings; `run_schedule` plays
    # it through a match oracle.
    "repro.formats:Barrage": ("schedule", "run"),
    "repro.formats:DoubleElimination": ("schedule", "run"),
    "repro.formats:GroupedDoubleElimination": ("schedule", "run"),
    "repro.formats:RoundRobin": ("schedule", "run"),
    "repro.formats:SingleElimination": ("schedule", "run"),
    # One StreakSwiss holds every region pool of a phase and chooses a
    # round's lineups at once; the per-pool scheduler and its draw are the
    # oracle in tests/oracle/swiss.py.
    "repro.formats:StreakSwiss": (
        "schedule", "next_lineup", "_draw_new", "_select_veterans",
        "_observe", "_notify_assigned", "played_players", "log",
    ),
    "repro.rng": ("choice_without_replacement",),
    "repro.core.executor:MatchExecutor": ("_regional_result", "_winner_band"),
    "repro.formats:SwissSystem": ("schedule", "run"),
    # A sweep's store is an argument of `submit_grid`, as of `JobHandle`.
    "repro.api:SweepOptions": ("store", "open_store"),
}

#: Parameters deleted from a callable: no caller set them, or (the
#: runner's sweep settings) they live in `SweepOptions`.
_REMOVED_PARAMETERS = {
    "repro.campaigns.dispatch:Dispatcher": (
        "heartbeat_interval", "heartbeat_grace", "clock", "start_method",
        "app_keys", "cache_dir",
    ),
    "repro.campaigns.dispatch:_dispatch_worker": (
        "heartbeat_interval", "app_keys", "cache_dir",
    ),
    "repro.apps.registry:make_application": ("cache",),
    "repro.campaigns.runner:execute_campaign": ("cache_dir",),
    "repro.campaigns.runner:_run_protocol": ("cache_dir",),
    "repro.campaigns.runner:SweepOptions": ("cache_dir",),
    "repro.campaigns.dispatch:_pool_context": ("start_method",),
    "repro.campaigns.runner:CampaignRunner": (
        "heartbeat_interval", "jobs", "cache_dir", "start_method",
        "max_retries", "backoff", "task_timeout", "fault_plan", "telemetry",
        "profile",
    ),
    "repro.campaigns.runner:parallel_map": ("start_method",),
    # A campaign-shaped driver runs through the runner it is handed.
    "repro.experiments:run_headline": ("jobs",),
    "repro.experiments:run_stability": ("jobs",),
    "repro.experiments:run_statistical_comparison": ("jobs",),
    "repro.experiments:run_vm_sweep": ("jobs",),
    "repro.experiments:run_scenario_robustness": ("jobs",),
    "repro.experiments:run_shift_study": ("jobs",),
}


class TestPublicApi:
    @pytest.mark.parametrize("package", _PACKAGES)
    def test_all_exports_exist(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"
        for name in _REMOVED.get(package, ()):
            assert name not in module.__all__ and not hasattr(module, name), (
                f"{package}.{name} was removed"
            )

    def test_removed_members_stay_gone(self):
        assert importlib.util.find_spec("repro.experiments.protocol") is None
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.caching")
        for owner, names in _REMOVED_MEMBERS.items():
            module, _, cls = owner.partition(":")
            obj = importlib.import_module(module)
            if cls:
                obj = getattr(obj, cls)
            for name in names:
                assert not hasattr(obj, name), f"{owner}.{name} was removed"

    def test_application_model_holds_no_cache_state(self):
        """The model keeps its surface tables and nothing of the cache
        they came from."""
        from repro.apps.registry import make_application

        app = make_application("redis", scale="test")
        assert not {"_surface_loader", "_loader_probed"} & set(vars(app))

    def test_removed_parameters_stay_gone(self):
        for owner, names in _REMOVED_PARAMETERS.items():
            module, _, name = owner.partition(":")
            target = importlib.import_module(module)
            for part in name.split("."):
                target = getattr(target, part)
            parameters = inspect.signature(target).parameters
            for parameter in names:
                assert parameter not in parameters, (
                    f"{owner}({parameter}=) was removed"
                )

    def test_one_sweep_settings_object(self):
        """`SweepOptions` is the runner's only configuration, exported
        under one class from every package that names it."""
        from repro.campaigns import CampaignRunner

        assert repro.SweepOptions is repro.api.SweepOptions
        assert repro.api.SweepOptions is repro.campaigns.SweepOptions
        assert list(inspect.signature(CampaignRunner).parameters) == [
            "options", "store", "progress",
        ]

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_surface(self):
        """The README quickstart symbols."""
        for name in (
            "CloudEnvironment",
            "DarwinGame",
            "DarwinGameConfig",
            "VMSpec",
            "make_application",
        ):
            assert name in repro.__all__

    def test_baselines_exported(self):
        for name in (
            "ActiveHarmonyLike",
            "BlissLike",
            "ExhaustiveSearch",
            "HybridTuner",
            "OpenTunerLike",
            "RandomSearch",
        ):
            assert name in repro.__all__

    def test_docstrings_on_public_classes(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type) or callable(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"


def test_darwingame_path_loads_no_scipy_or_sqlite3():
    """`import repro`, the CLI and a DarwinGame tune load no `scipy` module
    at all, and no `sqlite3`, which no store needs.

    Runs in a fresh interpreter, since other tests load both into this one.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    probe = (
        "import sys, repro, repro.cli\n"
        "from repro import (CloudEnvironment, DarwinGame, DarwinGameConfig,\n"
        "                   VMSpec, make_application)\n"
        "DarwinGame(DarwinGameConfig(seed=1)).tune(\n"
        "    make_application('redis', scale='test'),\n"
        "    CloudEnvironment(VMSpec.preset('m5.8xlarge'), seed=7))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in ('scipy', 'sqlite3') or m.startswith('scipy.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
