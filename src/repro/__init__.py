"""DarwinGame reproduction: tournament-based tuning in noisy clouds.

Quickstart::

    from repro import (
        CloudEnvironment, DarwinGame, DarwinGameConfig, VMSpec, make_application,
    )

    app = make_application("redis", scale="test")
    env = CloudEnvironment(VMSpec.preset("m5.8xlarge"), seed=7)
    result = DarwinGame(DarwinGameConfig(seed=1)).tune(app, env)
    print(result.best_values, result.core_hours)

Campaign sweeps go through the stable :mod:`repro.api` facade — the same
code path ``repro sweep`` and the ``repro serve`` daemon use::

    from repro import CampaignGrid, SweepOptions, submit_grid

    job = submit_grid(
        CampaignGrid(apps=("redis",), scale="test", eval_runs=2),
        SweepOptions(jobs=4),
        store="sweep.jsonl",
    )
    print(job.report().table())
"""

from repro.apps import (
    APPLICATION_NAMES,
    ApplicationModel,
    make_application,
    make_ffmpeg,
    make_gromacs,
    make_lammps,
    make_redis,
)
from repro.campaigns import (
    CampaignGrid,
    CampaignRecord,
    CampaignRunner,
    CampaignSpec,
    CampaignStore,
    SweepReport,
    SweepSummary,
    open_store,
    summarise,
)
from repro.cloud import (
    DEFAULT_VM,
    PRESETS,
    CloudEnvironment,
    InterferenceProcess,
    InterferenceTrace,
    ReplayedInterference,
    VMSpec,
    record_trace,
)
from repro.core import ABLATION_NAMES, DarwinGame, DarwinGameConfig
from repro.core.dynamic import DynamicFeedbackDarwinGame, FeedbackConfig
from repro.scenarios import (
    SCENARIO_NAMES,
    Scenario,
    get_scenario,
    register_scenario,
)
from repro.space import Parameter, SearchSpace, split_subspaces
from repro.tuners import (
    ActiveHarmonyLike,
    BlissLike,
    ExhaustiveSearch,
    HybridTuner,
    OpenTunerLike,
    QuantileRegressionTuner,
    RandomSearch,
    ThompsonSamplingTuner,
    Tuner,
)
from repro.types import ChoiceEvaluation, TuningResult

# The supported programmatic surface (repro.api.__all__); imported last so
# the facade may lean on everything above.
from repro import api
from repro.api import (
    SUPPORTED_STRATEGIES,
    JobCancelled,
    JobHandle,
    SchemaError,
    SweepOptions,
    fetch_report,
    iter_results,
    job_status,
    submit_grid,
    validate_grid,
)

__version__ = "1.0.0"

__all__ = [
    "ABLATION_NAMES",
    "APPLICATION_NAMES",
    "SUPPORTED_STRATEGIES",
    "ActiveHarmonyLike",
    "ApplicationModel",
    "BlissLike",
    "CampaignGrid",
    "CampaignRecord",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStore",
    "ChoiceEvaluation",
    "CloudEnvironment",
    "DEFAULT_VM",
    "DarwinGame",
    "DarwinGameConfig",
    "DynamicFeedbackDarwinGame",
    "ExhaustiveSearch",
    "FeedbackConfig",
    "HybridTuner",
    "InterferenceProcess",
    "InterferenceTrace",
    "JobCancelled",
    "JobHandle",
    "OpenTunerLike",
    "PRESETS",
    "Parameter",
    "QuantileRegressionTuner",
    "RandomSearch",
    "ReplayedInterference",
    "SCENARIO_NAMES",
    "Scenario",
    "SchemaError",
    "SearchSpace",
    "SweepOptions",
    "SweepReport",
    "SweepSummary",
    "ThompsonSamplingTuner",
    "Tuner",
    "TuningResult",
    "VMSpec",
    "api",
    "fetch_report",
    "iter_results",
    "job_status",
    "make_application",
    "make_ffmpeg",
    "make_gromacs",
    "make_lammps",
    "make_redis",
    "get_scenario",
    "open_store",
    "record_trace",
    "register_scenario",
    "split_subspaces",
    "submit_grid",
    "summarise",
    "validate_grid",
    "__version__",
]
