"""Declarative campaign descriptions.

A *campaign* is one tuning run: an application tuned by one strategy on one
VM under one environment realisation (seed + campaign start time), followed
by the paper's 100-execution evaluation of the chosen configuration.  The
paper's headline numbers (Figs. 10-12, Table 1) are aggregates over *fleets*
of such campaigns — every (app x VM x tuner x seed) cell is independent —
so the fleet is described declaratively and executed by
:mod:`repro.campaigns.runner` rather than by hand-rolled loops.

A :class:`CampaignSpec` is a pure value: everything the campaign's outcome
depends on is a field, so its :attr:`~CampaignSpec.campaign_id` (a content
hash) is stable across processes and library sessions.  That ID is the
resume key of :class:`repro.campaigns.store.CampaignStore`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.cloud.vm import PRESETS, VMSpec
from repro.errors import ReproError

Scale = Union[str, int]

#: A VM in a spec: a preset name, or the full field dict of a custom
#: :class:`VMSpec` (so non-preset instances survive the trip to a worker).
VMLike = Union[str, Dict[str, object]]


def vm_to_field(vm: VMSpec) -> VMLike:
    """Spec-field form of a VM: its preset name, or its fields if custom."""
    if PRESETS.get(vm.name) == vm:
        return vm.name
    return asdict(vm)


def vm_from_field(vm: VMLike) -> VMSpec:
    """Rebuild the :class:`VMSpec` a campaign runs on (inverse of above)."""
    if isinstance(vm, str):
        return VMSpec.preset(vm)
    return VMSpec(name=str(vm["name"]), vcpus=int(vm["vcpus"]),
                  family=str(vm["family"]))


def vm_display_name(vm: VMLike) -> str:
    """The VM's name whether the field holds a preset name or a dict."""
    return vm if isinstance(vm, str) else str(vm["name"])

#: Default spacing between successive seeds' campaign start times: three
#: days, matching the protocol's "tuning performed during different time
#: intervals" repeats.
DEFAULT_START_TIME_STEP = 3.0 * 86400.0


@dataclass(frozen=True)
class CampaignSpec:
    """Everything one tuning campaign depends on, by value.

    Attributes:
        app: application name (``repro.apps.registry.APPLICATION_NAMES``).
        strategy: tuner name as used by the evaluation protocol
            (``"DarwinGame"``, ``"BLISS"``, ``"Optimal"``, ...).
        vm: VM preset name (``repro.cloud.vm.PRESETS``) or, for a custom
            instance type, the ``VMSpec`` field dict (see :func:`vm_to_field`).
        scale: search-space scale preset (``"full"``/``"bench"``/``"test"``
            or an integer level cap).
        seed: environment seed — the interference realisation.
        start_time: simulated campaign start time (seconds).
        eval_runs: executions in the post-tuning quality evaluation.
        tuner_seed: optional override decoupling the tuner's internal
            randomness from the environment seed (defaults to ``seed``).
        tag: free-form label carried through to the store.
        scenario: registered scenario-pack name — the dynamic cloud
            conditions the campaign tunes under (``"steady"`` is the
            paper's stationary baseline).
        format: registered tournament-format recipe the DarwinGame engine
            runs (``"darwin"`` is the paper's Alg. 1; see
            :mod:`repro.formats.recipes`).  Strategies other than
            ``DarwinGame`` have no tournament shape and ignore it.
    """

    app: str
    strategy: str = "DarwinGame"
    vm: VMLike = "m5.8xlarge"
    scale: Scale = "bench"
    seed: int = 0
    start_time: float = 0.0
    eval_runs: int = 100
    tuner_seed: Optional[int] = None
    tag: str = ""
    scenario: str = "steady"
    format: str = "darwin"

    @property
    def campaign_id(self) -> str:
        """Stable content-addressed identifier of this campaign.

        Human-readable prefix plus a hash of every field, so any change to
        the spec yields a new ID while re-enumerating the same grid in a
        different process reproduces the same IDs (the resume contract).
        The default ``steady`` scenario and ``darwin`` format are excluded
        from the hash — they are the pre-axis campaigns, so stores written
        before those axes existed keep resuming under their original IDs.
        """
        data = asdict(self)
        if data.get("scenario", "steady") == "steady":
            del data["scenario"]
        if data.get("format", "darwin") == "darwin":
            del data["format"]
        blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha1(blob.encode("utf-8")).hexdigest()[:10]
        vm = vm_display_name(self.vm)
        prefix = f"{self.app}.{vm}.{self.strategy}.s{self.seed}"
        if self.scenario != "steady":
            prefix += f".{self.scenario}"
        if self.format != "darwin":
            prefix += f".{self.format}"
        return f"{prefix}.{digest}"

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Rebuild a spec written by :meth:`to_dict`."""
        return cls(**data)


@dataclass(frozen=True)
class CampaignGrid:
    """A declarative fleet: apps x vms x strategies x formats x scenarios x seeds.

    Enumeration order is deterministic (apps, then vms, then strategies,
    then formats, then scenarios, then seeds) but campaign outcomes are
    order-independent — every spec is self-contained — so a runner may
    execute them in any order or in parallel and still reproduce serial
    results.

    The k-th seed's campaign starts ``k * start_time_step`` simulated
    seconds into the trace, mirroring the protocol's repeated-tuning setup.
    """

    apps: Tuple[str, ...]
    strategies: Tuple[str, ...] = ("DarwinGame",)
    vms: Tuple[str, ...] = ("m5.8xlarge",)
    seeds: Tuple[int, ...] = (0,)
    scale: Scale = "bench"
    eval_runs: int = 100
    start_time_step: float = DEFAULT_START_TIME_STEP
    tag: str = ""
    scenarios: Tuple[str, ...] = ("steady",)
    formats: Tuple[str, ...] = ("darwin",)

    def __post_init__(self) -> None:
        # Normalise CLI-style lists so equal grids hash/compare equal.
        for name in ("apps", "strategies", "vms", "seeds", "scenarios",
                     "formats"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    def _formats_for(self, strategy: str) -> Tuple[str, ...]:
        """The format axis as it applies to one strategy.

        Only ``DarwinGame`` has a tournament shape; enumerating a baseline
        once per format would re-run byte-identical campaigns under
        distinct IDs, so baselines collapse to a single ``darwin`` cell
        (whose ID matches the same campaign in a formatless sweep).
        """
        if strategy == "DarwinGame":
            return self.formats
        return ("darwin",)

    @property
    def size(self) -> int:
        """Number of campaigns the grid enumerates."""
        per_cell = len(self.apps) * len(self.vms) * len(self.scenarios) \
            * len(self.seeds)
        return per_cell * sum(
            len(self._formats_for(s)) for s in self.strategies
        )

    def specs(self) -> Iterator[CampaignSpec]:
        """Yield every campaign of the grid, in deterministic order."""
        for app in self.apps:
            for vm in self.vms:
                for strategy in self.strategies:
                    for fmt in self._formats_for(strategy):
                        for scenario in self.scenarios:
                            for k, seed in enumerate(self.seeds):
                                yield CampaignSpec(
                                    app=app,
                                    strategy=strategy,
                                    vm=vm,
                                    scale=self.scale,
                                    seed=int(seed),
                                    start_time=float(k) * self.start_time_step,
                                    eval_runs=self.eval_runs,
                                    tag=self.tag,
                                    scenario=scenario,
                                    format=fmt,
                                )

    def to_dict(self) -> dict:
        """Plain-JSON representation (stored as a sweep's header line)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignGrid":
        """Rebuild a grid written by :meth:`to_dict`."""
        return cls(**data)


def repeat_seed_plan(
    seed: int, repeats: int, *, vary_tuner_seed: bool = True
) -> List[Tuple[int, float, int]]:
    """The ``(env_seed, start_time, tuner_seed)`` plan behind repeated tuning.

    Each repeat gets its own interference realisation (an environment seed
    drawn from ``seed``) and a campaign start three days after the previous
    one.  The tuner seed follows the environment seed, or stays ``seed``
    without ``vary_tuner_seed``.  ``repeats`` must be at least 1.
    """
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed)
    plan: List[Tuple[int, float, int]] = []
    for k in range(repeats):
        env_seed = int(rng.integers(0, 2**31))
        plan.append(
            (
                env_seed,
                float(k) * 86400.0 * 3.0,
                env_seed if vary_tuner_seed else int(seed),
            )
        )
    return plan


def repeat_specs(
    app_name: str,
    strategy: str,
    *,
    repeats: int,
    scale: Scale = "bench",
    vm: VMLike = "m5.8xlarge",
    seed: int = 0,
    eval_runs: int = 100,
    vary_tuner_seed: bool = True,
) -> list:
    """Campaign specs that repeat one strategy ``repeats`` times.

    The paper repeats tuning in the cloud "during different time
    intervals": each spec follows :func:`repeat_seed_plan`, so it gets its
    own interference realisation and a later campaign start.  With
    ``vary_tuner_seed`` (the default) the tuner is re-seeded per repeat;
    the stability experiment passes ``False`` to isolate the effect of the
    environment's noise on the tuner's pick.  Run the specs through
    :class:`~repro.campaigns.runner.CampaignRunner`, serial or parallel,
    for the same records.
    """
    return [
        CampaignSpec(
            app=app_name,
            strategy=strategy,
            vm=vm,
            scale=scale,
            seed=env_seed,
            start_time=start_time,
            eval_runs=eval_runs,
            tuner_seed=tuner_seed,
        )
        for env_seed, start_time, tuner_seed in repeat_seed_plan(
            seed, repeats, vary_tuner_seed=vary_tuner_seed
        )
    ]
