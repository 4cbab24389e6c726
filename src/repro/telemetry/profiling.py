"""Opt-in per-campaign cProfile capture (``repro sweep --profile``).

Profiling is the one telemetry mode that is *not* near-zero-cost, so it is
its own explicit opt-in: the runner hands its profile directory to every
campaign attempt (inline, and through the dispatcher in every worker), and
each attempt given one runs under :mod:`cProfile` and dumps its stats to
``<store>.profiles/<campaign_id>.attempt<k>.pstats`` — loadable with
``python -m pstats`` or :class:`pstats.Stats`.  Attempts are kept separate
so a retried campaign's slow first attempt is not averaged away.

Like every telemetry tier, profiling must never change results: the
profiler wraps :func:`repro.campaigns.runner.execute_campaign`'s work but
the campaign's record is byte-identical with or without it.
"""

from __future__ import annotations

import cProfile
from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, Path]


class CampaignProfiler:
    """Profiles one campaign attempt and dumps its stats into ``directory``.

    A no-op context manager when ``directory`` is ``None`` (profiling off,
    the default), so the execution choke point can use it unconditionally.
    """

    def __init__(
        self, directory: Optional[PathLike], campaign_id: str, attempt: int
    ):
        self.directory = Path(directory) if directory is not None else None
        self.campaign_id = campaign_id
        self.attempt = attempt
        self._profiler: Optional[cProfile.Profile] = None

    def __enter__(self) -> "CampaignProfiler":
        if self.directory is not None:
            self._profiler = cProfile.Profile()
            self._profiler.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._profiler is None:
            return
        self._profiler.disable()
        self.directory.mkdir(parents=True, exist_ok=True)
        name = f"{self.campaign_id}.attempt{self.attempt}.pstats"
        self._profiler.dump_stats(self.directory / name)
