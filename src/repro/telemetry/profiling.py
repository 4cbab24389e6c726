"""Opt-in per-campaign cProfile capture (``repro sweep --profile``).

Profiling is the one telemetry mode that is *not* near-zero-cost, so it is
its own explicit opt-in: when a profile directory is installed (in the
parent and, via the dispatcher's worker bring-up, in every worker), each
campaign attempt runs under :mod:`cProfile` and dumps its stats to
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

_PROFILE_DIR: Optional[Path] = None


def set_profile_dir(directory: Optional[PathLike]) -> Optional[Path]:
    """Install (or clear) the process's profile directory; returns previous."""
    global _PROFILE_DIR
    previous = _PROFILE_DIR
    _PROFILE_DIR = Path(directory) if directory is not None else None
    return previous


def profile_dir() -> Optional[Path]:
    """The active profile directory (None = profiling off, the default)."""
    return _PROFILE_DIR


class CampaignProfiler:
    """Profiles one campaign attempt and dumps its stats on exit.

    A no-op context manager while no profile directory is installed, so
    the execution choke point can use it unconditionally.
    """

    def __init__(self, campaign_id: str, attempt: int):
        self.campaign_id = campaign_id
        self.attempt = attempt
        self._profiler: Optional[cProfile.Profile] = None

    def __enter__(self) -> "CampaignProfiler":
        if _PROFILE_DIR is not None:
            self._profiler = cProfile.Profile()
            self._profiler.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._profiler is None:
            return
        self._profiler.disable()
        directory = _PROFILE_DIR
        if directory is None:  # pragma: no cover - cleared mid-campaign
            return
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.campaign_id}.attempt{self.attempt}.pstats"
        self._profiler.dump_stats(path)
