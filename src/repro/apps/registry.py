"""Application registry: build any evaluated application by name."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.apps.ffmpeg_app import make_ffmpeg
from repro.apps.gromacs_app import make_gromacs
from repro.apps.lammps_app import make_lammps
from repro.apps.model import ApplicationModel
from repro.apps.redis_app import make_redis
from repro.apps.scaling import Scale
from repro.errors import ReproError
from repro.rng import SeedLike

APPLICATION_NAMES: Tuple[str, ...] = ("redis", "gromacs", "ffmpeg", "lammps")

_FACTORIES: Dict[str, Callable[..., ApplicationModel]] = {
    "redis": make_redis,
    "gromacs": make_gromacs,
    "ffmpeg": make_ffmpeg,
    "lammps": make_lammps,
}


def make_application(
    name: str,
    scale: Scale = "bench",
    seed: Optional[SeedLike] = None,
) -> ApplicationModel:
    """Build one of the paper's four applications.

    Args:
        name: ``"redis"``, ``"gromacs"``, ``"ffmpeg"`` or ``"lammps"``.
        scale: ``"full"`` (paper-sized space), ``"bench"``, ``"test"``, or an
            integer per-parameter level cap (see :mod:`repro.apps.scaling`).
        seed: optional override of the application's canonical surface seed
            (used to generate alternative-universe surfaces in robustness
            tests).

    Each call builds a new model, which computes its surface values as
    they are first asked for; campaigns share one instance per process
    through :func:`repro.campaigns.runner.cached_application`.
    """
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise ReproError(
            f"unknown application {name!r}; available: {list(APPLICATION_NAMES)}"
        ) from None
    if seed is None:
        return factory(scale=scale)
    return factory(scale=scale, seed=seed)
