"""Application models: the paper's four workloads as performance surfaces."""

from repro.apps.calibration import (
    CalibrationCheck,
    CalibrationReport,
    assert_calibrated,
    calibrate_report,
)
from repro.apps.ffmpeg_app import make_ffmpeg
from repro.apps.gromacs_app import make_gromacs
from repro.apps.lammps_app import make_lammps
from repro.apps.model import ApplicationModel, OraclePoint
from repro.apps.redis_app import make_redis
from repro.apps.registry import APPLICATION_NAMES, make_application
from repro.apps.surfaces import PerformanceSurface, SurfaceSpec, sample_surface_stats

__all__ = [
    "APPLICATION_NAMES",
    "CalibrationCheck",
    "CalibrationReport",
    "ApplicationModel",
    "OraclePoint",
    "PerformanceSurface",
    "SurfaceSpec",
    "assert_calibrated",
    "calibrate_report",
    "make_application",
    "make_ffmpeg",
    "make_gromacs",
    "make_lammps",
    "make_redis",
    "sample_surface_stats",
]
