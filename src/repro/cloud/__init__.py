"""Cloud simulator: VMs, interference, co-location physics, accounting."""

from repro.cloud.accounting import CoreHourLedger
from repro.cloud.colocation import contention_level, simulate_colocated_batch
from repro.cloud.environment import CloudEnvironment
from repro.cloud.fleet import (
    FleetPoint,
    FleetSchedule,
    HostClass,
    default_host_mix,
    fleet_tradeoff,
    schedule_lpt,
)
from repro.cloud.interference import InterferenceProcess
from repro.cloud.traces import (
    InterferenceTrace,
    ReplayedInterference,
    record_trace,
    spike_trace,
    step_trace,
)
from repro.cloud.vm import DEFAULT_VM, PRESETS, InterferenceProfile, VMSpec, make_profile

__all__ = [
    "CloudEnvironment",
    "CoreHourLedger",
    "DEFAULT_VM",
    "FleetPoint",
    "FleetSchedule",
    "HostClass",
    "InterferenceProcess",
    "InterferenceProfile",
    "InterferenceTrace",
    "PRESETS",
    "ReplayedInterference",
    "VMSpec",
    "contention_level",
    "default_host_mix",
    "fleet_tradeoff",
    "make_profile",
    "record_trace",
    "schedule_lpt",
    "simulate_colocated_batch",
    "spike_trace",
    "step_trace",
]
