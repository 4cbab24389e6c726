"""Deterministic fault injection for chaos-testing the campaign fleet.

The dispatcher (:mod:`repro.campaigns.dispatch`) exists to survive exactly
the failures a preemptible cloud fleet produces: workers hard-killed mid
campaign, campaigns hanging past any reasonable deadline, transient errors
that succeed on retry, and I/O blips while checkpointing results.  This
module *manufactures* those failures reproducibly, so a chaos run is an
ordinary deterministic test: a seeded :class:`FaultPlan` decides — as a
pure function of ``(seed, campaign_id, attempt)`` — which campaigns fail,
how, and how many times before succeeding.  CI asserts that a sweep under
injected faults converges to the same store contents as a fault-free run
(modulo attempt metadata).

Fault kinds (``FaultPlan.kinds``):

* ``"transient"`` — the attempt raises :class:`~repro.errors.FaultInjected`
  (an ordinary campaign failure; the dispatcher retries with backoff).
* ``"crash"`` — the worker process dies via ``os._exit`` (no cleanup, no
  record; the dispatcher sees the pipe close and reclaims the lease).
* ``"sigkill"`` — the worker SIGKILLs itself mid-campaign (uncatchable,
  the closest simulation of the OOM killer or a spot preemption).
* ``"hang"`` — the attempt sleeps for :attr:`FaultPlan.hang_seconds`; with
  a task timeout set the dispatcher declares the lease expired and kills
  the worker, otherwise the attempt fails with
  :class:`~repro.errors.CampaignTimeout` when the sleep ends.

Process-killing kinds only actually kill inside dispatcher worker
processes (``in_worker=True``, which only the dispatcher's worker loop
passes); executed inline — ``jobs=1`` or single-campaign sweeps — they
degrade to a raised :class:`~repro.errors.FaultInjected` /
:class:`~repro.errors.CampaignTimeout` so chaos plans stay runnable (and
equally convergent) without a pool.

Store-append faults are a separate stream (:attr:`FaultPlan.store_rate`):
they fire in the *parent* while checkpointing a finished campaign, where
the runner retries the append.

A plan is an argument, never process state: the runner hands its plan to
:func:`repro.campaigns.runner.execute_campaign` — the single choke point
every attempt goes through — inline and, through the dispatcher, in every
worker, and that call fires it with :meth:`FaultPlan.inject`.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import CampaignTimeout, FaultInjected, ReproError

#: Execution-fault kinds a plan may draw from.
FAULT_KINDS = ("transient", "crash", "sigkill", "hang")


def _stream(seed: int, *parts: object) -> random.Random:
    """A private RNG per (seed, label, campaign) — stable across processes.

    Seeded from a SHA-256 of the key so two campaigns (or the exec vs store
    streams of one campaign) never share a sequence, and the same plan
    replayed in a spawn worker, a resume run, or CI draws the same faults.
    """
    key = ":".join(str(p) for p in (seed, *parts))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible schedule of injected failures.

    Attributes:
        seed: master seed; every drawn fault is a pure function of
            ``(seed, campaign_id)``.
        rate: fraction of campaigns that get faulted at all.
        kinds: execution-fault kinds to draw from (see :data:`FAULT_KINDS`).
        max_faults: faults per chosen campaign before it succeeds — a sweep
            with ``max_retries >= max_faults`` always converges.
        hang_seconds: how long a ``"hang"`` fault sleeps in a worker; a
            finite number of seconds.
        store_rate: fraction of campaigns whose *first* store append fails
            (a separate stream from the execution faults).
        targets: explicit per-campaign fault sequences, overriding the
            seeded choice — ``{campaign_id: ("sigkill",)}`` faults exactly
            that campaign's first attempt and nothing else.
    """

    seed: int = 0
    rate: float = 1.0
    kinds: Tuple[str, ...] = ("transient",)
    max_faults: int = 1
    hang_seconds: float = 60.0
    store_rate: float = 0.0
    targets: Optional[Dict[str, Tuple[str, ...]]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.kinds, tuple):
            object.__setattr__(self, "kinds", tuple(self.kinds))
        unknown = [k for k in self.kinds if k not in FAULT_KINDS]
        if unknown:
            raise ReproError(
                f"unknown fault kind(s) {unknown}; known: {list(FAULT_KINDS)}"
            )
        for name in ("rate", "store_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ReproError(f"{name} must be in [0, 1], got {value}")
        if self.max_faults < 0:
            raise ReproError(f"max_faults must be >= 0, got {self.max_faults}")
        # `time.sleep` raises at once on inf (OverflowError) and nan
        # (ValueError), so such a "hang" would fail instead of hanging.
        if not (math.isfinite(self.hang_seconds) and self.hang_seconds >= 0):
            raise ReproError(
                f"hang_seconds must be a finite number >= 0, "
                f"got {self.hang_seconds}"
            )
        if self.targets is not None:
            bad = [
                k for seq in self.targets.values() for k in seq
                if k not in FAULT_KINDS
            ]
            if bad:
                raise ReproError(
                    f"unknown fault kind(s) in targets: {bad}; "
                    f"known: {list(FAULT_KINDS)}"
                )

    # -- the deterministic draw ----------------------------------------

    def faults_for(self, campaign_id: str) -> Tuple[str, ...]:
        """The campaign's full fault sequence: attempt k suffers entry k-1.

        Attempts beyond the sequence succeed, so the sequence length is the
        number of retries the campaign needs.
        """
        if self.targets is not None:
            return tuple(self.targets.get(campaign_id, ()))
        if self.max_faults == 0 or not self.kinds:
            return ()
        rng = _stream(self.seed, "exec", campaign_id)
        if rng.random() >= self.rate:
            return ()
        count = rng.randint(1, self.max_faults)
        return tuple(rng.choice(self.kinds) for _ in range(count))

    def fault_for(self, campaign_id: str, attempt: int) -> Optional[str]:
        """The fault kind attempt ``attempt`` (1-based) suffers, if any."""
        sequence = self.faults_for(campaign_id)
        if 1 <= attempt <= len(sequence):
            return sequence[attempt - 1]
        return None

    def store_faults_for(self, campaign_id: str) -> int:
        """How many times this campaign's store append fails (0 or 1)."""
        if self.store_rate <= 0.0:
            return 0
        rng = _stream(self.seed, "store", campaign_id)
        return 1 if rng.random() < self.store_rate else 0

    def store_fault(self, campaign_id: str, append_attempt: int) -> bool:
        """Whether append attempt ``append_attempt`` (1-based) should fail."""
        return append_attempt <= self.store_faults_for(campaign_id)

    # -- firing --------------------------------------------------------

    def inject(
        self, campaign_id: str, attempt: int, *, in_worker: bool
    ) -> None:
        """Fire this plan's fault for the attempt, if it schedules one.

        Called by :func:`repro.campaigns.runner.execute_campaign` before any
        real work, so a faulted attempt costs nothing but the fault itself.
        ``crash``, ``sigkill`` and ``hang`` kill or stall the process only
        when ``in_worker``; anywhere else they raise, so an inline chaos run
        cannot take down the driving process.
        """
        kind = self.fault_for(campaign_id, attempt)
        if kind is None:
            return
        # Counted before firing: a sigkill/crash fault never returns, and
        # the injection itself is the fact the telemetry stream needs.
        from repro.telemetry.events import counter as _telemetry_counter

        _telemetry_counter(
            "faults.injected", kind=kind, campaign=campaign_id, attempt=attempt
        )
        where = f"campaign {campaign_id}, attempt {attempt}"
        if kind == "transient":
            raise FaultInjected(f"injected transient failure ({where})")
        if kind == "crash":
            if in_worker:
                os._exit(70)  # hard death: no record, no cleanup, pipe closes
            raise FaultInjected(
                f"injected worker crash, simulated inline ({where})"
            )
        if kind == "sigkill":
            if in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(60)  # pragma: no cover - SIGKILL never returns
            raise FaultInjected(
                f"injected SIGKILL, simulated inline ({where})"
            )
        if kind == "hang":
            if in_worker:
                # With a task timeout the dispatcher kills us long before
                # the sleep ends; without one, the attempt fails as a
                # timeout so the sweep still converges instead of wedging.
                time.sleep(self.hang_seconds)
                raise CampaignTimeout(
                    f"injected hang of {self.hang_seconds}s outlived the "
                    f"sweep's patience ({where})"
                )
            raise CampaignTimeout(f"injected hang, simulated inline ({where})")
        raise ReproError(f"unknown fault kind {kind!r}")  # pragma: no cover

    # -- CLI form ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a plan from ``sweep --inject-faults`` syntax.

        Comma-separated ``key=value`` pairs; ``kinds`` joins with ``+``::

            seed=7,rate=1.0,kinds=crash+transient,max=2,hang=30,store=0.5
        """
        keys = {
            "seed": ("seed", int),
            "rate": ("rate", float),
            "max": ("max_faults", int),
            "hang": ("hang_seconds", float),
            "store": ("store_rate", float),
        }
        kwargs: Dict[str, object] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ReproError(
                    f"bad fault-plan entry {part!r}; expected key=value"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            if key == "kinds":
                kwargs["kinds"] = tuple(
                    k.strip() for k in value.split("+") if k.strip()
                )
            elif key in keys:
                name, cast = keys[key]
                try:
                    kwargs[name] = cast(value)
                except ValueError:
                    raise ReproError(
                        f"bad fault-plan value {part!r}; "
                        f"{key} takes a {cast.__name__}"
                    ) from None
            else:
                raise ReproError(
                    f"unknown fault-plan key {key!r}; known: "
                    f"{['kinds', *keys]}"
                )
        return cls(**kwargs)
