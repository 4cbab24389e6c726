"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.campaigns.runner import clear_app_cache
from repro.telemetry import reset_telemetry


@pytest.fixture(autouse=True)
def _fresh_process_caches():
    """Reset the process-global application and telemetry state after
    every test.

    The campaign runner serves applications from a process-wide LRU
    (:func:`repro.campaigns.runner.cached_application`); the telemetry
    layer keeps a process-wide emitter and logging set-up.  Without this
    hook, that state would leak from one test into the next.
    """
    yield
    clear_app_cache()
    reset_telemetry()


@pytest.fixture()
def pin_start_method(monkeypatch):
    """Call with ``"fork"`` or ``"spawn"`` to start this test's sweep
    workers and :func:`repro.campaigns.parallel_map` pools that way.

    Both modules look ``_pool_context`` up at call time, so substituting it
    covers the spawn path non-fork platforms take on any host.
    """
    import multiprocessing

    from repro.campaigns import dispatch, runner

    def pin(method: str) -> None:
        def context():
            return multiprocessing.get_context(method)

        monkeypatch.setattr(dispatch, "_pool_context", context)
        monkeypatch.setattr(runner, "_pool_context", context)

    return pin
