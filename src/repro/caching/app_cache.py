"""The in-memory application tier, and this process's instance of it.

:class:`ApplicationCache` replaces the campaign runner's former ad-hoc
module-global dict: a *bounded* LRU of built
:class:`~repro.apps.model.ApplicationModel` instances keyed by
``(name, scale)``, with an explicit :meth:`~ApplicationCache.clear` hook so
long-lived service processes cannot grow without limit and test fixtures
can reset shared state between tests.

The module also owns the process's shared tier, the one place an
application meets the disk cache.  A surface cache is no process state:
whoever builds an application passes the sweep's
:class:`~repro.caching.surface_cache.SurfaceCache` to
:meth:`~ApplicationCache.get`, which installs the persisted tables as it
builds the model (the runner while it warms the cache, and every campaign
attempt, inline or in a dispatcher worker, at its application's first
campaign in that process).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.apps.model import ApplicationModel
from repro.caching.surface_cache import SurfaceCache
from repro.errors import ReproError

AppKey = Tuple[str, object]


class ApplicationCache:
    """Bounded LRU of built application models, keyed by ``(name, scale)``.

    Campaigns of one sweep share surfaces (and their memoised tables) the
    way the former serial drivers shared one ``ApplicationModel`` instance;
    the bound keeps a long-lived process serving many different
    (app, scale) combinations at a predictable memory ceiling.
    """

    def __init__(self, maxsize: int = 16) -> None:
        if maxsize < 1:
            raise ReproError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[AppKey, ApplicationModel]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: AppKey) -> bool:
        """Whether ``(name, scale)`` is held, without touching its recency."""
        return key in self._entries

    def get(
        self, name: str, scale, cache: Optional[SurfaceCache] = None
    ) -> ApplicationModel:
        """The shared application instance for ``(name, scale)``.

        Built on first use via the registry — with ``cache``'s persisted
        tables installed (:meth:`~repro.caching.surface_cache.SurfaceCache.
        load`) if a cache is given — then served from memory, evicting the
        least recently used entry beyond :attr:`maxsize`.  A served entry
        keeps the tables it was built with.
        """
        from repro.telemetry.events import counter as _telemetry_counter

        key: AppKey = (name, scale)
        app = self._entries.get(key)
        if app is not None:
            self._entries.move_to_end(key)
            # The LRU serves a fully-built model, so the surface cache below
            # never even sees the lookup; without this counter a warm
            # process would (wrongly) report no cache activity at all.
            _telemetry_counter("app_cache.hit", app=name)
            return app
        from repro.apps.registry import make_application

        _telemetry_counter("app_cache.miss", app=name)
        app = make_application(name, scale=scale)
        if cache is not None:
            cache.load(app)
        self._entries[key] = app
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return app

    def clear(self) -> None:
        """Drop every cached application (tests; bounded-lifetime services)."""
        self._entries.clear()


#: This process's shared application tier (what the runner's
#: ``cached_application`` serves from).
_PROCESS_APP_CACHE = ApplicationCache()


def process_app_cache() -> ApplicationCache:
    """This process's shared in-memory application tier."""
    return _PROCESS_APP_CACHE


def clear_process_caches() -> None:
    """Drop every application of this process's tier (the test-fixture hook).

    Disk entries are left alone; they are validated on every open.
    """
    _PROCESS_APP_CACHE.clear()
