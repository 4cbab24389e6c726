"""BLISS-style tuner (Roy et al., PLDI'21).

BLISS tunes with a *pool of diverse lightweight learning models*: several
cheap Bayesian-optimisation surrogates (different kernel length-scales and
acquisition functions) compete, and a probabilistic scheduler favours the
model whose proposals have recently paid off.  We reproduce that design with
kernel-ridge Gaussian-process surrogates over normalised parameter levels.
Like the original, every model is fitted to raw observed execution times —
noise is folded straight into the surrogate, which is precisely the failure
mode the paper exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.apps.model import ApplicationModel
from repro.cloud.environment import CloudEnvironment
from repro.rng import child
from repro.tuners.base import ObservationLog, Tuner

_FIT_CAP = 256       # surrogates are "lightweight": fit on recent/best samples
_CANDIDATES = 320    # acquisition is optimised over a random candidate pool
_BATCH = 16          # proposals evaluated per surrogate refit
_RIDGE = 1e-3


@dataclass(frozen=True)
class _ModelSpec:
    """One lightweight model: an RBF length-scale and an acquisition rule."""

    length_scale: float
    acquisition: str  # "ei" | "ucb" | "pi"

    @property
    def name(self) -> str:
        return f"gp(l={self.length_scale},{self.acquisition})"


_POOL = (
    _ModelSpec(0.15, "ei"),
    _ModelSpec(0.15, "ucb"),
    _ModelSpec(0.40, "ei"),
    _ModelSpec(0.40, "pi"),
    _ModelSpec(0.80, "ucb"),
    _ModelSpec(0.80, "pi"),
)


class BlissLike(Tuner):
    """Ensemble-of-lightweight-BO-models tuner in the spirit of BLISS."""

    name = "BLISS"
    budget_fraction = 0.03

    def _search(
        self,
        app: ApplicationModel,
        env: CloudEnvironment,
        budget: int,
        rng: np.random.Generator,
    ) -> tuple:
        log = ObservationLog()
        credits = {spec.name: 1.0 for spec in _POOL}
        model_uses = {spec.name: 0 for spec in _POOL}

        # Bootstrap with random samples (BLISS seeds its models similarly).
        n_seed = min(budget, max(8, _BATCH))
        seeds = app.space.sample_indices(n_seed, child(rng))
        observed = env.run_solo_batch(app, seeds, label="bliss")
        for idx, t in zip(seeds, observed):
            log.add(int(idx), float(t))
        spent = n_seed

        while spent < budget:
            spec = self._pick_model(credits, rng)
            proposals = self._propose(app, log, spec, rng)
            take = min(len(proposals), budget - spent)
            before = log.best_time
            times = env.run_solo_batch(app, proposals[:take], label="bliss")
            for idx, t in zip(proposals[:take], times):
                log.add(int(idx), float(t))
            spent += take
            # Credit: relative improvement this model just delivered.
            gain = max(0.0, (before - log.best_time) / before)
            credits[spec.name] = 0.8 * credits[spec.name] + gain
            model_uses[spec.name] += 1

        details = {
            "model_uses": dict(model_uses),
            "best_observed_time": log.best_time,
            "observed_indices": list(log.indices),
            "observed_times": list(log.times),
        }
        return log.best_index, spent, details

    # -- model pool ---------------------------------------------------------

    @staticmethod
    def _pick_model(credits: dict, rng: np.random.Generator) -> _ModelSpec:
        weights = np.array([credits[s.name] + 0.05 for s in _POOL])
        weights = weights / weights.sum()
        return _POOL[int(rng.choice(len(_POOL), p=weights))]

    def _propose(
        self,
        app: ApplicationModel,
        log: ObservationLog,
        spec: _ModelSpec,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Fit the chosen surrogate and return a batch of proposals."""
        indices, times = log.as_arrays()
        if len(indices) > _FIT_CAP:
            # Keep the best half and the most recent half of the cap.
            order = np.argsort(times)
            keep = np.unique(
                np.concatenate([order[: _FIT_CAP // 2], np.arange(len(indices))[-_FIT_CAP // 2:]])
            )
            indices, times = indices[keep], times[keep]

        cards = app.space.cardinalities.astype(float)
        train = app.space.levels_matrix(indices) / cards
        y_mean, y_std = float(times.mean()), float(times.std() + 1e-9)
        y = (times - y_mean) / y_std

        pool = app.space.sample_indices(_CANDIDATES, child(rng))
        best_neighbors = app.space.neighbors(log.best_index, seed=child(rng))
        if best_neighbors.size:
            pool = np.concatenate([pool, best_neighbors[:64]])
        pool = np.unique(pool)
        cand = app.space.levels_matrix(pool) / cards

        mu, sigma = self._gp_predict(train, y, cand, spec.length_scale)
        score = self._acquisition(spec.acquisition, mu, sigma, float(y.min()))
        order = np.argsort(-score)
        return pool[order[:_BATCH]].astype(np.int64)

    @staticmethod
    def _gp_predict(
        train: np.ndarray, y: np.ndarray, cand: np.ndarray, length_scale: float
    ) -> tuple:
        """Kernel-ridge GP posterior mean and variance (RBF kernel)."""
        def rbf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
            return np.exp(-d2 / (2.0 * length_scale**2))

        k_train = rbf(train, train) + _RIDGE * np.eye(len(train))
        k_cross = rbf(cand, train)
        solve = np.linalg.solve(k_train, np.column_stack([y, k_cross.T]))
        alpha, v = solve[:, 0], solve[:, 1:]
        mu = k_cross @ alpha
        var = np.maximum(1.0 - np.einsum("ij,ji->i", k_cross, v), 1e-12)
        return mu, np.sqrt(var)

    @staticmethod
    def _acquisition(kind: str, mu: np.ndarray, sigma: np.ndarray, y_best: float) -> np.ndarray:
        """Score candidates; larger is better (we minimise observed time)."""
        # Lazy: importing scipy.stats would tax every `import repro`.
        from scipy.stats import norm

        z = (y_best - mu) / sigma
        if kind == "ei":
            return (y_best - mu) * norm.cdf(z) + sigma * norm.pdf(z)
        if kind == "pi":
            return norm.cdf(z)
        if kind == "ucb":
            return -(mu - 1.8 * sigma)
        raise ValueError(f"unknown acquisition {kind!r}")
