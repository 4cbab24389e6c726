"""Quantile-regression tuner (a statistical noise-handling baseline, Sec. 3.2).

The paper singles out quantile regression as a classical way to cope with
measurement variability: instead of modelling the *mean* observed time, fit
the lower tail (e.g. the 25th percentile), hoping that the quantile surface
is less corrupted by interference spikes than the mean.  Section 3.2 argues
— and our experiments confirm — that this still fails in the cloud, because
the noise is not i.i.d. across samples: two configurations measured under
different interference regimes carry incomparable quantile estimates.

The model is a linear quantile regression over normalised parameter levels,
fitted exactly via the standard linear-programming formulation of the
pinball loss::

    minimise  tau * sum(u+) + (1 - tau) * sum(u-)
    s.t.      y - X beta = u+ - u-,   u+, u- >= 0

solved with :func:`scipy.optimize.linprog` (HiGHS).  Each round proposes the
candidates with the lowest predicted tau-quantile time, evaluates them solo
in the noisy cloud (the baselines' shared constraint), refits, and repeats.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.model import ApplicationModel
from repro.cloud.environment import CloudEnvironment
from repro.errors import TunerError
from repro.rng import child
from repro.tuners.base import ObservationLog, Tuner

_FIT_CAP = 320        # most recent observations kept for the fit
_CANDIDATES = 384     # proposal pool size per round
_BATCH = 16           # evaluations between refits
_EXPLORE_FRACTION = 0.25  # share of each batch drawn uniformly at random
_VALIDATION_FRACTION = 0.15  # budget reserved for re-measuring finalists
_FINALISTS = 5        # configurations re-measured in the validation phase


def fit_pinball(
    features: np.ndarray, targets: np.ndarray, tau: float
) -> np.ndarray:
    """Exact linear quantile regression via the pinball-loss LP.

    Args:
        features: ``(n, d)`` design matrix (a constant column is appended).
        targets: ``(n,)`` response vector.
        tau: the quantile in ``(0, 1)``.

    Returns:
        The ``(d + 1,)`` coefficient vector ``beta`` (intercept last).
    """
    if not 0.0 < tau < 1.0:
        raise TunerError(f"tau must be in (0, 1), got {tau}")
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise TunerError("features must be (n, d) and targets (n,)")
    n, d = x.shape
    if n == 0:
        raise TunerError("cannot fit a quantile regression on zero samples")
    # Lazy: importing scipy.optimize would tax every `import repro`.
    from scipy.optimize import linprog

    design = np.column_stack([x, np.ones(n)])
    p = d + 1

    # Variables: [beta (p, free), u+ (n), u- (n)].
    cost = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
    a_eq = np.hstack([design, np.eye(n), -np.eye(n)])
    bounds = [(None, None)] * p + [(0.0, None)] * (2 * n)
    result = linprog(
        cost, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs"
    )
    if not result.success:  # pragma: no cover - HiGHS is robust on these LPs
        raise TunerError(f"quantile regression LP failed: {result.message}")
    return result.x[:p]


def predict_pinball(features: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Evaluate a fitted quantile-regression model on new feature rows."""
    x = np.asarray(features, dtype=float)
    design = np.column_stack([x, np.ones(x.shape[0])])
    return design @ np.asarray(beta, dtype=float)


class QuantileRegressionTuner(Tuner):
    """Minimise the modelled lower-quantile execution time.

    Args:
        tau: the target quantile (the paper's framing suggests a lower tail;
            default 0.25).
        seed: tuner seed.
    """

    name = "QuantileRegression"
    budget_fraction = 0.03

    def __init__(self, tau: float = 0.25, seed=0) -> None:
        super().__init__(seed=seed)
        if not 0.0 < tau < 1.0:
            raise TunerError(f"tau must be in (0, 1), got {tau}")
        self.tau = tau

    def _search(
        self,
        app: ApplicationModel,
        env: CloudEnvironment,
        budget: int,
        rng: np.random.Generator,
    ) -> tuple:
        log = ObservationLog()
        cards = app.space.cardinalities.astype(float)

        # Reserve a slice of the budget for the validation phase: re-measure
        # the best-looking configurations and pick by *empirical* quantile.
        validation = int(np.clip(budget * _VALIDATION_FRACTION, 0, 60))
        search_budget = max(1, budget - validation)

        n_seed = min(search_budget, max(2 * app.space.dimension, _BATCH))
        seeds = app.space.sample_indices(n_seed, child(rng))
        for idx, t in zip(seeds, env.run_solo_batch(app, seeds, label="quantreg")):
            log.add(int(idx), float(t))
        spent = n_seed
        refits = 0

        while spent < search_budget:
            proposals = self._propose(app, log, cards, rng)
            take = min(len(proposals), search_budget - spent)
            times = env.run_solo_batch(app, proposals[:take], label="quantreg")
            for idx, t in zip(proposals[:take], times):
                log.add(int(idx), float(t))
            spent += take
            refits += 1

        best, validated = self._validate(app, env, log, budget - spent)
        spent += validated
        details = {
            "tau": self.tau,
            "refits": refits,
            "validation_runs": validated,
            "best_observed_time": log.best_time,
            # Exposed for the Sec. 3.6 integration (HybridTuner).
            "observed_indices": list(log.indices),
            "observed_times": list(log.times),
        }
        return best, spent, details

    # -- proposal and selection ------------------------------------------

    def _fit(self, app: ApplicationModel, log: ObservationLog, cards: np.ndarray):
        indices, times = log.as_arrays()
        if len(indices) > _FIT_CAP:
            indices, times = indices[-_FIT_CAP:], times[-_FIT_CAP:]
        train = app.space.levels_matrix(indices) / cards
        return fit_pinball(train, times, self.tau)

    def _propose(
        self,
        app: ApplicationModel,
        log: ObservationLog,
        cards: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        beta = self._fit(app, log, cards)
        pool = app.space.sample_indices(_CANDIDATES, child(rng))
        neighbors = app.space.neighbors(log.best_index, seed=child(rng))
        if neighbors.size:
            pool = np.concatenate([pool, neighbors[:48]])
        pool = np.unique(pool)
        predicted = predict_pinball(app.space.levels_matrix(pool) / cards, beta)
        order = np.argsort(predicted)
        n_exploit = max(1, int(_BATCH * (1.0 - _EXPLORE_FRACTION)))
        exploit = pool[order[:n_exploit]]
        explore = app.space.sample_indices(_BATCH - n_exploit, child(rng))
        return np.unique(np.concatenate([exploit, explore])).astype(np.int64)

    def _validate(
        self,
        app: ApplicationModel,
        env: CloudEnvironment,
        log: ObservationLog,
        budget: int,
    ) -> tuple:
        """Re-measure the finalists and pick by empirical tau-quantile.

        This is the method's defining move: the single best observation is
        not trusted; the lower empirical quantile across repeated runs is.
        It still fails the paper's way — the repeats of different finalists
        land in different interference regimes, so their quantiles remain
        incomparable — but it is the honest version of the technique.
        Returns ``(best_index, runs_spent)``.
        """
        indices, times = log.as_arrays()
        order = np.argsort(times)
        finalists = []
        for pos in order:
            idx = int(indices[pos])
            if idx not in finalists:
                finalists.append(idx)
            if len(finalists) == _FINALISTS:
                break
        if budget < len(finalists) or len(finalists) < 2:
            return log.best_index, 0

        per = budget // len(finalists)
        samples = {idx: [times[indices == idx].min()] for idx in finalists}
        for idx in finalists:
            observed = env.run_solo_batch(
                app, np.full(per, idx, dtype=np.int64), label="quantreg-validate"
            )
            samples[idx].extend(float(t) for t in observed)
        quantiles = {
            idx: float(np.quantile(np.asarray(ts), self.tau))
            for idx, ts in samples.items()
        }
        best = min(quantiles, key=quantiles.get)
        return int(best), per * len(finalists)
