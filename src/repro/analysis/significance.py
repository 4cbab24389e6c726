"""Statistical comparison helpers for strategy A-vs-B claims.

The benchmark harness asserts orderings ("DarwinGame beats BLISS") from a
handful of repeats; these helpers make such claims statistically honest:

* :func:`mann_whitney` — non-parametric two-sample test on execution times
  (no normality assumption, right for skewed cloud measurements);
* :func:`bootstrap_mean_diff` — bootstrap CI of the mean difference;
* :func:`cliffs_delta` — effect size on an interpretable [-1, 1] scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of one A-vs-B comparison (A is "better" when lower)."""

    p_value: float
    a_mean: float
    b_mean: float
    effect_size: float          # Cliff's delta: -1 (A always lower) .. +1
    significant: bool

    @property
    def a_is_lower(self) -> bool:
        return self.a_mean < self.b_mean


def _validate(a, b) -> tuple:
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size < 2 or y.size < 2:
        raise ReproError("need at least two samples per side")
    return x, y


def cliffs_delta(a, b) -> float:
    """Cliff's delta: P(a > b) - P(a < b) over all sample pairs."""
    x, y = _validate(a, b)
    greater = (x[:, None] > y[None, :]).sum()
    less = (x[:, None] < y[None, :]).sum()
    return float((greater - less) / (x.size * y.size))


def mann_whitney(a, b, *, alpha: float = 0.05) -> ComparisonResult:
    """Two-sided Mann-Whitney U test plus effect size.

    Args:
        a, b: samples (e.g. per-repeat execution times of two strategies).
        alpha: significance level for the ``significant`` flag.
    """
    # Lazy: scipy.stats is slow to import and no engine path calls this.
    from scipy.stats import mannwhitneyu

    x, y = _validate(a, b)
    if np.all(x == x[0]) and np.all(y == y[0]) and x[0] == y[0]:
        # Degenerate identical-constant samples: no evidence either way.
        return ComparisonResult(
            p_value=1.0, a_mean=float(x.mean()), b_mean=float(y.mean()),
            effect_size=0.0, significant=False,
        )
    stat = mannwhitneyu(x, y, alternative="two-sided")
    return ComparisonResult(
        p_value=float(stat.pvalue),
        a_mean=float(x.mean()),
        b_mean=float(y.mean()),
        effect_size=cliffs_delta(x, y),
        significant=bool(stat.pvalue < alpha),
    )


def bootstrap_mean_diff(
    a,
    b,
    *,
    n_boot: int = 2000,
    confidence: float = 0.95,
    seed: SeedLike = 0,
) -> tuple:
    """Bootstrap CI of ``mean(a) - mean(b)``; returns ``(low, high)``."""
    x, y = _validate(a, b)
    if not 0.0 < confidence < 1.0:
        raise ReproError(f"confidence must be in (0, 1), got {confidence}")
    rng = ensure_rng(seed)
    diffs = np.empty(n_boot)
    for k in range(n_boot):
        xs = x[rng.integers(0, x.size, x.size)]
        ys = y[rng.integers(0, y.size, y.size)]
        diffs[k] = xs.mean() - ys.mean()
    tail = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(diffs, tail)),
        float(np.quantile(diffs, 1.0 - tail)),
    )
