"""Seed and random-number-generator plumbing.

All stochastic components of the library take either an integer seed or a
:class:`numpy.random.Generator`.  Components that own sub-components derive
child generators with :func:`spawn` so that every figure in the paper
reproduction is bit-for-bit reproducible from a single integer.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def ensure_rng(seed: SeedLike) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a freshly seeded generator, an ``int`` a deterministic
    one, and an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``rng``."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def child(rng: np.random.Generator) -> np.random.Generator:
    """Derive a single child generator from ``rng``."""
    return spawn(rng, 1)[0]


def choice_without_replacement(
    rng: np.random.Generator, p: np.ndarray, size: int
) -> list[int]:
    """``rng.choice(len(p), size, replace=False, p=p)`` without its call overhead.

    Replays numpy's algorithm pass for pass: each pass draws
    ``rng.random(size - found)``, zeroes the weights already picked,
    normalises their cumulative sum and maps the draws through
    ``searchsorted(side="right")``, keeping each new index at its first
    occurrence.  The picks, and the generator's state afterwards, are
    numpy's; what goes is the per-call validation and the sort behind
    ``np.unique``.  Only the refusals that keep the loop finite stay:
    non-finite weights, and fewer positive weights than picks.
    """
    p = np.array(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if np.count_nonzero(p > 0) < size:
        raise ValueError("fewer non-zero entries in p than size")
    found: list[int] = []
    while len(found) < size:
        draws = rng.random(size - len(found))
        if found:
            p[found] = 0.0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        found.extend(dict.fromkeys(cdf.searchsorted(draws, side="right").tolist()))
    return found
