"""Search spaces as lazy mixed-radix codecs.

The paper maps every point of an n-dimensional space to a one-dimensional
index (Sec. 3.3).  We implement exactly that: a :class:`SearchSpace` never
materialises its configurations; it converts between integer indices and
per-parameter *levels* with mixed-radix arithmetic, so the full 7.8-million
point Redis space costs a few hundred bytes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import IndexOutOfSpaceError, SpaceError
from repro.rng import SeedLike, ensure_rng
from repro.space.parameters import Parameter
from repro.types import ConfigValues


class SearchSpace:
    """The cross product of a sequence of :class:`Parameter` value sets.

    Indexing convention: the *last* parameter is the fastest-varying digit,
    i.e. ``index = ((l0 * a1 + l1) * a2 + l2) ...`` for levels ``l_j`` and
    cardinalities ``a_j``.  Contiguous index ranges therefore correspond to
    fixing the leading parameters — which is what both region partitioning
    (Sec. 3.3) and subspace integration (Sec. 3.6) rely on.
    """

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        if len(parameters) == 0:
            raise SpaceError("a search space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate parameter names in {names}")
        self._parameters: Tuple[Parameter, ...] = tuple(parameters)
        self._cards = np.array([p.cardinality for p in parameters], dtype=np.int64)
        # Mixed-radix place values: strides[j] = product of cardinalities of
        # all parameters after j.
        strides = np.ones(len(parameters), dtype=np.int64)
        for j in range(len(parameters) - 2, -1, -1):
            strides[j] = strides[j + 1] * self._cards[j + 1]
        self._strides = strides
        self._size = int(self._cards[0] * strides[0])

    # -- introspection -----------------------------------------------------

    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        return self._parameters

    @property
    def dimension(self) -> int:
        """Number of tunable parameters."""
        return len(self._parameters)

    @property
    def size(self) -> int:
        """Number of points in the space (product of cardinalities)."""
        return self._size

    @property
    def cardinalities(self) -> np.ndarray:
        """Per-parameter level counts (read-only copy)."""
        return self._cards.copy()

    def parameter(self, name: str) -> Parameter:
        """Look up a parameter by name."""
        for p in self._parameters:
            if p.name == name:
                return p
        raise SpaceError(f"no parameter named {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SearchSpace(dimension={self.dimension}, size={self.size})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchSpace):
            return NotImplemented
        return self._parameters == other._parameters

    def __hash__(self) -> int:
        return hash(self._parameters)

    # -- codec ---------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise IndexOutOfSpaceError(int(index), self._size)

    def levels_of(self, index: int) -> Tuple[int, ...]:
        """Decode ``index`` to a tuple of per-parameter levels."""
        self._check_index(index)
        out: List[int] = []
        remaining = int(index)
        for stride in self._strides:
            digit, remaining = divmod(remaining, int(stride))
            out.append(digit)
        return tuple(out)

    def index_of_levels(self, levels: Sequence[int]) -> int:
        """Encode per-parameter levels to an index."""
        if len(levels) != self.dimension:
            raise SpaceError(
                f"expected {self.dimension} levels, got {len(levels)}"
            )
        index = 0
        for level, card, stride in zip(levels, self._cards, self._strides):
            if not 0 <= level < card:
                raise SpaceError(f"level {level} out of range [0, {card})")
            index += int(level) * int(stride)
        return index

    def values_of(self, index: int) -> ConfigValues:
        """Decode ``index`` to the concrete parameter values."""
        return tuple(
            p.value_of(level)
            for p, level in zip(self._parameters, self.levels_of(index))
        )

    def config_dict(self, index: int) -> Dict[str, Any]:
        """Decode ``index`` to a ``{parameter name: value}`` mapping."""
        return {
            p.name: v for p, v in zip(self._parameters, self.values_of(index))
        }

    # -- vectorised codec ----------------------------------------------------

    def levels_matrix(self, indices: np.ndarray) -> np.ndarray:
        """Decode an array of indices to an ``(n, dimension)`` level matrix.

        This is the hot path for application-surface evaluation; it is pure
        numpy integer arithmetic.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self._size):
            bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
            raise IndexOutOfSpaceError(bad, self._size)
        return (idx[..., None] // self._strides) % self._cards

    def indices_of_levels_matrix(self, levels: np.ndarray) -> np.ndarray:
        """Encode an ``(n, dimension)`` level matrix back to indices."""
        lv = np.asarray(levels, dtype=np.int64)
        if lv.shape[-1] != self.dimension:
            raise SpaceError(
                f"level matrix has {lv.shape[-1]} columns, expected {self.dimension}"
            )
        if lv.size and (np.any(lv < 0) or np.any(lv >= self._cards)):
            raise SpaceError("level out of range in level matrix")
        return (lv * self._strides).sum(axis=-1)

    # -- sampling --------------------------------------------------------

    def sample_indices(
        self, n: int, seed: SeedLike = None, *, replace: bool = True
    ) -> np.ndarray:
        """Draw ``n`` configuration indices uniformly at random.

        With ``replace=False`` and ``n`` close to ``size`` this falls back to
        a permutation, which requires the space to fit in memory; callers
        sampling without replacement from huge spaces should keep ``n`` small
        (rejection sampling is used when ``n << size``).
        """
        if n < 0:
            raise SpaceError(f"cannot sample {n} indices")
        rng = ensure_rng(seed)
        if replace:
            return rng.integers(0, self._size, size=n, dtype=np.int64)
        if n > self._size:
            raise SpaceError(
                f"cannot sample {n} distinct indices from a space of {self._size}"
            )
        if n > self._size // 2:
            return rng.permutation(self._size)[:n].astype(np.int64)
        seen: set = set()
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            batch = rng.integers(0, self._size, size=max(16, (n - filled) * 2))
            for v in batch:
                iv = int(v)
                if iv not in seen:
                    seen.add(iv)
                    out[filled] = iv
                    filled += 1
                    if filled == n:
                        break
        return out

    def neighbors(self, index: int, seed: SeedLike = None, *, radius: int = 1) -> np.ndarray:
        """Return indices reachable by perturbing one parameter by ``<= radius`` levels.

        Used by local-search baselines (pattern search, greedy mutation).
        """
        levels = np.array(self.levels_of(index), dtype=np.int64)
        out: List[int] = []
        for j in range(self.dimension):
            for delta in range(-radius, radius + 1):
                if delta == 0:
                    continue
                new = int(levels[j]) + delta
                if 0 <= new < int(self._cards[j]):
                    moved = levels.copy()
                    moved[j] = new
                    out.append(int(self.indices_of_levels_matrix(moved[None, :])[0]))
        arr = np.array(sorted(set(out)), dtype=np.int64)
        if seed is not None:
            ensure_rng(seed).shuffle(arr)
        return arr

    # -- derived spaces ----------------------------------------------------

    def truncated(self, max_levels: int) -> "SearchSpace":
        """Scale the space down by truncating every parameter to ``max_levels``."""
        return SearchSpace([p.truncated(max_levels) for p in self._parameters])

    def iter_chunks(self, chunk: int = 1 << 18) -> Iterable[np.ndarray]:
        """Yield all indices of the space in contiguous chunks (for scans)."""
        if chunk <= 0:
            raise SpaceError(f"chunk must be positive, got {chunk}")
        for start in range(0, self._size, chunk):
            stop = min(start + chunk, self._size)
            yield np.arange(start, stop, dtype=np.int64)
