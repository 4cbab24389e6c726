"""Seed and random-number-generator plumbing.

All stochastic components of the library take either an integer seed or a
:class:`numpy.random.Generator`.  Components that own sub-components derive
child generators with :func:`spawn` so that every figure in the paper
reproduction is bit-for-bit reproducible from a single integer.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(start: int, mult: int, n: int) -> List[int]:
    """``start, start*mult, start*mult**2, ...`` (n + 1 values, mod 2**32)."""
    out = [start]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


def _uint32_words(value) -> List[int]:
    """numpy's ``_coerce_to_uint32_array`` for an int or a sequence of ints."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    return [w for item in value for w in _uint32_words(item)]


# ``generate_state(4, np.uint64)`` reads 8 words cycling through the pool,
# each hashed with the next constant of a fixed sequence.
_STATE_CONST = _hash_constants(_INIT_B, _MULT_B, 8)
_STATE_XOR = np.array(_STATE_CONST[:-1], dtype=np.uint32)
_STATE_MULT = np.array(_STATE_CONST[1:], dtype=np.uint32)
# numpy scalars: a Python int operand costs a dtype promotion per call.
_SHIFT = np.uint32(16)
_MIX_R = np.uint32(_MIX_MULT_R)


class _ReplayedSeed(ISeedSequence):
    """A child's PCG64 seed words, computed ahead by :class:`SpawnReplay`."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a replayed seed holds only PCG64's 4 uint64 words")
        return self._words


class SpawnReplay:
    """``seed_seq.spawn(n)``'s generators without building their seeds.

    A child's entropy is its parent's entropy (padded to the pool size),
    the parent's spawn key, then the child's index.  Everything before the
    index is hashed once, here; :meth:`states` then finishes the hash for a
    run of indices in one vectorised pass and returns what each child's
    ``generate_state(4, np.uint64)`` gives, which is all PCG64 reads of a
    seed.  The parent's own ``n_children_spawned`` does not move, so the
    owner counts the children it made.
    """

    def __init__(self, seed_seq: np.random.SeedSequence) -> None:
        pool_size = seed_seq.pool_size
        words = _uint32_words(seed_seq.entropy)
        words += [0] * (pool_size - len(words))
        words += _uint32_words(seed_seq.spawn_key)
        # SeedSequence.mix_entropy over every word but the child's index.
        hash_const = _INIT_A

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const & _MASK32
            return value ^ (value >> 16)

        def mix(x: int, y: int) -> int:
            result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
            return result ^ (result >> 16)

        pool = [hashmix(words[i]) for i in range(pool_size)]
        for src in range(pool_size):
            for dst in range(pool_size):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[pool_size:]:
            for dst in range(pool_size):
                pool[dst] = mix(pool[dst], hashmix(word))
        # The index word's pass, for the 8 pool words ``generate_state(4,
        # np.uint64)`` reads (cycling through the pool): each one's hashmix
        # constants and its half of ``mix``.
        consts = _hash_constants(hash_const, _MULT_A, pool_size)
        cycle = [j % pool_size for j in range(8)]
        self._xor = np.array([consts[j] for j in cycle], dtype=np.uint32)
        self._mult = np.array([consts[j + 1] for j in cycle], dtype=np.uint32)
        self._left = np.array(
            [_MIX_MULT_L * pool[j] & _MASK32 for j in cycle], dtype=np.uint32
        )

    def states(self, first: int, n: int) -> np.ndarray:
        """``(n, 4)`` uint64 seed words of children ``first .. first + n - 1``."""
        if first < 0 or n < 0 or first + n > 2**32:
            raise ValueError(f"cannot replay children {first}..{first + n - 1}")
        index = np.arange(first, first + n, dtype=np.uint32)[:, None]
        value = index ^ self._xor          # (n, 8): hashmix of the index
        value *= self._mult
        value ^= value >> _SHIFT
        value *= _MIX_R
        state = self._left - value         # mix into the pool word
        state ^= state >> _SHIFT
        state ^= _STATE_XOR                # generate_state's hash
        state *= _STATE_MULT
        state ^= state >> _SHIFT
        # Word pairs read as little-endian uint64, as numpy reads them.
        return state.astype("<u4", copy=False).view("<u8").astype(
            np.uint64, copy=False
        )

    def generators(self, first: int, n: int) -> List[np.random.Generator]:
        """The generators ``seed_seq.spawn(first + n)[first:]`` would seed."""
        generator, pcg64 = np.random.Generator, np.random.PCG64
        return [
            generator(pcg64(_ReplayedSeed(words)))
            for words in self.states(first, n)
        ]


def choice_rows(
    rngs: Sequence[np.random.Generator], p: np.ndarray, sizes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``rngs[r].choice(n, sizes[r], replace=False, p=p[r, :n])`` for every row.

    ``p`` holds one row of probabilities per generator, padded with zeros
    past its ``n`` entries.  Every row replays numpy's passes: draw
    ``rng.random(size - found)``, zero the entries already picked,
    normalise the cumulative sum by its last entry, map the draws through
    ``searchsorted(side="right")`` and keep each new index at its first
    occurrence.  Each pass runs over every row still short at once; only
    the draws are made row by row.  A row's picks, and its generator's
    state afterwards, are numpy's.  Refuses non-finite probabilities and
    fewer positive ones than picks in a row, which keeps the passes finite.

    Returns the picks' rows and columns, row after row, each row in pick
    order.
    """
    p = np.array(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    need = np.array(sizes, dtype=np.int64)
    if (np.count_nonzero(p > 0, axis=1) < need).any():
        raise ValueError("fewer non-zero entries in p than size")
    n, width = p.shape
    left = np.flatnonzero(need > 0)
    none = np.zeros(0, dtype=np.int64)
    found_rows, found_cols = [none], [none]
    while left.size:
        draws = np.concatenate([
            rngs[r].random(m) for r, m in zip(left.tolist(), need[left].tolist())
        ])
        rows = np.repeat(np.arange(left.size), need[left])
        cdf = p[left].cumsum(axis=1)
        cdf /= cdf[:, -1:].copy()
        cols = _row_searchsorted(cdf, rows, draws)
        _, first = np.unique(rows * width + cols, return_index=True)
        first.sort()
        rows, cols = left[rows[first]], cols[first]
        p[rows, cols] = 0.0
        found_rows.append(rows)
        found_cols.append(cols)
        need -= np.bincount(rows, minlength=n)
        left = left[need[left] > 0]
    rows = np.concatenate(found_rows)
    order = np.argsort(rows, kind="stable")
    return rows[order], np.concatenate(found_cols)[order]


def _row_searchsorted(
    cdf: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``cdf[r].searchsorted(v, side="right")`` for every ``(r, v)`` pair.

    One search over the whole table: numpy orders complex numbers by their
    real part, then their imaginary part, so the rows, keyed by their index
    and holding their sorted values, form one sorted array.
    """
    n, width = cdf.shape
    keys = np.empty(cdf.shape, dtype=complex)
    keys.real = np.arange(n)[:, None]
    keys.imag = cdf
    query = np.empty(rows.size, dtype=complex)
    query.real = rows
    query.imag = values
    return keys.ravel().searchsorted(query, side="right") - rows * width
