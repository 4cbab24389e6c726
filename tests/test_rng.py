"""Unit tests for seed/generator plumbing."""

import numpy as np
import pytest

from oracle.swiss import choice_without_replacement
from repro.rng import SpawnReplay, child, choice_rows, ensure_rng, spawn


class TestEnsureRng:
    def test_int_seed_deterministic(self):
        a = ensure_rng(7).random(5)
        b = ensure_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestSpawn:
    def test_children_independent_of_each_other(self):
        a, b = spawn(ensure_rng(0), 2)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_spawn_deterministic(self):
        a1, b1 = spawn(ensure_rng(3), 2)
        a2, b2 = spawn(ensure_rng(3), 2)
        assert np.array_equal(a1.random(10), a2.random(10))
        assert np.array_equal(b1.random(10), b2.random(10))

    def test_spawn_zero(self):
        assert spawn(ensure_rng(0), 0) == []

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(0), -1)

    def test_child(self):
        c = child(ensure_rng(5))
        assert isinstance(c, np.random.Generator)

    def test_spawning_advances_parent_state(self):
        rng = ensure_rng(9)
        first = spawn(rng, 1)[0]
        second = spawn(rng, 1)[0]
        assert not np.array_equal(first.random(10), second.random(10))


def _weights(meta, case):
    """Plain, zero-laced, sharp (``**4``, as the Swiss veteran draw) and
    sharp zero-laced weights."""
    n = int(meta.integers(1, 80))
    w = meta.random(n)
    if case % 4 in (1, 3):
        w[meta.random(n) < 0.5] = 0.0
    if case % 4 >= 2:
        w = np.power(np.maximum(w, 1e-6), 4.0 if case % 8 < 4 else 40.0)
    return w


def _weight_sets(n_cases=2000):
    """(probabilities, size, seed) of the 2,000 weight sets the replays
    are held to; a set without a positive weight is skipped."""
    meta = ensure_rng(2024)
    cases = []
    for case in range(n_cases):
        w = _weights(meta, case)
        positive = int(np.count_nonzero(w > 0))
        if positive == 0:
            continue
        # Every fifth case takes every positive weight: the draw loop
        # then runs until the last, least likely index turns up.
        size = positive if case % 5 == 0 else int(meta.integers(1, positive + 1))
        cases.append((w / w.sum(), size, int(meta.integers(2**32))))
    return cases


class TestChoiceWithoutReplacement:
    """The per-pool oracle's draw (``tests/oracle/swiss.py``) is numpy's."""

    def test_replays_generator_choice(self):
        checked = 0
        for p, size, seed in _weight_sets():
            ours, numpys = ensure_rng(seed), ensure_rng(seed)
            picks = choice_without_replacement(ours, p, size)
            want = numpys.choice(len(p), size=size, replace=False, p=p)
            assert picks == want.tolist()
            assert ours.bit_generator.state == numpys.bit_generator.state
            checked += 1
        assert checked > 1900

    def test_does_not_modify_weights(self):
        p = np.array([0.5, 0.25, 0.25])
        choice_without_replacement(ensure_rng(0), p, 2)
        assert p.tolist() == [0.5, 0.25, 0.25]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_refused(self, bad):
        with pytest.raises(ValueError):
            choice_without_replacement(ensure_rng(0), np.array([0.5, bad]), 1)

    def test_fewer_positive_weights_than_picks_refused(self):
        with pytest.raises(ValueError):
            choice_without_replacement(ensure_rng(0), np.array([1.0, 0.0, 0.0]), 2)


class TestChoiceRows:
    """``choice_rows`` replays ``Generator.choice(replace=False, p=...)``
    for every row of a table at once, each row on its own generator."""

    def test_every_row_replays_generator_choice(self):
        cases = _weight_sets()
        assert len(cases) > 1900
        width = max(len(p) for p, _, _ in cases)
        table = np.zeros((len(cases), width))
        for row, (p, _, _) in enumerate(cases):
            table[row, : len(p)] = p
        ours = [ensure_rng(seed) for _, _, seed in cases]
        rows, cols = choice_rows(ours, table, [size for _, size, _ in cases])
        ends = np.cumsum(np.bincount(rows, minlength=len(cases)))
        picks = np.split(cols, ends[:-1])
        for (p, size, seed), mine, rng in zip(cases, picks, ours):
            numpys = ensure_rng(seed)
            want = numpys.choice(len(p), size=size, replace=False, p=p)
            assert mine.tolist() == want.tolist()
            assert rng.bit_generator.state == numpys.bit_generator.state

    def test_rows_taking_nothing_draw_nothing(self):
        rngs = [ensure_rng(1), ensure_rng(2)]
        before = [r.bit_generator.state for r in rngs]
        rows, cols = choice_rows(rngs, np.array([[0.5, 0.5], [1.0, 0.0]]), [0, 0])
        assert rows.size == cols.size == 0
        assert [r.bit_generator.state for r in rngs] == before

    def test_does_not_modify_weights(self):
        p = np.array([[0.5, 0.25, 0.25]])
        choice_rows([ensure_rng(0)], p, [2])
        assert p.tolist() == [[0.5, 0.25, 0.25]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_refused(self, bad):
        with pytest.raises(ValueError):
            choice_rows([ensure_rng(0)], np.array([[0.5, bad]]), [1])

    def test_fewer_positive_weights_than_picks_refused(self):
        with pytest.raises(ValueError):
            choice_rows(
                [ensure_rng(0), ensure_rng(1)],
                np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]), [2, 2],
            )


class TestSpawnReplay:
    """``SpawnReplay`` is numpy's ``SeedSequence.spawn`` plus
    ``generate_state(4, np.uint64)``, replayed for a run of children."""

    @pytest.mark.parametrize("entropy", [
        0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 12345,  # ints, > 64 bits
        [1, 2, 3], [2**40, 0, 9, 4, 4, 1],  # sequences, shorter/longer than a pool
        np.array([5, 6], dtype=np.uint32),
    ], ids=repr)
    @pytest.mark.parametrize("spawn_key", [(), (3,), (1, 2**33)])
    @pytest.mark.parametrize("pool_size", [4, 9])
    def test_child_words_equal_numpys(self, entropy, spawn_key, pool_size):
        def parent():
            return np.random.SeedSequence(
                entropy, spawn_key=spawn_key, pool_size=pool_size
            )

        replay = SpawnReplay(parent())
        for first, n in [(0, 5), (5, 3), (4000, 2)]:
            children = parent().spawn(first + n)[first:]
            want = [c.generate_state(4, np.uint64) for c in children]
            assert np.array_equal(replay.states(first, n), np.array(want))

    def test_generators_draw_what_spawn_gives(self):
        replayed = SpawnReplay(ensure_rng(3).bit_generator.seed_seq)
        ours = replayed.generators(0, 3) + replayed.generators(3, 2)
        theirs = spawn(ensure_rng(3), 5)
        for a, b in zip(ours, theirs):
            assert np.array_equal(a.random(8), b.random(8))
            assert np.array_equal(a.standard_normal((4, 3)), b.standard_normal((4, 3)))
            assert a.bit_generator.state == b.bit_generator.state

    def test_refuses_what_it_cannot_replay(self):
        replay = SpawnReplay(np.random.SeedSequence(1))
        with pytest.raises(ValueError):
            replay.states(-1, 2)
        with pytest.raises(ValueError):
            replay.states(2**32 - 1, 2)  # a child index past one uint32 word
        assert replay.states(3, 0).shape == (0, 4)
