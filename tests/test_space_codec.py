"""Unit and property tests for the SearchSpace mixed-radix codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexOutOfSpaceError, SpaceError
from repro.space.parameters import Parameter, boolean, categorical
from repro.space.space import SearchSpace


def small_space():
    return SearchSpace(
        [
            categorical("a", ["x", "y", "z"]),
            boolean("b"),
            categorical("c", [10, 20, 30, 40]),
        ]
    )


class TestBasics:
    def test_size_is_product(self):
        assert small_space().size == 3 * 2 * 4

    def test_dimension(self):
        assert small_space().dimension == 3

    def test_needs_parameters(self):
        with pytest.raises(SpaceError):
            SearchSpace([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SpaceError):
            SearchSpace([boolean("b"), boolean("b")])

    def test_parameter_lookup(self):
        space = small_space()
        assert space.parameter("b").name == "b"
        with pytest.raises(SpaceError):
            space.parameter("nope")

    def test_equality_and_hash(self):
        assert small_space() == small_space()
        assert hash(small_space()) == hash(small_space())

    def test_cardinalities_copy(self):
        space = small_space()
        cards = space.cardinalities
        cards[0] = 99
        assert space.cardinalities[0] == 3


class TestCodec:
    def test_index_zero_is_all_first_levels(self):
        space = small_space()
        assert space.levels_of(0) == (0, 0, 0)
        assert space.values_of(0) == ("x", False, 10)

    def test_last_index(self):
        space = small_space()
        assert space.levels_of(space.size - 1) == (2, 1, 3)

    def test_last_parameter_fastest_varying(self):
        space = small_space()
        assert space.levels_of(1) == (0, 0, 1)

    def test_roundtrip_all_indices(self):
        space = small_space()
        for index in range(space.size):
            assert space.index_of_levels(space.levels_of(index)) == index

    def test_out_of_range_raises(self):
        space = small_space()
        with pytest.raises(IndexOutOfSpaceError):
            space.levels_of(space.size)
        with pytest.raises(IndexOutOfSpaceError):
            space.levels_of(-1)

    def test_wrong_arity_raises(self):
        space = small_space()
        with pytest.raises(SpaceError):
            space.index_of_levels([0, 0])

    def test_bad_level_raises(self):
        with pytest.raises(SpaceError):
            small_space().index_of_levels([3, 0, 0])

    def test_config_dict(self):
        d = small_space().config_dict(0)
        assert d == {"a": "x", "b": False, "c": 10}


class TestVectorised:
    def test_levels_matrix_matches_scalar(self):
        space = small_space()
        indices = np.arange(space.size)
        matrix = space.levels_matrix(indices)
        for index in range(space.size):
            assert tuple(matrix[index]) == space.levels_of(index)

    def test_matrix_roundtrip(self):
        space = small_space()
        indices = np.array([0, 3, 7, 23])
        assert np.array_equal(
            space.indices_of_levels_matrix(space.levels_matrix(indices)), indices
        )

    def test_matrix_out_of_range(self):
        with pytest.raises(IndexOutOfSpaceError):
            small_space().levels_matrix(np.array([99]))

    def test_matrix_bad_levels(self):
        with pytest.raises(SpaceError):
            small_space().indices_of_levels_matrix(np.array([[5, 0, 0]]))

    def test_matrix_wrong_columns(self):
        with pytest.raises(SpaceError):
            small_space().indices_of_levels_matrix(np.array([[0, 0]]))


class TestSampling:
    def test_sample_in_range(self):
        space = small_space()
        s = space.sample_indices(100, seed=0)
        assert s.min() >= 0 and s.max() < space.size

    def test_sample_without_replacement_distinct(self):
        space = small_space()
        s = space.sample_indices(20, seed=0, replace=False)
        assert len(set(s.tolist())) == 20

    def test_sample_all_without_replacement(self):
        space = small_space()
        s = space.sample_indices(space.size, seed=0, replace=False)
        assert sorted(s.tolist()) == list(range(space.size))

    def test_sample_too_many_without_replacement(self):
        with pytest.raises(SpaceError):
            small_space().sample_indices(100, seed=0, replace=False)

    def test_sample_negative(self):
        with pytest.raises(SpaceError):
            small_space().sample_indices(-1)

    def test_sample_deterministic(self):
        space = small_space()
        a = space.sample_indices(50, seed=42)
        b = space.sample_indices(50, seed=42)
        assert np.array_equal(a, b)

    def test_neighbors_one_step(self):
        space = small_space()
        index = space.index_of_levels([1, 0, 2])
        for n in space.neighbors(index):
            diff = np.abs(
                np.array(space.levels_of(int(n))) - np.array([1, 0, 2])
            )
            assert diff.sum() == 1

    def test_neighbors_respect_bounds(self):
        space = small_space()
        for n in space.neighbors(0):
            levels = space.levels_of(int(n))
            assert all(l >= 0 for l in levels)


class TestDerived:
    def test_truncated_space(self):
        t = small_space().truncated(2)
        assert t.size == 2 * 2 * 2

    def test_iter_chunks_covers_space(self):
        space = small_space()
        seen = np.concatenate(list(space.iter_chunks(chunk=7)))
        assert np.array_equal(seen, np.arange(space.size))

    def test_iter_chunks_invalid(self):
        with pytest.raises(SpaceError):
            list(small_space().iter_chunks(chunk=0))


@st.composite
def spaces_and_indices(draw):
    cards = draw(st.lists(st.integers(2, 6), min_size=1, max_size=6))
    params = [Parameter(f"p{i}", tuple(range(c))) for i, c in enumerate(cards)]
    space = SearchSpace(params)
    index = draw(st.integers(0, space.size - 1))
    return space, index


class TestProperties:
    @given(spaces_and_indices())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, space_index):
        space, index = space_index
        assert space.index_of_levels(space.levels_of(index)) == index

    @given(spaces_and_indices())
    @settings(max_examples=100, deadline=None)
    def test_levels_within_cardinalities(self, space_index):
        space, index = space_index
        for level, card in zip(space.levels_of(index), space.cardinalities):
            assert 0 <= level < card

    @given(spaces_and_indices())
    @settings(max_examples=100, deadline=None)
    def test_vectorised_agrees_with_scalar(self, space_index):
        space, index = space_index
        assert tuple(space.levels_matrix(np.array([index]))[0]) == space.levels_of(index)
