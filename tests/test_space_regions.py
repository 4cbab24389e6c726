"""Unit and property tests for region partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpaceError
from repro.space.parameters import categorical
from repro.space.regions import Region, partition_range
from repro.space.space import SearchSpace


def space_of_size_24():
    return SearchSpace(
        [categorical("a", list(range(4))), categorical("b", list(range(6)))]
    )


class TestRegion:
    def test_size(self):
        assert Region(0, 3, 10).size == 7

    def test_size_with_stride(self):
        assert Region(0, 0, 10, stride=3).size == 4  # 0, 3, 6, 9
        assert Region(0, 1, 10, stride=3).size == 3  # 1, 4, 7

    def test_empty_rejected(self):
        with pytest.raises(SpaceError):
            Region(0, 5, 5)

    def test_bad_stride_rejected(self):
        with pytest.raises(SpaceError):
            Region(0, 0, 10, stride=0)

    def test_contains(self):
        r = Region(0, 3, 10)
        assert 3 in r and 9 in r
        assert 2 not in r and 10 not in r

    def test_contains_with_stride(self):
        r = Region(0, 2, 12, stride=5)  # 2, 7
        assert 2 in r and 7 in r
        assert 3 not in r and 12 not in r

    def test_indices(self):
        assert Region(0, 2, 5).indices().tolist() == [2, 3, 4]

    def test_indices_with_stride(self):
        assert Region(0, 1, 10, stride=4).indices().tolist() == [1, 5, 9]

    def test_sample_within(self):
        r = Region(0, 100, 200)
        s = r.sample(50, seed=1)
        assert s.min() >= 100 and s.max() < 200

    def test_sample_with_stride_stays_on_lattice(self):
        r = Region(0, 3, 100, stride=7)
        s = r.sample(40, seed=1)
        assert all(int(v) in r for v in s)

    def test_sample_without_replacement(self):
        r = Region(0, 0, 10)
        s = r.sample(10, seed=1, replace=False)
        assert sorted(s.tolist()) == list(range(10))

    def test_sample_without_replacement_with_stride(self):
        r = Region(0, 0, 10, stride=2)
        s = r.sample(5, seed=1, replace=False)
        assert sorted(s.tolist()) == [0, 2, 4, 6, 8]

    def test_sample_too_many_without_replacement(self):
        with pytest.raises(SpaceError):
            Region(0, 0, 5).sample(6, seed=1, replace=False)


class TestPartition:
    @pytest.mark.parametrize("interleaved", [True, False])
    def test_covers_whole_space(self, interleaved):
        space = space_of_size_24()
        regions = partition_range(0, space.size, 5, interleaved=interleaved)
        covered = np.concatenate([r.indices() for r in regions])
        assert sorted(covered.tolist()) == list(range(space.size))

    @pytest.mark.parametrize("interleaved", [True, False])
    def test_near_equal_sizes(self, interleaved):
        regions = partition_range(
            0, space_of_size_24().size, 5, interleaved=interleaved
        )
        sizes = [r.size for r in regions]
        assert max(sizes) - min(sizes) <= 1

    def test_more_regions_than_points(self):
        regions = partition_range(0, space_of_size_24().size, 100)
        assert len(regions) == 24
        assert all(r.size == 1 for r in regions)

    def test_invalid_count(self):
        with pytest.raises(SpaceError):
            partition_range(0, space_of_size_24().size, 0)

    def test_empty_range(self):
        with pytest.raises(SpaceError):
            partition_range(5, 5, 2)

    def test_region_ids_sequential(self):
        regions = partition_range(0, space_of_size_24().size, 4)
        assert [r.region_id for r in regions] == [0, 1, 2, 3]

    def test_interleaved_members_are_spread(self):
        """An interleaved region spans the whole index range."""
        regions = partition_range(0, space_of_size_24().size, 4)
        r0 = regions[0].indices()
        assert r0.min() == 0
        assert r0.max() >= 20

    def test_contiguous_members_are_blocked(self):
        regions = partition_range(0, space_of_size_24().size, 4, interleaved=False)
        r0 = regions[0].indices()
        assert r0.tolist() == list(range(6))

    @given(st.integers(1, 500), st.integers(1, 50), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_partition_properties(self, size, n_regions, interleaved):
        """Any partition is a disjoint, exhaustive, near-equal cover."""
        space = SearchSpace([categorical("a", list(range(size)))])
        regions = partition_range(0, space.size, n_regions, interleaved=interleaved)
        assert sum(r.size for r in regions) == size
        covered = np.concatenate([r.indices() for r in regions])
        assert len(covered) == size
        assert sorted(covered.tolist()) == list(range(size))
        sizes = [r.size for r in regions]
        assert max(sizes) - min(sizes) <= 1
