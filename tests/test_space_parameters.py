"""Unit tests for repro.space.parameters."""

import pytest

from repro.errors import SpaceError
from repro.space.parameters import (
    Parameter,
    boolean,
    categorical,
    integer_range,
    value_grid,
)


class TestParameter:
    def test_cardinality(self):
        p = Parameter("x", (1, 2, 3))
        assert p.cardinality == 3

    def test_value_of_out_of_range_raises(self):
        p = Parameter("x", ("a", "b"))
        with pytest.raises(SpaceError):
            p.value_of(2)
        with pytest.raises(SpaceError):
            p.value_of(-1)

    def test_empty_name_rejected(self):
        with pytest.raises(SpaceError):
            Parameter("", (1, 2))

    def test_empty_values_rejected(self):
        with pytest.raises(SpaceError):
            Parameter("x", ())

    def test_duplicate_values_rejected(self):
        with pytest.raises(SpaceError):
            Parameter("x", (1, 1))

    def test_frozen(self):
        p = Parameter("x", (1, 2))
        with pytest.raises(AttributeError):
            p.name = "y"


class TestTruncation:
    def test_truncate_keeps_endpoints(self):
        p = Parameter("x", tuple(range(10)))
        t = p.truncated(3)
        assert t.values[0] == 0
        assert t.values[-1] == 9
        assert t.cardinality == 3

    def test_truncate_noop_when_larger(self):
        p = Parameter("x", (1, 2, 3))
        assert p.truncated(5) is p

    def test_truncate_to_one(self):
        p = Parameter("x", (1, 2, 3))
        t = p.truncated(1)
        assert t.values == (1,)

    def test_truncate_invalid(self):
        with pytest.raises(SpaceError):
            Parameter("x", (1, 2)).truncated(0)

    def test_truncate_preserves_kind(self):
        p = Parameter("x", (1, 2, 3, 4), kind="system")
        assert p.truncated(2).kind == "system"


class TestConstructors:
    def test_categorical(self):
        p = categorical("policy", ["lru", "lfu"])
        assert p.values == ("lru", "lfu")
        assert p.kind == "app"

    def test_boolean(self):
        p = boolean("flag")
        assert p.values == (False, True)
        assert p.cardinality == 2

    def test_integer_range(self):
        p = integer_range("n", 2, 10, step=2)
        assert p.values == (2, 4, 6, 8, 10)

    def test_integer_range_invalid_step(self):
        with pytest.raises(SpaceError):
            integer_range("n", 0, 5, step=0)

    def test_integer_range_empty(self):
        with pytest.raises(SpaceError):
            integer_range("n", 5, 2)

    def test_value_grid(self):
        p = value_grid("spacing", 0.0, 1.0, 5)
        assert p.cardinality == 5
        assert p.values[0] == 0.0
        assert p.values[-1] == 1.0

    def test_value_grid_single_point(self):
        p = value_grid("spacing", 0.5, 2.0, 1)
        assert p.values == (0.5,)

    def test_value_grid_invalid_count(self):
        with pytest.raises(SpaceError):
            value_grid("spacing", 0.0, 1.0, 0)

    def test_system_kind(self):
        p = categorical("vm.swappiness", [0, 10], kind="system")
        assert p.kind == "system"
