"""Tunable-parameter definitions.

A :class:`Parameter` is an ordered, finite set of candidate values for one
application- or systems-level knob (Table 1 of the paper).  Continuous knobs
are represented by explicit grids, matching how the paper's artifact samples
them; the tournament only ever needs level *indices*, the concrete values are
for humans and for applying configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence, Tuple

import numpy as np

from repro.errors import SpaceError


@dataclass(frozen=True)
class Parameter:
    """One tunable knob with a finite, ordered list of candidate values.

    Attributes:
        name: knob name as it appears in the application's configuration
            surface (e.g. ``"tcp-backlog"`` or ``"vm.swappiness"``).
        values: candidate values in a fixed order; the position of a value is
            its *level*.
        kind: free-form tag (``"app"`` or ``"system"``) used only for
            reporting which side of Table 1 the knob came from.
    """

    name: str
    values: Tuple[Any, ...]
    kind: str = "app"

    def __post_init__(self) -> None:
        if not self.name:
            raise SpaceError("parameter name must be non-empty")
        if len(self.values) == 0:
            raise SpaceError(f"parameter {self.name!r} has no candidate values")
        if len(set(map(repr, self.values))) != len(self.values):
            raise SpaceError(f"parameter {self.name!r} has duplicate values")

    @property
    def cardinality(self) -> int:
        """Number of candidate values (levels)."""
        return len(self.values)

    def value_of(self, level: int) -> Any:
        """Return the value at ``level``; raise :class:`SpaceError` if out of range."""
        if not 0 <= level < len(self.values):
            raise SpaceError(
                f"level {level} out of range for parameter {self.name!r} "
                f"with {len(self.values)} values"
            )
        return self.values[level]

    def truncated(self, max_levels: int) -> "Parameter":
        """Return a copy keeping at most ``max_levels`` evenly spread values.

        Used to build scaled-down spaces for tests and benchmarks while
        preserving each knob's value range (first and last values are kept).
        """
        if max_levels < 1:
            raise SpaceError(f"max_levels must be >= 1, got {max_levels}")
        if max_levels >= self.cardinality:
            return self
        if max_levels == 1:
            keep = [0]
        else:
            positions = np.linspace(0, self.cardinality - 1, max_levels)
            keep = sorted(set(int(round(p)) for p in positions))
        return Parameter(self.name, tuple(self.values[i] for i in keep), self.kind)


def categorical(name: str, values: Iterable[Any], *, kind: str = "app") -> Parameter:
    """A knob taking one of an explicit list of values."""
    return Parameter(name, tuple(values), kind)


def boolean(name: str, *, kind: str = "app") -> Parameter:
    """An on/off knob (``False``/``True``)."""
    return Parameter(name, (False, True), kind)


def integer_range(
    name: str, low: int, high: int, *, step: int = 1, kind: str = "app"
) -> Parameter:
    """An integer knob over ``low..high`` inclusive with the given step."""
    if step <= 0:
        raise SpaceError(f"step must be positive, got {step}")
    if high < low:
        raise SpaceError(f"empty integer range [{low}, {high}] for {name!r}")
    return Parameter(name, tuple(range(low, high + 1, step)), kind)


def value_grid(
    name: str, low: float, high: float, count: int, *, kind: str = "app"
) -> Parameter:
    """A continuous knob discretised to ``count`` evenly spaced grid points."""
    if count < 1:
        raise SpaceError(f"grid needs at least one point, got {count}")
    if count == 1:
        points: Sequence[float] = (float(low),)
    else:
        points = tuple(round(float(v), 10) for v in np.linspace(low, high, count))
    return Parameter(name, tuple(points), kind)
