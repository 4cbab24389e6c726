"""Search-space substrate: parameters, index codec, regions, subspaces."""

from repro.space.parameters import (
    Parameter,
    boolean,
    categorical,
    integer_range,
    value_grid,
)
from repro.space.regions import Region
from repro.space.space import SearchSpace
from repro.space.subspaces import Subspace, split_subspaces, subspace_of

__all__ = [
    "Parameter",
    "Region",
    "SearchSpace",
    "Subspace",
    "boolean",
    "categorical",
    "integer_range",
    "split_subspaces",
    "subspace_of",
    "value_grid",
]
