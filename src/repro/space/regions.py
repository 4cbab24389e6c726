"""Region partitioning for the regional phase (Sec. 3.3).

The paper maps all points of the n-dimensional space to a one-dimensional
index and splits that index range into ``n_r`` regions of (near-)equal size.
A :class:`Region` is an arithmetic progression of indices — ``start``,
``start + stride``, ... below ``stop`` — which covers both partitioning
styles without ever materialising members:

* **interleaved** (default): region ``r`` of ``n`` holds every ``n``-th
  index starting at ``r``.  Because the index codec makes the *last*
  parameter the fastest-varying digit, an interleaved region spans the whole
  lattice and its members are diverse — games inside a region then compare
  genuinely different configurations, which is what lets early termination
  fire and strong champions emerge.
* **contiguous**: region ``r`` is a consecutive index block.  Contiguous
  blocks fix the leading (major) parameter digits, so a region's members are
  near-clones of each other; kept as an ablation
  (``DarwinGameConfig(interleaved_regions=False)``) and for the Sec. 3.6
  subspace integration, whose subspaces must be contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import SpaceError
from repro.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class Region:
    """Indices ``start, start + stride, ...`` strictly below ``stop``."""

    region_id: int
    start: int
    stop: int
    stride: int = 1

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise SpaceError(
                f"region {self.region_id} stride must be >= 1, got {self.stride}"
            )
        if self.stop <= self.start:
            raise SpaceError(
                f"region {self.region_id} is empty: [{self.start}, {self.stop})"
            )

    @property
    def size(self) -> int:
        return (self.stop - self.start + self.stride - 1) // self.stride

    def __contains__(self, index: int) -> bool:
        return (
            self.start <= index < self.stop
            and (index - self.start) % self.stride == 0
        )

    def indices(self) -> np.ndarray:
        """All member indices — only safe for small regions."""
        return np.arange(self.start, self.stop, self.stride, dtype=np.int64)

    def sample(self, n: int, seed: SeedLike = None, *, replace: bool = True) -> np.ndarray:
        """Draw ``n`` member indices uniformly at random."""
        rng = ensure_rng(seed)
        if replace:
            offsets = rng.integers(0, self.size, size=n, dtype=np.int64)
        else:
            if n > self.size:
                raise SpaceError(
                    f"cannot draw {n} distinct indices from region of size {self.size}"
                )
            offsets = rng.choice(self.size, size=n, replace=False).astype(np.int64)
        return self.start + offsets * self.stride


def partition_range(
    start: int, stop: int, n_regions: int, *, interleaved: bool = True
) -> List[Region]:
    """Split the index range ``[start, stop)`` into near-equal regions."""
    if n_regions <= 0:
        raise SpaceError(f"n_regions must be positive, got {n_regions}")
    if stop <= start:
        raise SpaceError(f"cannot partition empty range [{start}, {stop})")
    span = stop - start
    n_regions = min(n_regions, span)
    if interleaved:
        return [
            Region(rid, start + rid, stop, stride=n_regions)
            for rid in range(n_regions)
        ]
    base, extra = divmod(span, n_regions)
    regions: List[Region] = []
    cursor = start
    for rid in range(n_regions):
        size = base + (1 if rid < extra else 0)
        regions.append(Region(rid, cursor, cursor + size))
        cursor += size
    return regions
