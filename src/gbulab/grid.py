"""Uniform node-centered grids on intervals and rectangles.

Grids are immutable after construction and safe to share across workers.
Boundary nodes are exactly the nodes on the extent faces; the
distance-to-boundary field is exact for these geometries.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Discrete geometry of an interval or axis-aligned rectangle.

    extents: ((a, b),) in 1D or ((a1, b1), (a2, b2)) in 2D, finite with a < b.
    points_per_axis: number of nodes per axis, >= 3 (so interior nodes exist).
    """

    extents: tuple[tuple[float, float], ...]
    points_per_axis: tuple[int, ...]
    spacing: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if len(self.extents) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if len(self.points_per_axis) != len(self.extents):
            raise ValueError("points_per_axis must match extents dimension")
        for (a, b), n in zip(self.extents, self.points_per_axis):
            if n < 3:
                raise ValueError(f"need at least 3 nodes per axis, got {n}")
            if not -np.inf < a < b < np.inf:
                raise ValueError(f"requires a finite extent [a, b] with a < b, got [{a}, {b}]")
        object.__setattr__(
            self,
            "spacing",
            tuple((b - a) / (n - 1) for (a, b), n in zip(self.extents, self.points_per_axis)),
        )

    @property
    def dimension(self) -> int:
        return len(self.extents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points_per_axis

    @property
    def h_min(self) -> float:
        return min(self.spacing)

    def axis_coords(self, axis: int) -> np.ndarray:
        a, b = self.extents[axis]
        n = self.points_per_axis[axis]
        # a + i*h keeps coinciding nodes bit-identical across refinements
        # (b is not exactly hit when (b-a)/(n-1) is inexact; force the endpoint).
        x = a + np.arange(n) * self.spacing[axis]
        x[-1] = b
        return x

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays, broadcast to the grid shape."""
        axes = [self.axis_coords(k) for k in range(self.dimension)]
        if self.dimension == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(self.dimension):
            idx_lo = [slice(None)] * self.dimension
            idx_hi = [slice(None)] * self.dimension
            idx_lo[axis] = 0
            idx_hi[axis] = -1
            mask[tuple(idx_lo)] = True
            mask[tuple(idx_hi)] = True
        return mask

    def interior_slice(self) -> tuple[slice, ...]:
        return tuple(slice(1, -1) for _ in range(self.dimension))

    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    def compatible_field(self, u: np.ndarray) -> bool:
        return u.shape == self.shape


def build_grid(extents, points_per_axis) -> Grid:
    """Build a uniform grid.

    1D: build_grid((0.0, 1.0), 3) or build_grid([(0.0, 1.0)], [3]).
    2D: build_grid([(0, 1), (0, 1)], (5, 5)).
    """
    ext = _normalize_extents(extents)
    if isinstance(points_per_axis, (int, np.integer)):
        pts = (int(points_per_axis),) * len(ext)
    else:
        pts = tuple(int(n) for n in points_per_axis)
    return Grid(extents=ext, points_per_axis=pts)


def _normalize_extents(extents) -> tuple[tuple[float, float], ...]:
    ext = list(extents)
    if len(ext) == 2 and np.isscalar(ext[0]):
        ext = [tuple(ext)]
    return tuple((float(a), float(b)) for a, b in ext)


@functools.lru_cache(maxsize=8)
def boundary_distance(grid: Grid) -> np.ndarray:
    """Exact Euclidean distance from each node to the extent boundary.

    For intervals/rectangles this is the min over the face distances; it is
    0 exactly on boundary nodes and 1-Lipschitz on the grid. Computed once
    per grid and shared by every caller, so the array is read-only.
    """
    coords = grid.coords()
    dist = np.full(grid.shape, np.inf)
    for axis, (a, b) in enumerate(grid.extents):
        x = coords[axis]
        dist = np.minimum(dist, np.minimum(x - a, b - x))
    dist = np.maximum(dist, 0.0)
    dist.flags.writeable = False
    return dist
