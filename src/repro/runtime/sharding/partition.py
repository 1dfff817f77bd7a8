"""Axis-aligned tile grids over the working area.

:class:`TilePartition` splits the problem region into an ``nx x ny``
grid of rectangular tiles and assigns nodes to tiles by position — the
spatial-decomposition side of the sharding refactor. Assignment is
stateless and recomputed from positions every round, which is what makes
node migration between tiles trivial: a node that crosses a tile edge is
simply owned by the other tile next round, no handoff protocol needed.

Tiles are half-open intervals ``[lo, hi)`` on each axis with the last
tile closed, so every in-region position has exactly one owner and the
region's far edges are not orphaned. Positions are clamped into the
region first — constrained movement and LCM already keep nodes inside
it, so the clamp is a guard, not a semantic.

The ghost halo
--------------
Every per-node interaction in the CMA loop is local: beacons travel at
most ``Rc``, sensing reads at most ``Rs`` from the node, and repulsion
acts only between beacon neighbours (so its reach is bounded by ``Rc``).
:func:`halo_width` therefore returns ``max(Rc, Rs)`` — a tile that
additionally sees every alive node within that distance of its rectangle
(its *ghosts*) has everything the tile-safe phases need to reproduce the
fleet-wide computation bitwise for its owned nodes. Ghost membership
uses closed comparisons: a neighbour at distance exactly ``Rc`` has
coordinate offsets of at most ``Rc``, so it always lands inside the
closed expanded rectangle.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.geometry.primitives import BoundingBox

__all__ = ["TilePartition", "halo_width"]


def halo_width(params) -> float:
    """Ghost-halo width for CMA parameters: ``max(Rc, Rs)``.

    Repulsion needs no separate term — it acts only between nodes that
    hear each other's beacons, so its radius is bounded by ``Rc``.
    """
    return max(float(params.rc), float(params.rs))


def _grid_shape(tiles: int, width: float, height: float) -> Tuple[int, int]:
    """Pick ``(nx, ny)`` with ``nx * ny == tiles`` and squarest cells.

    Among the divisor pairs of ``tiles``, minimise the worse of the two
    cell aspect ratios; ties break toward more columns than rows (wide
    regions are the common case). Deterministic for a given input.
    """
    best: Optional[Tuple[float, int, int]] = None
    for nx in range(1, tiles + 1):
        if tiles % nx:
            continue
        ny = tiles // nx
        cw = width / nx if width > 0 else 1.0
        ch = height / ny if height > 0 else 1.0
        aspect = max(cw / ch, ch / cw)
        key = (aspect, -nx, ny)
        if best is None or key < best:
            best = key
    assert best is not None
    return -best[1], best[2]


class TilePartition:
    """An ``nx x ny`` axis-aligned tile grid over a bounding box.

    Parameters
    ----------
    region:
        The working area (a :class:`~repro.geometry.primitives.BoundingBox`).
    tiles:
        Total tile count. Either an ``int`` (the grid shape is chosen by
        :func:`_grid_shape`) or an explicit ``(nx, ny)`` pair.
    """

    def __init__(self, region: BoundingBox, tiles) -> None:
        self.region = region
        if isinstance(tiles, tuple):
            nx, ny = int(tiles[0]), int(tiles[1])
        else:
            t = int(tiles)
            if t < 1:
                raise ValueError(f"tiles must be >= 1, got {tiles}")
            nx, ny = _grid_shape(t, region.width, region.height)
        if nx < 1 or ny < 1:
            raise ValueError(f"grid shape must be positive, got ({nx}, {ny})")
        self.nx = nx
        self.ny = ny

    @property
    def n_tiles(self) -> int:
        return self.nx * self.ny

    def __repr__(self) -> str:
        return (
            f"TilePartition({self.nx}x{self.ny} over "
            f"[{self.region.xmin},{self.region.xmax}]x"
            f"[{self.region.ymin},{self.region.ymax}])"
        )

    # ------------------------------------------------------------------
    def tile_bounds(self, tile: int) -> BoundingBox:
        """The rectangle of tile ``tile`` (row-major: ``iy * nx + ix``)."""
        if not 0 <= tile < self.n_tiles:
            raise ValueError(f"tile {tile} out of range [0, {self.n_tiles})")
        iy, ix = divmod(tile, self.nx)
        r = self.region
        w = r.width / self.nx
        h = r.height / self.ny
        return BoundingBox(
            xmin=r.xmin + ix * w,
            ymin=r.ymin + iy * h,
            xmax=r.xmin + (ix + 1) * w if ix < self.nx - 1 else r.xmax,
            ymax=r.ymin + (iy + 1) * h if iy < self.ny - 1 else r.ymax,
        )

    def assign(self, positions: np.ndarray) -> np.ndarray:
        """Owner tile of every position: ``(k,)`` ints in ``[0, n_tiles)``.

        Half-open cells with the last row/column closed; out-of-region
        positions are clamped onto the region edge first.
        """
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        r = self.region
        x = np.clip(pts[:, 0], r.xmin, r.xmax)
        y = np.clip(pts[:, 1], r.ymin, r.ymax)
        w = r.width / self.nx
        h = r.height / self.ny
        ix = (
            np.zeros(len(pts), dtype=int)
            if w <= 0 or not math.isfinite(w)
            else np.clip(
                np.floor((x - r.xmin) / w).astype(int), 0, self.nx - 1
            )
        )
        iy = (
            np.zeros(len(pts), dtype=int)
            if h <= 0 or not math.isfinite(h)
            else np.clip(
                np.floor((y - r.ymin) / h).astype(int), 0, self.ny - 1
            )
        )
        return iy * self.nx + ix

    def ghost_mask(
        self,
        positions: np.ndarray,
        tile: int,
        halo: float,
        assignment: Optional[np.ndarray] = None,
        alive: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Boolean mask of the tile's ghosts among ``positions``.

        A ghost is an *alive* node owned by another tile whose position
        lies inside the tile rectangle expanded by ``halo`` on every
        side (closed comparisons — see module docstring).
        """
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        if assignment is None:
            assignment = self.assign(pts)
        b = self.tile_bounds(tile)
        mask = (
            (pts[:, 0] >= b.xmin - halo)
            & (pts[:, 0] <= b.xmax + halo)
            & (pts[:, 1] >= b.ymin - halo)
            & (pts[:, 1] <= b.ymax + halo)
            & (assignment != tile)
        )
        if alive is not None:
            mask &= np.asarray(alive, dtype=bool).reshape(len(pts))
        return mask

