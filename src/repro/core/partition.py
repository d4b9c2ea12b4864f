"""Static domain partitioning and cell arithmetic.

A *cell* is a cube of the hierarchical decomposition, addressed by
``(depth, path_key)`` exactly as tree nodes are (the path key is the
Morton prefix).  SPSA/SPDA partition the domain into the ``r = 2^(d*L)``
cells of grid level ``L``; DPDA owns arbitrary Morton key ranges, which
:func:`cover_cells` turns into the minimal set of aligned cells — the
scheme's branch nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.morton import morton_keys
from repro.bh.particles import Box
from repro.bh.tree import cell_box


@dataclass(frozen=True, order=True)
class Cell:
    """A cell of the global decomposition."""

    depth: int
    path_key: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"negative cell depth {self.depth}")
        if self.path_key < 0:
            raise ValueError(f"negative path key {self.path_key}")

    def box(self, root: Box) -> Box:
        return cell_box(root, self.depth, self.path_key)

    def key_range(self, bits: int, dims: int) -> tuple[int, int]:
        """Half-open range of depth-``bits`` Morton keys this cell covers."""
        if self.depth > bits:
            raise ValueError(
                f"cell depth {self.depth} exceeds key depth {bits}"
            )
        span = 1 << (dims * (bits - self.depth))
        lo = self.path_key * span
        return lo, lo + span


def cluster_keys(positions: np.ndarray, root: Box,
                 grid_level: int) -> np.ndarray:
    """Cluster (cell) path keys of positions at the static grid level.

    The result is the Morton number of the cluster each particle falls
    in — the quantity the SPDA scheme sorts by (Fig. 6a interleaves the
    bits of the cluster row and column; that *is* the path key).
    """
    pos = np.atleast_2d(positions)
    if grid_level == 0:
        return np.zeros(pos.shape[0], dtype=np.int64)
    return morton_keys(pos, root.lo, root.side, bits=grid_level)


def cluster_coords(keys: np.ndarray, dims: int) -> np.ndarray:
    """Grid coordinates (i, j[, k]) of cluster path keys, shape (n, d)."""
    from repro.bh.morton import morton_decode_2d, morton_decode_3d
    keys = np.asarray(keys, dtype=np.int64)
    if dims == 2:
        x, y = morton_decode_2d(keys)
        return np.column_stack((x, y))
    if dims == 3:
        x, y, z = morton_decode_3d(keys)
        return np.column_stack((x, y, z))
    raise ValueError(f"dims must be 2 or 3, got {dims}")


def cover_cells(key_lo: int, key_hi: int, bits: int,
                dims: int) -> list[Cell]:
    """Minimal set of aligned cells exactly tiling the Morton key range
    ``[key_lo, key_hi)`` at key depth ``bits``.

    This is the canonical interval decomposition: greedily emit the
    largest cell that starts at ``key_lo`` and fits inside the range.
    DPDA uses it to turn a processor's owned key range into branch nodes.
    """
    span_total = 1 << (dims * bits)
    if not 0 <= key_lo <= key_hi <= span_total:
        raise ValueError(
            f"key range [{key_lo}, {key_hi}) out of bounds for "
            f"{bits}-bit {dims}-D keys"
        )
    cells: list[Cell] = []
    pos = key_lo
    step = 1 << dims
    while pos < key_hi:
        # Largest aligned cell starting at pos: limited by alignment of
        # pos and by the remaining range length.
        size = 1
        depth = bits
        while depth > 0:
            bigger = size * step
            if pos % bigger != 0 or pos + bigger > key_hi:
                break
            size = bigger
            depth -= 1
        cells.append(Cell(depth, pos // size))
        pos += size
    return cells
