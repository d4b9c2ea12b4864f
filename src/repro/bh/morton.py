"""Morton (Z-order) keys.

Morton keys drive two things in the paper: the SPDA scheme orders its
static clusters "by interleaving the bits of the row and column" (Fig. 6a),
and the distributed tree uses keys to label branch nodes.

All key functions are vectorized over numpy integer arrays and support up
to 21 bits per coordinate in 3-D / 31 bits in 2-D (keys fit in int64).
"""

from __future__ import annotations

import numpy as np

MAX_BITS_2D = 31
MAX_BITS_3D = 21


def _as_int_array(a) -> np.ndarray:
    arr = np.asarray(a)
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"expected integer coordinates, got dtype {arr.dtype}")
    return arr.astype(np.uint64)


def _part1by1(x: np.ndarray) -> np.ndarray:
    """Insert one zero bit between each bit of x (for 2-D interleave)."""
    x = x & np.uint64(0x00000000FFFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def _part1by2(x: np.ndarray) -> np.ndarray:
    """Insert two zero bits between each bit of x (for 3-D interleave)."""
    x = x & np.uint64(0x00000000001FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x001F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x001F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def _compact1by1(x: np.ndarray) -> np.ndarray:
    x = x & np.uint64(0x5555555555555555)
    x = (x | (x >> np.uint64(1))) & np.uint64(0x3333333333333333)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return x


def _compact1by2(x: np.ndarray) -> np.ndarray:
    x = x & np.uint64(0x1249249249249249)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x001F0000FF0000FF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x001F00000000FFFF)
    x = (x | (x >> np.uint64(32))) & np.uint64(0x00000000001FFFFF)
    return x


def morton_key_2d(ix, iy) -> np.ndarray:
    """Interleave bits of integer grid coordinates: key = ...y1x1y0x0."""
    ix, iy = _as_int_array(ix), _as_int_array(iy)
    return (_part1by1(ix) | (_part1by1(iy) << np.uint64(1))).astype(np.int64)


def morton_key_3d(ix, iy, iz) -> np.ndarray:
    """Interleave bits of integer grid coordinates (x lowest)."""
    ix, iy, iz = _as_int_array(ix), _as_int_array(iy), _as_int_array(iz)
    key = (_part1by2(ix)
           | (_part1by2(iy) << np.uint64(1))
           | (_part1by2(iz) << np.uint64(2)))
    return key.astype(np.int64)


def morton_decode_2d(key) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`morton_key_2d`."""
    k = _as_int_array(key)
    return (_compact1by1(k).astype(np.int64),
            _compact1by1(k >> np.uint64(1)).astype(np.int64))


def morton_decode_3d(key) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`morton_key_3d`."""
    k = _as_int_array(key)
    return (_compact1by2(k).astype(np.int64),
            _compact1by2(k >> np.uint64(1)).astype(np.int64),
            _compact1by2(k >> np.uint64(2)).astype(np.int64))


def quantize(positions: np.ndarray, lo: np.ndarray, side: float,
             bits: int) -> np.ndarray:
    """Map positions in the cube [lo, lo+side) to a 2^bits integer grid."""
    if side <= 0:
        raise ValueError(f"box side must be positive, got {side}")
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    cells = np.int64(1) << bits
    scaled = (pos - lo) / side * cells
    grid = np.floor(scaled).astype(np.int64)
    return np.clip(grid, 0, cells - 1)


def morton_keys(positions: np.ndarray, lo: np.ndarray, side: float,
                bits: int | None = None) -> np.ndarray:
    """Morton keys of positions in the cube [lo, lo+side), vectorized.

    ``bits`` is the tree depth (levels of refinement); defaults to the
    maximum that fits in 64-bit keys for the dimensionality.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    d = pos.shape[1]
    if d == 2:
        bits = MAX_BITS_2D if bits is None else bits
        if not 0 < bits <= MAX_BITS_2D:
            raise ValueError(f"2-D morton bits must be in (0, {MAX_BITS_2D}]")
        g = quantize(pos, np.asarray(lo), side, bits)
        return morton_key_2d(g[:, 0], g[:, 1])
    if d == 3:
        bits = MAX_BITS_3D if bits is None else bits
        if not 0 < bits <= MAX_BITS_3D:
            raise ValueError(f"3-D morton bits must be in (0, {MAX_BITS_3D}]")
        g = quantize(pos, np.asarray(lo), side, bits)
        return morton_key_3d(g[:, 0], g[:, 1], g[:, 2])
    raise ValueError(f"positions must be 2-D or 3-D, got {d} columns")
