"""Interconnect topologies and processor-numbering utilities.

The paper's SPSA scheme maps subdomain ``(i, j)`` to processor
``(gray(i, d/2), gray(j, d/2))`` of a ``d``-dimensional hypercube so that
spatially adjacent subdomains land on hypercube neighbours.  The topology
classes below provide the hop-count metric the cost model charges for each
point-to-point message, plus neighbour enumeration used by the hypercube
collective algorithms.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod


def gray_code(i: int) -> int:
    """Return the ``i``-th binary-reflected Gray code."""
    if i < 0:
        raise ValueError(f"gray_code requires i >= 0, got {i}")
    return i ^ (i >> 1)


def is_power_of_two(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def log2_exact(n: int) -> int:
    """Return ``log2(n)`` for a power of two ``n``; raise otherwise."""
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a positive power of two")
    return n.bit_length() - 1


class Topology(ABC):
    """Abstract interconnect: a set of ``size`` nodes and a hop metric."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"topology size must be positive, got {size}")
        self.size = size

    @abstractmethod
    def hops(self, src: int, dst: int) -> int:
        """Number of network hops between two processors."""

    @abstractmethod
    def neighbors(self, rank: int) -> list[int]:
        """Directly connected processors of ``rank``."""

    def check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")

    @property
    def diameter(self) -> int:
        """Maximum hop distance between any pair of processors."""
        return max(
            self.hops(0, dst) for dst in range(self.size)
        ) if self.size > 1 else 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(size={self.size})"


class HypercubeTopology(Topology):
    """A ``d``-dimensional binary hypercube (the nCUBE2 interconnect).

    Processor labels are ``d``-bit integers; two processors are adjacent
    iff their labels differ in exactly one bit, and the hop distance is the
    Hamming distance.
    """

    def __init__(self, size: int):
        super().__init__(size)
        self.dim = log2_exact(size)

    def hops(self, src: int, dst: int) -> int:
        self.check_rank(src)
        self.check_rank(dst)
        return (src ^ dst).bit_count()

    def neighbors(self, rank: int) -> list[int]:
        self.check_rank(rank)
        return [rank ^ (1 << d) for d in range(self.dim)]

    @property
    def diameter(self) -> int:
        return self.dim


class MeshTopology(Topology):
    """A 2-D ``rows x cols`` mesh (no wraparound links)."""

    def __init__(self, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise ValueError("mesh dimensions must be positive")
        super().__init__(rows * cols)
        self.rows = rows
        self.cols = cols

    def coords(self, rank: int) -> tuple[int, int]:
        self.check_rank(rank)
        return divmod(rank, self.cols)

    def rank_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"coords ({row}, {col}) out of range")
        return row * self.cols + col

    def hops(self, src: int, dst: int) -> int:
        r0, c0 = self.coords(src)
        r1, c1 = self.coords(dst)
        return abs(r0 - r1) + abs(c0 - c1)

    def neighbors(self, rank: int) -> list[int]:
        r, c = self.coords(rank)
        out = []
        if r > 0:
            out.append(self.rank_of(r - 1, c))
        if r + 1 < self.rows:
            out.append(self.rank_of(r + 1, c))
        if c > 0:
            out.append(self.rank_of(r, c - 1))
        if c + 1 < self.cols:
            out.append(self.rank_of(r, c + 1))
        return out


class FatTreeTopology(Topology):
    """A ``k``-ary fat tree (the CM5 data network is a 4-ary fat tree).

    Processors are leaves; the hop count between two leaves is twice the
    depth of their lowest common ancestor measured from the leaves (up to
    the LCA and back down).
    """

    def __init__(self, size: int, arity: int = 4):
        if arity < 2:
            raise ValueError(f"fat-tree arity must be >= 2, got {arity}")
        super().__init__(size)
        self.arity = arity
        self.depth = max(1, math.ceil(math.log(size, arity))) if size > 1 else 1

    def hops(self, src: int, dst: int) -> int:
        self.check_rank(src)
        self.check_rank(dst)
        if src == dst:
            return 0
        # Climb until both leaves fall in the same arity^level block.
        level = 0
        a, b = src, dst
        while a != b:
            a //= self.arity
            b //= self.arity
            level += 1
        return 2 * level

    def neighbors(self, rank: int) -> list[int]:
        """Leaves sharing the lowest-level switch with ``rank``."""
        self.check_rank(rank)
        block = (rank // self.arity) * self.arity
        return [
            r for r in range(block, min(block + self.arity, self.size))
            if r != rank
        ]


class CompleteTopology(Topology):
    """Fully connected graph: every pair one hop apart.

    Not a real machine; used by the zero-cost test profile so generic
    engine tests can run on any processor count.
    """

    def hops(self, src: int, dst: int) -> int:
        self.check_rank(src)
        self.check_rank(dst)
        return 0 if src == dst else 1

    def neighbors(self, rank: int) -> list[int]:
        self.check_rank(rank)
        return [r for r in range(self.size) if r != rank]


def make_topology(kind: str, size: int, **kwargs) -> Topology:
    """Factory used by machine profiles.

    ``kind`` is one of ``"hypercube"``, ``"mesh"``, ``"fattree"``.  For a
    mesh, the node count is factored into the most-square ``rows x cols``
    grid unless ``rows``/``cols`` are given.
    """
    kind = kind.lower()
    if kind == "complete":
        return CompleteTopology(size)
    if kind == "hypercube":
        return HypercubeTopology(size)
    if kind == "fattree":
        return FatTreeTopology(size, arity=kwargs.get("arity", 4))
    if kind == "mesh":
        rows = kwargs.get("rows")
        cols = kwargs.get("cols")
        if rows is None or cols is None:
            rows = int(math.sqrt(size))
            while rows > 1 and size % rows:
                rows -= 1
            cols = size // rows
        return MeshTopology(rows, cols)
    raise ValueError(f"unknown topology kind {kind!r}")
