"""Distributed local-tree construction (Section 3.1).

Each virtual processor owns a set of cells (grid clusters for SPSA/SPDA,
canonical Morton-range cover cells for DPDA) and builds one subtree per
non-empty owned cell, rooted exactly at the cell.  Rooting at the cell is
the paper's "tree adjustment": a cell with fewer than ``s`` particles
still gets a tree node at the cell's own level ("we artificially force
the particles down to the level at which the tree node corresponding to
the subtree actually exists"), so every branch node is a well-defined
cell of the global decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.morton import morton_keys
from repro.bh.multipole import TreeMultipoles
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import Tree, build_tree
from repro.core.branch_nodes import BranchInfo, branch_key
from repro.core.config import SchemeConfig
from repro.core.partition import Cell


@dataclass
class LocalSubtree:
    """One owned cell with its tree and the local particles inside it."""

    cell: Cell
    key: int
    particles: ParticleSet
    local_idx: np.ndarray          # positions of these particles in the
    tree: Tree | None = None       # rank-local particle arrays
    multipoles: TreeMultipoles | None = None

    @property
    def count(self) -> int:
        return self.particles.n


def assign_to_cells(positions: np.ndarray, cells: list[Cell],
                    root: Box, bits: int,
                    keys: np.ndarray | None = None) -> np.ndarray:
    """Index (into ``cells``) of the owning cell of every position.

    Cells must be disjoint; a position in none of them gets -1.
    ``keys`` short-circuits quantization with precomputed depth-``bits``
    Morton keys of the positions (one per row, relative to ``root``).
    """
    if not cells:
        return np.full(np.atleast_2d(positions).shape[0], -1, dtype=np.int64)
    dims = root.dims
    if keys is None:
        keys = morton_keys(positions, root.lo, root.side, bits)
    ranges = np.array([c.key_range(bits, dims) for c in cells],
                      dtype=np.int64)
    order = np.argsort(ranges[:, 0])
    los = ranges[order, 0]
    his = ranges[order, 1]
    if np.any(los[1:] < his[:-1]):
        raise ValueError("owned cells overlap")
    slot = np.searchsorted(los, keys, side="right") - 1
    ok = (slot >= 0) & (keys < his[np.clip(slot, 0, None)])
    out = np.where(ok, order[np.clip(slot, 0, None)], -1)
    return out.astype(np.int64)


def subtree_keys(cell: Cell, keys: np.ndarray, config: SchemeConfig,
                 bits: int, dims: int) -> tuple[int, np.ndarray | None]:
    """Depth budget of the subtree rooted at ``cell`` and its members'
    subtree-local Morton keys, sliced out of their global depth-``bits``
    ``keys`` (``None`` when the cell leaves no key budget).

    The cell's particles share the top ``dims * cell.depth`` key bits;
    the remainder is the subtree's own Morton key, truncated to its
    depth budget.  Exact: quantization at b bits right-shifted to g < b
    bits equals quantization at g bits (both floor the same
    power-of-two scaling).
    """
    budget = max(1, (config.max_depth if config.max_depth is not None
                     else bits) - cell.depth)
    rem = bits - cell.depth
    if not 0 < budget <= rem:
        return budget, None
    mask = np.int64((1 << (dims * rem)) - 1)
    return budget, (keys & mask) >> (dims * (rem - budget))


def build_cell_subtree(particles: ParticleSet, cell: Cell, idx: np.ndarray,
                       keys: np.ndarray, root: Box, config: SchemeConfig,
                       bits: int) -> LocalSubtree:
    """The subtree of one owned cell over its members ``idx`` (rank-local
    particle indices; ``keys`` are the rank's depth-``bits`` keys).  The
    one per-cell body behind full builds and block-timestep rebuilds."""
    dims = root.dims
    sub = particles.subset(idx)
    budget, sub_keys = subtree_keys(cell, keys[idx], config, bits, dims)
    tree = build_tree(
        sub, box=cell.box(root),
        leaf_capacity=config.leaf_capacity,
        max_depth=budget,
        keys=sub_keys,
    )
    multipoles = None
    if config.degree > 0:
        multipoles = TreeMultipoles(tree, sub, config.degree)
    return LocalSubtree(cell=cell, key=branch_key(cell, dims),
                        particles=sub, local_idx=idx, tree=tree,
                        multipoles=multipoles)


def build_local_trees(particles: ParticleSet, cells: list[Cell],
                      root: Box, config: SchemeConfig, bits: int,
                      keys: np.ndarray | None = None) -> list[LocalSubtree]:
    """Build one subtree per owned cell over the rank's particles.

    Returns a subtree record per *non-empty* cell (empty cells carry no
    mass and are simply absent from the branch exchange, like the empty
    subdomains the paper assigns "to either of the processors").

    Positions are quantized against the *global* root exactly once (or
    not at all when the caller hands in the rank's cached depth-``bits``
    ``keys``); each subtree build receives its particles' keys as a bit
    slice of the global keys (:func:`subtree_keys`) instead of
    re-quantizing against the cell's rounded box, so cell ownership and
    in-cell refinement always follow one consistent grid.

    Raises if any particle falls outside every owned cell — that means
    the particle exchange that should precede construction was wrong.
    """
    if keys is None:
        keys = morton_keys(particles.positions, root.lo, root.side, bits)
    slots = assign_to_cells(particles.positions, cells, root, bits,
                            keys=keys)
    if particles.n and np.any(slots < 0):
        raise ValueError(
            f"{int((slots < 0).sum())} particles are outside all owned "
            f"cells — redistribute before building trees"
        )
    out: list[LocalSubtree] = []
    for i, cell in enumerate(cells):
        idx = np.flatnonzero(slots == i)
        if idx.size:
            out.append(build_cell_subtree(particles, cell, idx, keys, root,
                                          config, bits))
    return out


def local_branch_infos(subtrees: list[LocalSubtree], rank: int,
                       root: Box, degree: int) -> list[BranchInfo]:
    """Branch summaries this rank publishes in the branch exchange.

    Multipole coefficients are shifted (M2M) from the subtree root's
    actual cell to the *owned cell's* center, so that receivers can merge
    them without knowing how deep chain collapsing pushed the root.
    """
    dims = root.dims
    out = []
    for st in subtrees:
        assert st.tree is not None
        cell_center = st.cell.box(root).center
        coeffs = None
        if st.multipoles is not None:
            shift = st.tree.center[0] - cell_center
            coeffs = st.multipoles.expansion.m2m(st.multipoles.coeffs[0],
                                                 shift)
        out.append(BranchInfo(
            key=st.key, owner=rank, cell=st.cell, count=st.count,
            mass=float(st.tree.mass[0]), com=st.tree.com[0].copy(),
            coeffs=coeffs,
            load=float(st.tree.interactions.sum()),
        ))
    return out


def tree_build_flops(n_local: int, depth: int) -> float:
    """Virtual cost of inserting n particles into a local tree: a few
    flops per particle per level (coordinate compares + key update)."""
    return 10.0 * n_local * max(depth, 1)
