"""Distributed local-tree construction (Section 3.1).

Each virtual processor owns a set of cells (grid clusters for SPSA/SPDA,
canonical Morton-range cover cells for DPDA) and builds one subtree per
non-empty owned cell, rooted exactly at the cell.  Rooting at the cell is
the paper's "tree adjustment": a cell with fewer than ``s`` particles
still gets a tree node at the cell's own level ("we artificially force
the particles down to the level at which the tree node corresponding to
the subtree actually exists"), so every branch node is a well-defined
cell of the global decomposition.

A rank's cells are many and mostly small (the paper's ``r >= p log p``
clusters), so they are not built one by one: the particles are grouped
by owning cell once and the whole forest is one level-synchronous pass
(:func:`build_subtrees` over :func:`repro.bh.tree.build_forest`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.morton import morton_keys
from repro.bh.multipole import TreeMultipoles, m2m_shift
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import Tree, build_forest, build_tree, cell_boxes
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
    tree: Tree                     # rank-local particle arrays
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


def subtree_budgets(depth: np.ndarray, config: SchemeConfig,
                    bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Depth budget of the subtree rooted at a cell of each ``depth``,
    and whether the cell leaves any key budget: a cell at the key depth
    (``depth == bits``) has no key bits left to refine with."""
    depth = np.asarray(depth, dtype=np.int64)
    budget = np.maximum(1, (config.max_depth if config.max_depth is not None
                            else bits) - depth)
    return budget, budget <= bits - depth


def subtree_keys(depth: np.ndarray, budget: np.ndarray, keys: np.ndarray,
                 bits: int, dims: int) -> np.ndarray:
    """Subtree-local Morton keys sliced out of global depth-``bits``
    ``keys``; ``depth`` and ``budget`` (:func:`subtree_budgets`) are
    those of each key's owning cell, and must leave a key budget.

    A cell's particles share the top ``dims * depth`` key bits; the
    remainder is the subtree's own Morton key, truncated to its depth
    budget.  Exact: quantization at b bits right-shifted to g < b bits
    equals quantization at g bits (both floor the same power-of-two
    scaling).
    """
    rem = bits - np.asarray(depth, dtype=np.int64)
    low = dims * rem
    # keys & (2^low - 1) without forming 2^63 (3-D root cell)
    return (keys - ((keys >> low) << low)) >> (dims * (rem - budget))


def group_by_cell(slots: np.ndarray, ncells: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Particle indices grouped by owning cell: the members of cell
    ``i``, ascending, are ``by_cell[bounds[i]:bounds[i + 1]]``."""
    by_cell = np.argsort(slots, kind="stable")
    bounds = np.searchsorted(slots[by_cell], np.arange(ncells + 1))
    return by_cell, bounds


def build_subtrees(particles: ParticleSet, cells: list[Cell],
                   members: list[np.ndarray], keys: np.ndarray, root: Box,
                   config: SchemeConfig, bits: int) -> list[LocalSubtree]:
    """The subtrees of ``cells`` over their ``members`` (per cell, the
    ascending non-empty rank-local particle indices; ``keys`` are the
    rank's depth-``bits`` keys), in one :func:`build_forest` pass.  The
    one body behind full builds and block-timestep rebuilds."""
    dims = root.dims
    depth = np.array([c.depth for c in cells], dtype=np.int64)
    centers, halves = cell_boxes(
        root, depth, np.array([c.path_key for c in cells], dtype=np.int64))
    boxes = [Box(c, float(h)) for c, h in zip(centers, halves)]
    budget, keyed = subtree_budgets(depth, config, bits)

    def record(i: int, sub: ParticleSet, tree: Tree) -> LocalSubtree:
        multipoles = None
        if config.degree > 0:
            multipoles = TreeMultipoles(tree, sub, config.degree)
        return LocalSubtree(cell=cells[i], key=branch_key(cells[i], dims),
                            particles=sub, local_idx=members[i], tree=tree,
                            multipoles=multipoles)

    out: list[LocalSubtree | None] = [None] * len(cells)
    forest = np.flatnonzero(keyed)
    if forest.size:
        sizes = np.array([members[i].size for i in forest], dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        idx = np.concatenate([members[i] for i in forest])
        grouped = particles.subset(idx)
        trees = build_forest(
            grouped, bounds, [boxes[i] for i in forest], budget[forest],
            subtree_keys(np.repeat(depth[forest], sizes),
                         np.repeat(budget[forest], sizes), keys[idx],
                         bits, dims),
            leaf_capacity=config.leaf_capacity,
        )
        for t, i in enumerate(forest):
            sub = grouped.subset(slice(bounds[t], bounds[t + 1]))
            out[i] = record(i, sub, trees[t])
    for i in np.flatnonzero(~keyed):
        # No key bits left to slice: quantize against the cell's own box
        # (with its containment check) instead.
        sub = particles.subset(members[i])
        out[i] = record(i, sub, build_tree(
            sub, box=boxes[i], leaf_capacity=config.leaf_capacity,
            max_depth=int(budget[i])))
    return out


def build_local_trees(particles: ParticleSet, cells: list[Cell],
                      root: Box, config: SchemeConfig, bits: int,
                      keys: np.ndarray | None = None) -> list[LocalSubtree]:
    """Build one subtree per owned cell over the rank's particles.

    Returns a subtree record per *non-empty* cell (empty cells carry no
    mass and are simply absent from the branch exchange, like the empty
    subdomains the paper assigns "to either of the processors").

    Positions are quantized against the *global* root exactly once (or
    not at all when the caller hands in the rank's cached depth-``bits``
    ``keys``); each subtree receives its particles' keys as a bit slice
    of the global keys (:func:`subtree_keys`) instead of re-quantizing
    against the cell's rounded box, so cell ownership and in-cell
    refinement always follow one consistent grid.

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
    by_cell, bounds = group_by_cell(slots, len(cells))
    owned = np.flatnonzero(np.diff(bounds))
    return build_subtrees(
        particles, [cells[i] for i in owned],
        [by_cell[bounds[i]:bounds[i + 1]] for i in owned],
        keys, root, config, bits)


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
        cell_center = st.cell.box(root).center
        coeffs = None
        if st.multipoles is not None:
            shift = st.tree.center[0] - cell_center
            coeffs = m2m_shift(st.multipoles.coeffs[0], shift,
                               st.multipoles.degree)
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
