"""Oracles of the top-tree merge, kept verbatim from
``repro.core.tree_merge``: the quadratic branch-disjointness scan, the
sorted adjacent-pair scan that replaced it, and the ``set[Cell]`` build
the anchored-key arrays replaced; with the cell arithmetic they read
(containment, and the inverse of ``branch_key``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.multipole import m2m_upward, n_terms
from repro.bh.particles import Box
from repro.bh.tree import NO_CHILD, Tree, cell_boxes
from repro.core.branch_nodes import BranchInfo, make_branch_index
from repro.core.partition import Cell


def contains_cell(cell: Cell, other: Cell, dims: int) -> bool:
    """True when ``other`` is ``cell`` or a descendant of it."""
    if other.depth < cell.depth:
        return False
    return (other.path_key >> (dims * (other.depth - cell.depth))) \
        == cell.path_key


def cell_of_branch_key(key: int, dims: int) -> Cell:
    """Inverse of :func:`repro.core.branch_nodes.branch_key`."""
    if key < 1:
        raise ValueError(f"invalid branch key {key}")
    depth, probe = 0, key
    while probe > 1:
        probe >>= dims
        depth += 1
    anchor = 1 << (dims * depth)
    return Cell(depth, key ^ anchor)


def check_disjoint_reference(branches: list[BranchInfo], dims: int) -> None:
    for i, a in enumerate(branches):
        for b in branches[i + 1:]:
            if contains_cell(a.cell, b.cell, dims) or \
                    contains_cell(b.cell, a.cell, dims):
                raise ValueError(
                    f"branch cells overlap: {a.cell} (rank {a.owner}) and "
                    f"{b.cell} (rank {b.owner})"
                )


def check_disjoint_sorted_reference(branches: list[BranchInfo],
                                    dims: int) -> None:
    """Raise ``ValueError`` naming two overlapping branch cells and their
    owners, if any two overlap.

    Cells are dyadic: two overlap exactly when one holds the other, and
    in (first covered key, depth) order a cell that holds any later one
    holds its immediate successor — so one sort and one adjacent-pair
    scan find an overlap iff one exists.  Which pair is named when
    several overlap is unspecified."""
    bits = max(b.cell.depth for b in branches)
    ordered = sorted(branches, key=lambda b: (
        b.cell.key_range(bits, dims)[0], b.cell.depth))
    for a, b in zip(ordered, ordered[1:]):
        if contains_cell(a.cell, b.cell, dims):
            raise ValueError(
                f"branch cells overlap: {a.cell} (rank {a.owner}) and "
                f"{b.cell} (rank {b.owner})"
            )


def _parent(cell: Cell, dims: int) -> Cell:
    return Cell(cell.depth - 1, cell.path_key >> dims)


@dataclass
class TopTreeReference:
    """What ``build_top_tree`` returned before the array build."""

    tree: Tree
    node_of_branch: dict[int, int]
    branch_index: object
    coeffs: np.ndarray | None = None


def build_top_tree_reference(branches: list[BranchInfo], root: Box,
                             degree: int, lookup_kind: str = "hashed",
                             check_disjoint: bool = True
                             ) -> TopTreeReference:
    """Deterministically build the replicated top tree from summaries."""
    if not branches:
        raise ValueError("cannot build a top tree from zero branch nodes")
    dims = root.dims
    if check_disjoint:
        check_disjoint_sorted_reference(branches, dims)
    by_key = {b.key: b for b in branches}
    if len(by_key) != len(branches):
        raise ValueError("duplicate branch keys in merge")

    # Collect all cells: branches plus every ancestor up to the root.
    cells: set[Cell] = set()
    for b in branches:
        cells.add(b.cell)
        c = b.cell
        while c.depth > 0:
            c = _parent(c, dims)
            cells.add(c)
    cells.add(Cell(0, 0))
    ordered = sorted(cells, key=lambda c: (c.depth, c.path_key))
    node_id = {c: i for i, c in enumerate(ordered)}
    n = len(ordered)

    nkids = 1 << dims
    children = np.full((n, nkids), NO_CHILD, dtype=np.int32)
    depth = np.array([c.depth for c in ordered], dtype=np.int32)
    path_key = np.array([c.path_key for c in ordered], dtype=np.int64)
    center, half = cell_boxes(root, depth, path_key)
    counts = np.zeros(n, dtype=np.int64)
    mass = np.zeros(n)
    com = np.zeros((n, dims))
    remote_owner = np.full(n, -1, dtype=np.int32)
    remote_key = np.full(n, -1, dtype=np.int64)

    for c, i in node_id.items():
        if c.depth > 0:
            parent = node_id[_parent(c, dims)]
            children[parent][c.path_key & (nkids - 1)] = i

    branch_node_ids: dict[int, int] = {}
    for b in branches:
        i = node_id[b.cell]
        remote_owner[i] = b.owner
        remote_key[i] = b.key
        counts[i] = b.count
        mass[i] = b.mass
        com[i] = b.com
        branch_node_ids[b.key] = i

    # Bottom-up monopole merge (children always have larger ids than
    # parents because ordering is by depth).
    for i in range(n - 1, -1, -1):
        if remote_owner[i] >= 0:
            continue
        kids = children[i][children[i] != NO_CHILD]
        if kids.size == 0:
            continue
        counts[i] = counts[kids].sum()
        m = mass[kids].sum()
        mass[i] = m
        if m > 0:
            com[i] = (mass[kids, None] * com[kids]).sum(axis=0) / m
        else:
            com[i] = center[i]

    tree = Tree(
        root_box=root, dims=dims, leaf_capacity=1,
        max_depth=max(int(depth.max()), 1),
        children=children, depth=depth, path_key=path_key,
        center=center, half=half,
        start=np.zeros(n, dtype=np.int64), end=counts.astype(np.int64),
        order=np.zeros(0, dtype=np.int64),
        mass=mass, com=com,
        remote_owner=remote_owner, remote_key=remote_key,
    )

    coeffs = None
    if degree > 0:
        coeffs = np.zeros((n, n_terms(degree)), dtype=np.complex128)
        for b in branches:
            if b.coeffs is None:
                raise ValueError(
                    f"branch {b.key} lacks multipole coefficients in a "
                    f"degree-{degree} run"
                )
            coeffs[branch_node_ids[b.key]] = b.coeffs
        m2m_upward(tree, coeffs, degree)

    return TopTreeReference(
        tree=tree, node_of_branch=branch_node_ids,
        branch_index=make_branch_index(branches, lookup_kind),
        coeffs=coeffs,
    )
