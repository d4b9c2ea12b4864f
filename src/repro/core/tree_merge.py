"""Top-tree construction from branch nodes (Sections 3.1.1 / 3.1.2).

After local construction every rank publishes its branch summaries; the
top part of the tree (everything above the branch nodes) is then built in
one of two ways:

* **broadcast** — one all-to-all broadcast of branch summaries, after
  which "each processor reconstructs the top parts of the tree
  independently.  This results in some redundant computation but causes
  relatively small overhead."
* **nonreplicated** — branch summaries travel point-to-point to a
  designated owner per internal cell, which computes that node and
  forwards upward; a final all-to-all broadcast distributes the finished
  top levels ("the top levels of the tree are repeatedly accessed...
  this tree construction technique must be augmented with an all-to-all
  broadcast").

Both produce the same :class:`TopTree`; they differ in where the merge
*work* is charged and what travels on the wire, which is exactly the
trade-off the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.multipole import MultipoleExpansion3D, m2m_upward
from repro.bh.particles import Box
from repro.bh.tree import NO_CHILD, Tree, cell_boxes
from repro.core.branch_nodes import BranchInfo, make_branch_index
from repro.core.partition import Cell
from repro.machine.comm import Comm

#: flops charged per node merge per multipole term (M2M arithmetic).
MERGE_FLOPS_PER_TERM = 8.0


@dataclass
class TopTree:
    """The replicated top of the global tree.

    ``tree`` is a :class:`~repro.bh.tree.Tree` whose leaves are all
    branch cells flagged with their owner; ``node_of_branch`` maps branch
    keys to top-tree leaf ids; ``coeffs`` holds per-node multipole
    expansions about cell centers when the run uses multipoles.  Data
    only: as the top of the one global tree, its far field goes through
    the evaluators a local subtree's does.
    """

    tree: Tree
    node_of_branch: dict[int, int]
    branch_index: object  # HashedBranchIndex | SortedBranchIndex
    coeffs: np.ndarray | None = None
    expansion: MultipoleExpansion3D | None = None


def _check_disjoint(branches: list[BranchInfo], dims: int) -> None:
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
        if a.cell.contains_cell(b.cell, dims):
            raise ValueError(
                f"branch cells overlap: {a.cell} (rank {a.owner}) and "
                f"{b.cell} (rank {b.owner})"
            )


def build_top_tree(branches: list[BranchInfo], root: Box, degree: int,
                   lookup_kind: str = "hashed",
                   check_disjoint: bool = True) -> TopTree:
    """Deterministically build the replicated top tree from summaries."""
    if not branches:
        raise ValueError("cannot build a top tree from zero branch nodes")
    dims = root.dims
    if check_disjoint:
        _check_disjoint(branches, dims)
    by_key = {b.key: b for b in branches}
    if len(by_key) != len(branches):
        raise ValueError("duplicate branch keys in merge")

    # Collect all cells: branches plus every ancestor up to the root.
    cells: set[Cell] = set()
    for b in branches:
        cells.add(b.cell)
        c = b.cell
        while c.depth > 0:
            c = c.parent(dims)
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
            parent = node_id[c.parent(dims)]
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
    expansion = None
    if degree > 0:
        expansion = MultipoleExpansion3D(degree)
        coeffs = np.zeros((n, expansion.nterms), dtype=np.complex128)
        for b in branches:
            if b.coeffs is None:
                raise ValueError(
                    f"branch {b.key} lacks multipole coefficients in a "
                    f"degree-{degree} run"
                )
            coeffs[branch_node_ids[b.key]] = b.coeffs
        m2m_upward(tree, coeffs, degree)

    return TopTree(
        tree=tree, node_of_branch=branch_node_ids,
        branch_index=make_branch_index(branches, lookup_kind),
        coeffs=coeffs, expansion=expansion,
    )


def _merge_flops(n_internal: int, dims: int, degree: int) -> float:
    terms = max(degree, 1) ** 2
    return n_internal * (1 << dims) * MERGE_FLOPS_PER_TERM * terms


def _internal_count(branches: list[BranchInfo], dims: int) -> int:
    cells = set()
    for b in branches:
        c = b.cell
        while c.depth > 0:
            c = c.parent(dims)
            cells.add(c)
    cells.add(Cell(0, 0))
    return len(cells)


def merge_broadcast(comm: Comm, my_branches: list[BranchInfo], root: Box,
                    degree: int, lookup_kind: str = "hashed") -> TopTree:
    """Section 3.1.1: all-to-all broadcast of branches, replicated merge.

    Phases charged: "tree merging" for the redundant local merge work,
    "all-to-all broadcast" for the branch exchange itself.
    """
    dims = root.dims
    with comm.phase("all-to-all broadcast"):
        gathered = comm.allgather(my_branches)
    branches = [b for rank_list in gathered for b in rank_list]
    with comm.phase("tree merging"):
        top = build_top_tree(branches, root, degree, lookup_kind)
        comm.compute(_merge_flops(_internal_count(branches, dims), dims,
                                  degree))
    return top


def merge_nonreplicated(comm: Comm, my_branches: list[BranchInfo],
                        root: Box, degree: int,
                        lookup_kind: str = "hashed") -> TopTree:
    """Section 3.1.2: branches travel to designated parent owners.

    The designation rule: an internal cell is owned by the owner of its
    first branch descendant in Morton order.  Summaries flow upward
    level-by-level point-to-point; the finished top levels are then
    broadcast to everyone.  The merge *work* is charged only at the
    designated owners (that is the scheme's point), the final values are
    identical to :func:`merge_broadcast`.
    """
    dims = root.dims
    # Lightweight structure exchange: (key, owner, count) per branch.
    with comm.phase("all-to-all broadcast"):
        skeleton = comm.allgather(
            [(b.key, b.owner, b.count) for b in my_branches]
        )
    all_keys = sorted(
        (key, owner) for rank_list in skeleton for key, owner, _ in rank_list
    )
    if not all_keys:
        raise ValueError("no branch nodes anywhere")
    first_owner = all_keys[0][1]

    with comm.phase("tree merging"):
        # Branch summaries (the heavy payload) go point-to-point to the
        # designated root owner, which would compute the internal nodes.
        if comm.rank != first_owner and my_branches:
            nbytes = sum(b.wire_bytes(degree, dims) for b in my_branches)
            comm.send(my_branches, first_owner, tag=71, nbytes=nbytes)
            branches = None
        elif comm.rank == first_owner:
            branches = list(my_branches)
            senders = {
                owner for rank_list in skeleton
                for _, owner, _ in rank_list if owner != comm.rank
            }
            for src in sorted(senders):
                branches.extend(comm.recv(src=src, tag=71))
            comm.compute(_merge_flops(_internal_count(branches, dims),
                                      dims, degree))
        else:
            branches = None

    # The computed top levels must still reach everyone.
    with comm.phase("all-to-all broadcast"):
        branches = comm.bcast(branches, root=first_owner)

    with comm.phase("tree merging"):
        # Building the local data structure from finished summaries is
        # cheap (no redundant multipole merges charged here).
        top = build_top_tree(branches, root, degree, lookup_kind)
    return top
