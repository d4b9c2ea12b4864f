"""Top-tree construction from branch nodes (Sections 3.1.1 / 3.1.2).

After local construction every rank publishes its branch summaries; the
top part of the tree (everything above the branch nodes) is then built in
one of two ways:

* **broadcast** — one all-to-all broadcast of branch summaries, after
  which "each processor reconstructs the top parts of the tree
  independently.  This results in some redundant computation but causes
  relatively small overhead."
* **nonreplicated** — every rank sends its branch summaries
  point-to-point to one designated rank, the owner of the first branch
  in key order, which does (and is charged) the whole merge; one
  broadcast of the summaries then distributes the finished top levels
  ("the top levels of the tree are repeatedly accessed... this tree
  construction technique must be augmented with an all-to-all
  broadcast").

Both produce the same :class:`TopTree`; they differ in where the merge
*work* is charged and what travels on the wire, which is exactly the
trade-off the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.multipole import TreeMultipoles, m2m_upward
from repro.bh.particles import Box
from repro.bh.tree import NO_CHILD, Tree, cell_boxes
from repro.core.branch_nodes import BranchInfo, make_branch_index
from repro.machine.comm import Comm

#: flops charged per node merge per multipole term (M2M arithmetic).
MERGE_FLOPS_PER_TERM = 8.0


@dataclass
class TopTree:
    """The replicated top of the global tree.

    ``tree`` is a :class:`~repro.bh.tree.Tree` whose leaves are all
    branch cells, flagged with their owner (``remote_owner``) and key
    (``remote_key``); ``multipoles`` holds its merged per-node expansions
    about cell centers when the run uses multipoles.  Data only: as the
    top of the one global tree, its far field goes through the
    evaluators a local subtree's does.
    """

    tree: Tree
    branch_index: object  # HashedBranchIndex | SortedBranchIndex
    multipoles: TreeMultipoles | None = None


def build_top_tree(branches: list[BranchInfo], root: Box, degree: int,
                   lookup_kind: str = "hashed") -> TopTree:
    """Deterministically build the replicated top tree from summaries.

    Built from anchored branch keys, whose ascending order is
    ``(depth, path_key)`` order: the nodes are the branch keys and their
    ancestors (``key >> dims`` per level), a node's parent is one
    ``searchsorted`` away and its child slot is the key's low ``dims``
    bits.  The upward passes are the local trees' own:
    :meth:`Tree.compute_monopoles`, integer child sums for the counts,
    and :func:`m2m_upward` over the branch leaves' published series.

    Two branch cells overlap exactly when one has a child in the top
    tree or both have one key; the error names such a pair.
    """
    if not branches:
        raise ValueError("cannot build a top tree from zero branch nodes")
    dims = root.dims
    bkeys = np.array([b.key for b in branches], dtype=np.int64)
    chain, up = [bkeys], bkeys
    while (up := up[up > 1] >> dims).size:
        chain.append(up)
    keys = np.unique(np.concatenate(chain))
    anchors = 1 << (dims * np.arange(len(chain), dtype=np.int64))
    depth = np.searchsorted(anchors, keys, side="right") - 1
    path_key = keys - anchors[depth]
    n = keys.size

    nkids = 1 << dims
    children = np.full((n, nkids), NO_CHILD, dtype=np.int32)
    children[np.searchsorted(keys, keys[1:] >> dims),
             keys[1:] & (nkids - 1)] = np.arange(1, n)
    leaf = np.searchsorted(keys, bkeys)
    overlaps = ((children[leaf] != NO_CHILD).any(axis=1)
                | (np.bincount(leaf, minlength=n)[leaf] > 1))
    if overlaps.any():
        a = int(np.flatnonzero(overlaps)[0])
        gap = depth[leaf] - depth[leaf[a]]
        inside = (gap >= 0) & ((bkeys >> (dims * np.maximum(gap, 0)))
                               == bkeys[a])
        inside[a] = False
        b = int(np.flatnonzero(inside)[0])
        raise ValueError(
            f"branch cells overlap: {branches[a].cell} (rank "
            f"{branches[a].owner}) and {branches[b].cell} (rank "
            f"{branches[b].owner})"
        )

    remote_owner = np.full(n, -1, dtype=np.int32)
    remote_owner[leaf] = [b.owner for b in branches]
    remote_key = np.full(n, -1, dtype=np.int64)
    remote_key[leaf] = bkeys
    counts = np.zeros(n, dtype=np.int64)
    counts[leaf] = [b.count for b in branches]
    mass = np.zeros(n)
    mass[leaf] = [b.mass for b in branches]
    com = np.zeros((n, dims))
    com[leaf] = [b.com for b in branches]
    center, half = cell_boxes(root, depth, path_key)
    tree = Tree(
        root_box=root, dims=dims, leaf_capacity=1,
        max_depth=max(int(depth[-1]), 1),
        children=children, depth=depth.astype(np.int32), path_key=path_key,
        center=center, half=half,
        start=np.zeros(n, dtype=np.int64), end=counts,
        order=np.zeros(0, dtype=np.int64),
        mass=mass, com=com,
        remote_owner=remote_owner, remote_key=remote_key,
    )
    tree.compute_monopoles(None)
    for nodes, kids in tree._internal_child_groups():
        counts[nodes] = counts[kids].sum(axis=1)

    multipoles = None
    if degree > 0:
        for b in branches:
            if b.coeffs is None:
                raise ValueError(
                    f"branch {b.key} lacks multipole coefficients in a "
                    f"degree-{degree} run"
                )
        multipoles = TreeMultipoles(tree, None, degree)
        multipoles.coeffs[leaf] = [b.coeffs for b in branches]
        m2m_upward(tree, multipoles.coeffs, degree)

    return TopTree(
        tree=tree, branch_index=make_branch_index(branches, lookup_kind),
        multipoles=multipoles,
    )


def _merge_flops(top: TopTree, degree: int) -> float:
    """The merge's model work: one M2M per child of every internal
    node — the non-remote ones, and at least the root."""
    tree = top.tree
    n_internal = max(int((tree.remote_owner < 0).sum()), 1)
    terms = max(degree, 1) ** 2
    return n_internal * (1 << tree.dims) * MERGE_FLOPS_PER_TERM * terms


def merge_broadcast(comm: Comm, my_branches: list[BranchInfo], root: Box,
                    degree: int, lookup_kind: str = "hashed") -> TopTree:
    """Section 3.1.1: all-to-all broadcast of branches, replicated merge.

    Phases charged: "tree merging" for the redundant local merge work,
    "all-to-all broadcast" for the branch exchange itself.
    """
    with comm.phase("all-to-all broadcast"):
        gathered = comm.allgather(my_branches)
    branches = [b for rank_list in gathered for b in rank_list]
    with comm.phase("tree merging"):
        top = build_top_tree(branches, root, degree, lookup_kind)
        comm.compute(_merge_flops(top, degree))
    return top


def merge_nonreplicated(comm: Comm, my_branches: list[BranchInfo],
                        root: Box, degree: int,
                        lookup_kind: str = "hashed") -> TopTree:
    """Section 3.1.2: the merge runs at one designated rank.

    A skeleton ``(key, owner, count)`` per branch is allgathered; the
    owner of the first branch in key order is the designated rank.
    Every other rank with branches sends it its full summaries
    point-to-point; it builds the top tree and is charged the whole
    merge.  One ``bcast`` of the summaries from it then distributes the
    finished top levels, and every other rank builds the identical tree
    from them uncharged.  The values equal :func:`merge_broadcast`'s.
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

    top = None
    with comm.phase("tree merging"):
        # Branch summaries (the heavy payload) go point-to-point to the
        # designated rank, which computes the internal nodes.
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
            top = build_top_tree(branches, root, degree, lookup_kind)
            comm.compute(_merge_flops(top, degree))
        else:
            branches = None

    # The computed top levels must still reach everyone.
    with comm.phase("all-to-all broadcast"):
        branches = comm.bcast(branches, root=first_owner)

    with comm.phase("tree merging"):
        # Building the local data structure from finished summaries is
        # cheap (no redundant multipole merges charged here).
        if top is None:
            top = build_top_tree(branches, root, degree, lookup_kind)
    return top
