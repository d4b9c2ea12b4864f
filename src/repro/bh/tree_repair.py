"""Dirty-subtree tree repair: rebuild only what moved, bitwise exactly.

Block timesteps (``bh/blockstep.py``) advance a small *active* subset of
particles per substep, so most of the tree survives between force
evaluations.  This module exploits that: given last step's tree, the old
and new Morton keys, and the set of moved particles, :func:`repair_tree`
rebuilds only the *dirty* region — cells whose key range gained or lost
a changed key — and grafts every maximal clean old subtree into the new
node table unchanged (shifted particle slices, renumbered ids).

The contract is **exact equality**: the repaired tree's arrays are
bitwise identical to a full :func:`~repro.bh.tree.build_tree` over the
new keys.  That holds because

- a clean cell's slice content is unchanged, so the subtree a full
  rebuild would regenerate below it is the old subtree (same keys, same
  cell, same builder);
- grafting only happens when the graft-aware emission *naturally* lands
  on a clean old cell (see ``stop_cells`` in ``_emit_levels``) — cells
  a full rebuild would skip are never forced into existence;
- node ids are defined by ``lexsort((depth, start))`` pre-order, which
  the splice re-runs over the assembled (spine + graft) node set.

Monopoles are refreshed *incrementally*: only spine nodes and nodes
containing a moved particle are recomputed (restricted
``compute_monopoles`` — per-row-independent grouped reductions, so the
restriction is also bitwise neutral).  Full rebuild is kept both as the
oracle (tests) and as the fallback when the changed-key fraction
exceeds :data:`_DIRTY_THRESHOLD`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.particles import ParticleSet
from repro.bh.tree import NO_CHILD, Tree, _emit_levels, build_tree

#: Below this many particles :func:`repair_tree` rebuilds outright: the
#: key diff, graft bookkeeping and splice cost more than building so
#: small a tree from scratch (same output either way).
_MIN_REPAIR_PARTICLES = 128

#: Above this fraction of changed keys :func:`repair_tree` rebuilds
#: outright: the dirty spine would be most of the tree.
_DIRTY_THRESHOLD = 0.25


@dataclass
class RepairResult:
    """Outcome of :func:`repair_tree`: the tree, whether it fell back to
    a full rebuild, and how much of the old tree it reused."""

    tree: Tree
    rebuilt: bool
    n_changed_keys: int
    nodes_reused: int
    nodes_rebuilt: int


def subtree_extents(tree: Tree) -> np.ndarray:
    """``sub_end[i]``: one past the last node of ``i``'s subtree.  In
    DFS pre-order every subtree is the contiguous id range
    ``[i, sub_end[i])``."""
    sub_end = np.arange(tree.nnodes, dtype=np.int64) + 1
    for _, ids in reversed(tree.nodes_by_level()):
        kids = tree.children[ids]
        valid = kids != NO_CHILD
        if not valid.any():
            continue
        vals = np.where(valid, sub_end[np.where(valid, kids, 0)], 0)
        sub_end[ids] = np.maximum(sub_end[ids], vals.max(axis=1))
    return sub_end


def _cell_key_ranges(depth: np.ndarray, path_key: np.ndarray, dims: int,
                     bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-open Morton key range ``[lo, hi)`` covered by each cell.
    uint64: the root range at 3-D/21-bit keys is 2^63, one past int64."""
    shift = (dims * (bits - depth.astype(np.int64))).astype(np.uint64)
    lo = path_key.astype(np.uint64) << shift
    return lo, lo + (np.uint64(1) << shift)


def _ranges_hit(sorted_keys: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> np.ndarray:
    """Per cell: does ``[lo, hi)`` contain any of ``sorted_keys``?"""
    sk = sorted_keys.astype(np.uint64)      # keys are nonnegative
    return np.searchsorted(sk, lo) < np.searchsorted(sk, hi)


def _full_rebuild(tree: Tree, particles: ParticleSet, new_keys: np.ndarray,
                  collapse_chains: bool, n_changed: int) -> RepairResult:
    new = build_tree(
        particles, box=tree.root_box, leaf_capacity=tree.leaf_capacity,
        max_depth=tree.max_depth, collapse_chains=collapse_chains,
        keys=new_keys,
    )
    return RepairResult(
        tree=new, rebuilt=True, n_changed_keys=n_changed, nodes_reused=0,
        nodes_rebuilt=new.nnodes,
    )


def repair_tree(tree: Tree, particles: ParticleSet, old_keys: np.ndarray,
                new_keys: np.ndarray, moved: np.ndarray, *,
                collapse_chains: bool = True) -> RepairResult:
    """Repair ``tree`` (built over ``old_keys``) to match ``new_keys``.

    ``moved`` indexes every particle whose *position* changed since the
    tree was built (a superset of the key-changed set: small moves keep
    the key but still stale the monopoles along the root path).  The
    returned tree is bitwise identical to a full ``build_tree`` over
    ``new_keys``; ``particles`` must already hold the new positions.
    """
    if (tree.remote_owner >= 0).any():
        raise ValueError("cannot repair a tree with remote leaves")
    n = particles.n
    old_keys = np.asarray(old_keys, dtype=np.int64)
    new_keys = np.asarray(new_keys, dtype=np.int64)
    if old_keys.shape != (n,) or new_keys.shape != (n,):
        raise ValueError("key arrays must have one key per particle")
    moved = np.asarray(moved, dtype=np.int64)
    changed = old_keys != new_keys
    n_changed = int(changed.sum())
    d, bits = tree.dims, tree.max_depth

    if n < _MIN_REPAIR_PARTICLES or n_changed > _DIRTY_THRESHOLD * n:
        return _full_rebuild(tree, particles, new_keys, collapse_chains,
                             n_changed)

    nn = tree.nnodes
    moved_sorted = np.sort(new_keys[moved])
    cell_lo, cell_hi = _cell_key_ranges(tree.depth, tree.path_key, d, bits)

    if n_changed == 0:
        # Structure and Morton order are untouched; only monopoles along
        # moved particles' root paths are stale.  Share the structural
        # arrays, refresh fresh mass/com copies in place.
        new = Tree(
            root_box=tree.root_box, dims=d, leaf_capacity=tree.leaf_capacity,
            max_depth=bits, children=tree.children, depth=tree.depth,
            path_key=tree.path_key, center=tree.center, half=tree.half,
            start=tree.start, end=tree.end, order=tree.order,
            mass=tree.mass.copy(), com=tree.com.copy(),
            remote_owner=tree.remote_owner, remote_key=tree.remote_key,
            interactions=tree.interactions.copy(),
        )
        stale = np.flatnonzero(_ranges_hit(moved_sorted, cell_lo, cell_hi))
        new.compute_monopoles(particles, nodes=stale)
        return RepairResult(tree=new, rebuilt=False, n_changed_keys=0,
                            nodes_reused=nn, nodes_rebuilt=0)

    # --- dirty set: cells whose range gained or lost a changed key ---
    co = np.sort(old_keys[changed])
    cn = np.sort(new_keys[changed])
    dirty = _ranges_hit(co, cell_lo, cell_hi) \
        | _ranges_hit(cn, cell_lo, cell_hi)

    parent = np.full(nn, -1, dtype=np.int64)
    flat = tree.children.ravel()
    valid = flat != NO_CHILD
    parent[flat[valid]] = np.repeat(np.arange(nn), 1 << d)[valid]

    # maximal clean nodes = graft candidates (root is dirty: changed
    # keys always lie inside the root range)
    maximal = np.flatnonzero(~dirty & (parent >= 0) & dirty[parent])
    stop_cells: dict[int, np.ndarray] = {}
    stop_ids: dict[int, np.ndarray] = {}
    for dep in np.unique(tree.depth[maximal]):
        sel = maximal[tree.depth[maximal] == dep]
        o = np.argsort(tree.path_key[sel])
        stop_cells[int(dep)] = tree.path_key[sel][o]
        stop_ids[int(dep)] = sel[o]

    order_new = np.argsort(new_keys, kind="stable").astype(np.int64)
    raw = _emit_levels(
        new_keys[order_new], d, tree.leaf_capacity, collapse_chains,
        lo=np.array([0]), hi=np.array([n]),
        center=tree.root_box.center[None, :],
        half=np.array([tree.root_box.half]), bits=np.array([bits]),
        stop_cells=stop_cells,
    )
    S = raw["lo"].size
    stop_idx = np.flatnonzero(raw["stopped"])

    # map each stopped emission back to its old graft root
    graft_old = np.empty(stop_idx.size, dtype=np.int64)
    for dep in np.unique(raw["depth"][stop_idx]):
        sel = stop_idx[raw["depth"][stop_idx] == dep]
        pos = np.searchsorted(stop_cells[int(dep)], raw["path"][sel])
        graft_old[np.searchsorted(stop_idx, sel)] = stop_ids[int(dep)][pos]
    if stop_idx.size:
        same_count = (raw["hi"][stop_idx] - raw["lo"][stop_idx]
                      == tree.end[graft_old] - tree.start[graft_old])
        if not same_count.all():
            raise AssertionError("graft slice length mismatch — clean-set "
                                 "determination is broken")

    sub_end = subtree_extents(tree)
    sizes = sub_end[graft_old] - graft_old - 1      # graft interiors
    total = int(sizes.sum())
    starts_rep = np.repeat(graft_old + 1, sizes)
    within = np.arange(total, dtype=np.int64) \
        - np.repeat(np.cumsum(sizes) - sizes, sizes)
    block_rows = starts_rep + within                # old ids, graft order
    delta = raw["lo"][stop_idx] - tree.start[graft_old]
    delta_rep = np.repeat(delta, sizes)

    # --- assemble spine emissions + graft interiors, renumber ---
    a_depth = np.concatenate([raw["depth"],
                              tree.depth[block_rows].astype(np.int64)])
    a_path = np.concatenate([raw["path"], tree.path_key[block_rows]])
    a_center = np.concatenate([raw["center"], tree.center[block_rows]])
    a_half = np.concatenate([raw["half"], tree.half[block_rows]])
    a_lo = np.concatenate([raw["lo"], tree.start[block_rows] + delta_rep])
    a_hi = np.concatenate([raw["hi"], tree.end[block_rows] + delta_rep])
    N = S + total
    perm = np.lexsort((a_depth, a_lo))              # DFS pre-order
    new_id = np.empty(N, dtype=np.int64)
    new_id[perm] = np.arange(N)

    nkids = 1 << d
    children = np.full((N, nkids), NO_CHILD, dtype=np.int32)
    kid = np.flatnonzero(raw["parent"] >= 0)
    children[new_id[raw["parent"][kid]], raw["slot"][kid]] = new_id[kid]
    # graft-internal links (and graft-root -> interior links): remap old
    # child ids through assembled positions
    amap = np.full(nn, -1, dtype=np.int64)          # old id -> assembled
    amap[block_rows] = S + np.arange(total)
    amap[graft_old] = stop_idx
    grows = np.concatenate([graft_old, block_rows])
    crows = tree.children[grows]
    ri, si = np.nonzero(crows != NO_CHILD)
    children[new_id[amap[grows[ri]]], si] = new_id[amap[crows[ri, si]]]

    # monopoles: grafts carry old values, spine rows refreshed below
    m_asm = np.concatenate([np.zeros(S), tree.mass[block_rows]])
    c_asm = np.concatenate([np.zeros((S, d)), tree.com[block_rows]])
    i_asm = np.concatenate([np.zeros(S, dtype=np.int64),
                            tree.interactions[block_rows]])
    m_asm[stop_idx] = tree.mass[graft_old]
    c_asm[stop_idx] = tree.com[graft_old]
    i_asm[stop_idx] = tree.interactions[graft_old]

    new = Tree(
        root_box=tree.root_box, dims=d, leaf_capacity=tree.leaf_capacity,
        max_depth=bits, children=children,
        depth=a_depth[perm].astype(np.int32), path_key=a_path[perm],
        center=a_center[perm], half=a_half[perm], start=a_lo[perm],
        end=a_hi[perm], order=order_new, mass=m_asm[perm], com=c_asm[perm],
        interactions=i_asm[perm],
    )

    # refresh: spine rows plus any node containing a moved particle
    # (covers key-unchanged movers inside grafts)
    refresh = np.zeros(N, dtype=bool)
    refresh[new_id[np.flatnonzero(~raw["stopped"])]] = True
    nlo, nhi = _cell_key_ranges(new.depth, new.path_key, d, bits)
    refresh |= _ranges_hit(moved_sorted, nlo, nhi)
    new.compute_monopoles(particles, nodes=np.flatnonzero(refresh))
    return RepairResult(
        tree=new, rebuilt=False, n_changed_keys=n_changed,
        nodes_reused=total + stop_idx.size,
        nodes_rebuilt=S - stop_idx.size,
    )
