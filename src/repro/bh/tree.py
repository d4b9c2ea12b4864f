"""Quad/oct trees with leaf capacity ``s`` and chain collapsing.

The tree is stored as flat numpy arrays (children table, boxes, particle
slices) built from Morton-sorted particles, which makes construction
O(n log n) with vectorized splits and keeps every node's particle set a
*contiguous slice* of the Morton order — the property the DPDA costzones
scheme exploits to collect "all particles lying in the tree between load
boundaries" with array slicing.

Construction is *level-synchronous*: a whole frontier of pending cells
is collapsed, emitted, and split per wave with array operations (the
style of Warren-Salmon hashed treecodes and Dubinski's parallel tree
code, which derive the tree from sorted keys rather than per-particle
insertion).  The frontier starts with one entry per tree root, so
:func:`build_forest` builds all of a rank's owned-cell subtrees in one
pass and :func:`build_tree` is a forest of one.  Node ids are
depth-first pre-order: every node's particle slice nests inside its
parent's and siblings partition the parent slice in Morton order, so
pre-order is exactly the lexicographic order on ``(start, depth)`` and
the breadth-first emission is renumbered with one ``lexsort``.  The
classical node-at-a-time recursion lives in ``tests/oracles/tree.py``;
the tests hold this builder to exact array equality with it.

Cell identity: every node corresponds to a spatial cell addressed by
``(depth, path_key)`` where ``path_key`` is the node's Morton prefix (the
``depth`` leading d-bit groups of its particles' Morton keys).  These keys
are the "unique key computed for each branch node" of the paper's
function-shipping protocol.

A node can be a *remote leaf*: a placeholder for a subtree owned by
another virtual processor (``remote_owner >= 0``).  ``build_tree`` never
creates those; the distributed top-tree merge does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.morton import MAX_BITS_2D, MAX_BITS_3D, morton_keys
from repro.bh.particles import Box, ParticleSet

NO_CHILD = -1


def _child_offsets(dims: int) -> np.ndarray:
    """(2^d, d) table of the ±1 offsets of ``Box.child``: bit ``i`` of
    the octant selects the upper half of axis ``i``."""
    octants = np.arange(1 << dims)
    return np.where(
        (octants[:, None] >> np.arange(dims)[None, :]) & 1, 1.0, -1.0
    )


def cell_boxes(root: Box, depth: np.ndarray, path_key: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Centers and half-widths of many cells at once.

    Vectorized over cells, but iterated *per level*: each level replays
    the exact ``center + 0.5 * half * offsets`` update of
    :meth:`Box.child`, so the returned centers are bitwise equal to the
    scalar descent (a closed-form dyadic sum would round differently).
    """
    d = root.dims
    depth = np.asarray(depth, dtype=np.int64)
    path_key = np.asarray(path_key, dtype=np.int64)
    if np.any(depth < 0):
        raise ValueError("negative cell depth")
    shift = np.minimum(d * depth, 63)   # d*depth > 63 never fits anyway
    if np.any(path_key < 0) or (depth.size
                                and np.any(path_key >> shift != 0)):
        raise ValueError("path_key invalid for depth")
    n = depth.size
    centers = np.tile(np.asarray(root.center, dtype=np.float64), (n, 1))
    halves = np.full(n, float(root.half))
    offsets = _child_offsets(d)
    mask = (1 << d) - 1
    for t in range(int(depth.max()) if n else 0):
        active = depth > t
        level = depth[active] - 1 - t
        octant = (path_key[active] >> (d * level)) & mask
        centers[active] += (0.5 * halves[active])[:, None] * offsets[octant]
        halves[active] *= 0.5
    return centers, halves


def cell_box(root: Box, depth: int, path_key: int) -> Box:
    """Box of the cell addressed by ``(depth, path_key)`` under ``root``."""
    d = root.dims
    if depth < 0:
        raise ValueError(f"negative cell depth {depth}")
    if not 0 <= path_key < (1 << (d * depth)):
        raise ValueError(f"path_key {path_key} invalid at depth {depth}")
    centers, halves = cell_boxes(
        root, np.array([depth], dtype=np.int64),
        np.array([path_key], dtype=np.int64),
    )
    return Box(centers[0], float(halves[0]))


@dataclass
class Tree:
    """Flat-array spatial tree.  See module docstring.

    Node arrays (all length ``nnodes``):

    - ``children``: (nnodes, 2^d) child node ids, ``NO_CHILD`` if absent
    - ``depth``, ``path_key``: cell address
    - ``center``, ``half``: node box
    - ``start``, ``end``: slice into ``order`` (Morton-sorted particle
      index array) — empty for remote leaves
    - ``mass``, ``com``: monopole data (filled by ``compute_monopoles``)
    - ``remote_owner``: owning rank of a remote-leaf placeholder, else -1
    - ``remote_key``: branch key of a remote leaf, else -1
    """

    root_box: Box
    dims: int
    leaf_capacity: int
    max_depth: int
    children: np.ndarray
    depth: np.ndarray
    path_key: np.ndarray
    center: np.ndarray
    half: np.ndarray
    start: np.ndarray
    end: np.ndarray
    order: np.ndarray
    mass: np.ndarray = None  # type: ignore[assignment]
    com: np.ndarray = None  # type: ignore[assignment]
    remote_owner: np.ndarray = None  # type: ignore[assignment]
    remote_key: np.ndarray = None  # type: ignore[assignment]
    #: per-node interaction counters for DPDA load balancing
    interactions: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        n = self.children.shape[0]
        if self.remote_owner is None:
            self.remote_owner = np.full(n, -1, dtype=np.int32)
        if self.remote_key is None:
            self.remote_key = np.full(n, -1, dtype=np.int64)
        if self.interactions is None:
            self.interactions = np.zeros(n, dtype=np.int64)
        if self.mass is None:
            self.mass = np.zeros(n)
        if self.com is None:
            self.com = np.zeros((n, self.dims))

    ROOT = 0

    @property
    def nnodes(self) -> int:
        return self.children.shape[0]

    @property
    def n_particles(self) -> int:
        return self.order.size

    def count(self, node: int) -> int:
        return int(self.end[node] - self.start[node])

    def is_leaf(self, node: int) -> bool:
        return bool((self.children[node] == NO_CHILD).all())

    def is_remote(self, node: int) -> bool:
        return bool(self.remote_owner[node] >= 0)

    def particle_indices(self, node: int) -> np.ndarray:
        """Original indices of the particles under ``node``."""
        return self.order[self.start[node]:self.end[node]]

    def leaves(self) -> np.ndarray:
        return np.flatnonzero((self.children == NO_CHILD).all(axis=1))

    def node_depth_max(self) -> int:
        return int(self.depth.max()) if self.nnodes else 0

    def nodes_by_level(self) -> list[tuple[int, np.ndarray]]:
        """Node ids grouped by depth: ``[(depth, ids), ...]`` shallowest
        first.  Children are always strictly deeper than their parent
        (chain collapsing only increases the gap), so iterating the
        levels in reverse visits every child before its parent — the
        schedule of all level-batched upward passes."""
        order = np.argsort(self.depth, kind="stable")
        sorted_depths = self.depth[order]
        levels, starts = np.unique(sorted_depths, return_index=True)
        bounds = np.append(starts, sorted_depths.size)
        return [(int(levels[i]), order[bounds[i]:bounds[i + 1]])
                for i in range(levels.size)]

    def _internal_child_groups(self, restrict: np.ndarray | None = None):
        """Local internal nodes per level (deepest first), grouped by
        child count: yields ``(nodes, kids)`` with ``kids`` of shape
        ``(len(nodes), c)``, children in slot order.  ``restrict`` (a
        node mask) limits the sweep to a subset — the incremental
        monopole refresh of tree repair."""
        local = self.remote_owner < 0
        if restrict is not None:
            local = local & restrict
        for _, ids in reversed(self.nodes_by_level()):
            ids = ids[local[ids]]
            if ids.size == 0:
                continue
            kid_rows = self.children[ids]
            valid = kid_rows != NO_CHILD
            nkids = valid.sum(axis=1)
            for c in np.flatnonzero(np.bincount(nkids)[1:]) + 1:
                sel = nkids == c
                nodes = ids[sel]
                # row-major boolean selection keeps slot order per row
                kids = kid_rows[sel][valid[sel]].reshape(nodes.size, int(c))
                yield nodes, kids

    def compute_monopoles(self, particles: ParticleSet | None,
                          nodes: np.ndarray | None = None) -> None:
        """Fill ``mass``/``com`` bottom-up from the particle slices.

        Level-batched: leaves are grouped by slice length and reduced as
        contiguous (g, L) blocks, internal nodes per level grouped by
        child count — both reductions use the same pairwise-summation
        order as a per-node reverse scan, so the results are bitwise
        identical to one (the oracle in ``tests/oracles/tree.py``).

        ``nodes`` restricts the pass to a subset (tree repair: only
        nodes on dirty root-paths).  Restricted results are bitwise
        equal to the full pass because every grouped reduction is
        per-row independent; the subset must be ancestor-closed over
        stale nodes, i.e. untouched nodes' stored monopoles are valid.

        Remote leaves are expected to have mass/com pre-filled by the
        tree merge; they are left untouched.  A tree without local
        leaves (the merged top tree) takes ``particles=None``.
        """
        if self.nnodes == 0:
            return
        restrict = None
        if nodes is not None:
            restrict = np.zeros(self.nnodes, dtype=bool)
            restrict[nodes] = True
        local = self.remote_owner < 0
        leaf_mask = (self.children == NO_CHILD).all(axis=1) & local
        if restrict is not None:
            leaf_mask &= restrict
        leaves = np.flatnonzero(leaf_mask)
        lengths = (self.end - self.start)[leaves]
        for L in np.unique(lengths):
            sel = leaves[lengths == L]
            if L == 0:
                self.mass[sel] = 0.0
                self.com[sel] = self.center[sel]
                continue
            gather = self.order[self.start[sel][:, None]
                                + np.arange(int(L))[None, :]]
            mm = particles.masses[gather]               # (g, L) contiguous
            totals = mm.sum(axis=1)
            self.mass[sel] = totals
            weighted = (mm[:, :, None] * particles.positions[gather]).sum(
                axis=1)
            positive = totals > 0
            safe = np.where(positive, totals, 1.0)
            self.com[sel] = np.where(positive[:, None], weighted / safe[:, None],
                                     self.center[sel])
        for nodes, kids in self._internal_child_groups(restrict):
            km = self.mass[kids]                        # (g, c) contiguous
            totals = km.sum(axis=1)
            self.mass[nodes] = totals
            weighted = (km[:, :, None] * self.com[kids]).sum(axis=1)
            positive = totals > 0
            safe = np.where(positive, totals, 1.0)
            self.com[nodes] = np.where(positive[:, None],
                                       weighted / safe[:, None],
                                       self.center[nodes])


def _emit_levels(keys: np.ndarray, dims: int, leaf_capacity: int,
                 collapse_chains: bool, lo: np.ndarray, hi: np.ndarray,
                 center: np.ndarray, half: np.ndarray, bits: np.ndarray,
                 stop_cells: dict[int, np.ndarray] | None = None) -> dict:
    """Level-synchronous cell emission over sorted Morton keys.

    The initial frontier is one entry per tree root: entry ``t`` owns
    the key slice ``[lo[t], hi[t])`` (sorted, at ``bits[t]`` bits — its
    depth budget) and the root cell ``(center[t], half[t])``.  A lone
    tree is a frontier of one; a rank's forest of owned-cell subtrees is
    the same call with k entries.  Children inherit their root's budget,
    so trees of different budgets refine side by side.

    Processes a frontier of pending cells per wave: batched chain
    collapsing (masked per-level iteration, the same fp update sequence
    as a recursive descent), one node emission per frontier entry, and
    a grouped octant split via per-entry key histograms.  Emission order
    is breadth-first; arrays come back *unnumbered* (``parent``/``slot``
    refer to emission indices, roots have ``parent == -1``) so callers
    can renumber, or splice in grafted subtrees first (tree repair).

    ``stop_cells`` (depth -> sorted path keys; cells are addressed
    relative to their root, so this is for a frontier of one) marks
    cells whose old subtrees the repair path wants to reuse: an emission
    whose post-collapse cell matches a stop cell is not split
    (``stopped`` flags it).  The check runs only *after* collapse
    settles, so a stop cell grafts only when the normal build would
    materialise exactly that cell — a clean old cell that a full rebuild
    would skip (e.g. departures shrank an ancestor under the leaf
    capacity) is simply never matched, keeping grafted output bitwise
    equal to a rebuild.
    """
    d = dims
    nkids = 1 << d
    kmask = nkids - 1
    offsets = _child_offsets(d)

    k = lo.shape[0]
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int64)
    depth = np.zeros(k, dtype=np.int64)
    path = np.zeros(k, dtype=np.int64)
    center = np.array(center, dtype=np.float64)     # updated in place
    half = np.array(half, dtype=np.float64)
    parent = np.full(k, -1, dtype=np.int64)   # emission index of parent
    slot = np.full(k, -1, dtype=np.int64)

    e_lo, e_hi, e_depth, e_path = [], [], [], []
    e_center, e_half, e_parent, e_slot, e_stop = [], [], [], [], []
    n_emitted = 0

    while lo.size:
        if collapse_chains:
            # Collapse candidates shrink monotonically: an entry whose
            # first and last key disagree at the current level never
            # collapses further (slice bounds are fixed within a wave).
            cand = np.flatnonzero((hi - lo > leaf_capacity) & (depth < bits))
            while cand.size:
                shift = (bits[cand] - depth[cand] - 1) * d
                first = (keys[lo[cand]] >> shift) & kmask
                last = (keys[hi[cand] - 1] >> shift) & kmask
                same = first == last
                cand = cand[same]
                if cand.size == 0:
                    break
                octant = first[same]
                depth[cand] += 1
                path[cand] = (path[cand] << d) | octant
                center[cand] += (0.5 * half[cand])[:, None] * offsets[octant]
                half[cand] *= 0.5
                cand = cand[depth[cand] < bits[cand]]

        stopped = np.zeros(lo.size, dtype=bool)
        if stop_cells:
            for dep in np.unique(depth):
                cells = stop_cells.get(int(dep))
                if cells is None:
                    continue
                sel = np.flatnonzero(depth == dep)
                pos = np.searchsorted(cells, path[sel])
                ok = pos < cells.size
                ok[ok] = cells[pos[ok]] == path[sel[ok]]
                stopped[sel[ok]] = True

        emit_base = n_emitted
        n_emitted += lo.size
        e_lo.append(lo)
        e_hi.append(hi)
        e_depth.append(depth)
        e_path.append(path)
        e_center.append(center)
        e_half.append(half)
        e_parent.append(parent)
        e_slot.append(slot)
        e_stop.append(stopped)

        split = np.flatnonzero((hi - lo > leaf_capacity) & (depth < bits)
                               & ~stopped)
        if split.size == 0:
            break
        slo, shi = lo[split], hi[split]
        sdepth, spath = depth[split], path[split]
        shift = (bits[split] - sdepth - 1) * d
        lens = shi - slo
        total = int(lens.sum())
        seg = np.repeat(np.arange(split.size), lens)
        within = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        g = (keys[np.repeat(slo, lens) + within]
             >> np.repeat(shift, lens)) & kmask
        counts = np.zeros((split.size, nkids), dtype=np.int64)
        np.add.at(counts, (seg, g), 1)
        child_lo = slo[:, None] + np.cumsum(counts, axis=1) - counts
        pe, ce = np.nonzero(counts > 0)   # per parent, octants ascending

        lo = child_lo[pe, ce]
        hi = lo + counts[pe, ce]
        depth = sdepth[pe] + 1
        path = (spath[pe] << d) | ce
        scenter, shalf = center[split], half[split]
        center = scenter[pe] + (0.5 * shalf[pe])[:, None] * offsets[ce]
        half = 0.5 * shalf[pe]
        bits = bits[split][pe]
        parent = emit_base + split[pe]
        slot = ce.astype(np.int64)

    return dict(
        lo=np.concatenate(e_lo),
        hi=np.concatenate(e_hi),
        depth=np.concatenate(e_depth),
        path=np.concatenate(e_path),
        center=np.concatenate(e_center),
        half=np.concatenate(e_half),
        parent=np.concatenate(e_parent),
        slot=np.concatenate(e_slot),
        stopped=np.concatenate(e_stop),
    )


def build_forest(particles: ParticleSet, bounds: np.ndarray,
                 boxes: list[Box], max_depths: np.ndarray,
                 keys: np.ndarray, leaf_capacity: int = 8,
                 collapse_chains: bool = True,
                 compute_monopoles: bool = True) -> list[Tree]:
    """One tree per contiguous group of ``particles``, all built in one
    level-synchronous pass.

    Group ``t`` is ``particles[bounds[t]:bounds[t + 1]]`` (non-empty),
    rooted at ``boxes[t]`` with depth budget ``max_depths[t]``; ``keys``
    holds every particle's Morton key relative to its own group's box at
    that group's budget.  Tree ``t`` is exactly the tree over the group
    alone — its ``order`` and particle slices index the group, node ids
    start at 0 — but the groups share one key sort, one emission, one
    renumbering and one monopole pass, so the cost does not scale with
    the number of groups (a rank owns many few-particle cells).

    Exact per tree because sorting by ``(group, key)`` leaves the groups
    as disjoint ascending slices, so ``lexsort((depth, start))`` is
    *forest* pre-order — tree after tree, each root the shallowest node
    at its group's first slot; every refinement decision reads only the
    entry's own slice, cell and budget; and every reduction of the
    upward pass is per-row independent (DESIGN.md section 10).
    """
    k = len(boxes)
    dims = particles.dims
    nkids = 1 << dims
    bounds = np.asarray(bounds, dtype=np.int64)
    sizes = np.diff(bounds)
    order = np.lexsort((keys, np.repeat(np.arange(k), sizes)))
    raw = _emit_levels(
        keys[order], dims, leaf_capacity, collapse_chains,
        lo=bounds[:-1], hi=bounds[1:],
        center=np.stack([b.center for b in boxes]),
        half=np.array([b.half for b in boxes], dtype=np.float64),
        bits=max_depths,
    )
    nnodes = raw["lo"].size
    perm = np.lexsort((raw["depth"], raw["lo"]))     # forest pre-order
    new_id = np.empty(nnodes, dtype=np.int64)
    new_id[perm] = np.arange(nnodes)
    children = np.full((nnodes, nkids), NO_CHILD, dtype=np.int32)
    kid = np.flatnonzero(raw["parent"] >= 0)
    children[new_id[raw["parent"][kid]], raw["slot"][kid]] = new_id[kid]
    # The concatenated node table is a valid ``Tree`` layout with k
    # roots, which is all the upward pass reads.
    forest = Tree(
        root_box=boxes[0], dims=dims, leaf_capacity=leaf_capacity,
        max_depth=int(max_depths[0]), children=children,
        depth=raw["depth"][perm].astype(np.int32),
        path_key=raw["path"][perm], center=raw["center"][perm],
        half=raw["half"][perm], start=raw["lo"][perm], end=raw["hi"][perm],
        order=order,
    )
    if compute_monopoles:
        forest.compute_monopoles(particles)

    # Per-tree views: node ids, particle slots and ``order`` rebased to
    # the tree's own root / group start.
    roots = np.searchsorted(forest.start, bounds[:-1])
    node_bounds = np.append(roots, nnodes)
    tree_of = np.repeat(np.arange(k), np.diff(node_bounds))
    children = np.where(children == NO_CHILD, NO_CHILD,
                        children - roots.astype(np.int32)[tree_of][:, None])
    start = forest.start - bounds[tree_of]
    end = forest.end - bounds[tree_of]
    order = order - np.repeat(bounds[:-1], sizes)
    trees = []
    for t in range(k):
        a, b = node_bounds[t], node_bounds[t + 1]
        trees.append(Tree(
            root_box=boxes[t], dims=dims, leaf_capacity=leaf_capacity,
            max_depth=int(max_depths[t]), children=children[a:b],
            depth=forest.depth[a:b], path_key=forest.path_key[a:b],
            center=forest.center[a:b], half=forest.half[a:b],
            start=start[a:b], end=end[a:b],
            order=order[bounds[t]:bounds[t + 1]],
            mass=forest.mass[a:b], com=forest.com[a:b],
        ))
    return trees


def build_tree(particles: ParticleSet, box: Box | None = None,
               leaf_capacity: int = 8, max_depth: int | None = None,
               collapse_chains: bool = True,
               compute_monopoles: bool = True,
               keys: np.ndarray | None = None) -> Tree:
    """Build a Barnes-Hut tree over ``particles``: a
    :func:`build_forest` of one.

    Parameters
    ----------
    box:
        Root cell.  Defaults to the bounding cube of the particles.  For
        distributed construction the caller passes the *global* cell of
        its subdomain so path keys are globally consistent.
    leaf_capacity:
        The paper's ``s``: a cell with more than ``s`` particles is split.
    max_depth:
        Maximum refinement depth (defaults to the Morton key limit for
        the dimensionality).
    collapse_chains:
        Skip chains of single-occupied-child cells (box collapsing).
    keys:
        Optional precomputed Morton keys (one per particle, at exactly
        ``max_depth`` bits relative to ``box``).  Skips quantization and
        the root-box containment check — the keys define membership.
    """
    if leaf_capacity < 1:
        raise ValueError(f"leaf capacity must be >= 1, got {leaf_capacity}")
    if particles.n == 0:
        raise ValueError("cannot build a tree over zero particles; "
                         "use an explicit empty-domain representation")
    if box is None:
        box = particles.bounding_box()
    if box.dims != particles.dims:
        raise ValueError("box dimensionality does not match particles")
    limit = MAX_BITS_2D if particles.dims == 2 else MAX_BITS_3D
    bits = limit if max_depth is None else max_depth
    if not 0 < bits <= limit:
        raise ValueError(f"max_depth must be in (0, {limit}]")

    if keys is None:
        inside = box.contains(particles.positions)
        if not inside.all():
            raise ValueError(
                f"{int((~inside).sum())} particles fall outside the root box"
            )
        keys = morton_keys(particles.positions, box.lo, box.side, bits)
    else:
        # Precomputed keys define cell membership directly (the caller
        # derived them from a coarser quantization of the same grid), so
        # the fp containment check against the cell's rounded box is
        # skipped: a particle may sit within an ulp of the boundary.
        keys = np.asarray(keys, dtype=np.int64)
        if keys.shape != (particles.n,):
            raise ValueError(
                f"keys must be shape ({particles.n},), got {keys.shape}"
            )
    return build_forest(
        particles, np.array([0, particles.n]), [box], np.array([bits]),
        keys, leaf_capacity=leaf_capacity, collapse_chains=collapse_chains,
        compute_monopoles=compute_monopoles,
    )[0]
