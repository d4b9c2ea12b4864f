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
insertion).  The classical node-at-a-time recursion is kept as
:func:`build_tree_reference`: :func:`build_tree` dispatches to it for
inputs below :data:`SMALL_BUILD_CUTOFF`, and the tests hold the
vectorized builder to exact array equality with it.  Node ids are
identical between the two: the recursion numbers nodes in depth-first
pre-order, and because every node's particle slice nests inside its parent's and
siblings partition the parent slice in Morton order, pre-order is
exactly the lexicographic order on ``(start, depth)`` — so the
level-synchronous emission is renumbered with one ``lexsort``.

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

from dataclasses import dataclass, field

import numpy as np

from repro.bh.morton import morton_keys
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

    def node_box(self, node: int) -> Box:
        return Box(self.center[node], float(self.half[node]))

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
            for c in np.unique(nkids):
                if c == 0:
                    continue
                sel = nkids == c
                nodes = ids[sel]
                # row-major boolean selection keeps slot order per row
                kids = kid_rows[sel][valid[sel]].reshape(nodes.size, int(c))
                yield nodes, kids

    def compute_monopoles(self, particles: ParticleSet,
                          nodes: np.ndarray | None = None) -> None:
        """Fill ``mass``/``com`` bottom-up from the particle slices.

        Level-batched: leaves are grouped by slice length and reduced as
        contiguous (g, L) blocks, internal nodes per level grouped by
        child count — both reductions use the same pairwise-summation
        order as the per-node reference scan, so the results are bitwise
        identical to :meth:`compute_monopoles_reference`.

        ``nodes`` restricts the pass to a subset (tree repair: only
        nodes on dirty root-paths).  Restricted results are bitwise
        equal to the full pass because every grouped reduction is
        per-row independent; the subset must be ancestor-closed over
        stale nodes, i.e. untouched nodes' stored monopoles are valid.

        Remote leaves are expected to have mass/com pre-filled by the
        tree merge; they are left untouched.
        """
        pos, m = particles.positions, particles.masses
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
            mm = m[gather]                              # (g, L) contiguous
            totals = mm.sum(axis=1)
            self.mass[sel] = totals
            weighted = (mm[:, :, None] * pos[gather]).sum(axis=1)
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

    def compute_monopoles_reference(self, particles: ParticleSet) -> None:
        """Per-node reverse-scan monopole pass: what
        :func:`build_tree_reference` (and so every small-input
        :func:`build_tree`) runs, and what :meth:`compute_monopoles` is
        tested bitwise against."""
        pos, m = particles.positions, particles.masses
        for node in range(self.nnodes - 1, -1, -1):
            if self.is_remote(node):
                continue
            lo, hi = self.start[node], self.end[node]
            if self.is_leaf(node):
                idx = self.order[lo:hi]
                mm = m[idx]
                total = mm.sum()
                self.mass[node] = total
                if total > 0:
                    self.com[node] = (mm[:, None] * pos[idx]).sum(axis=0) / total
                else:
                    self.com[node] = self.center[node]
            else:
                kids = self.children[node]
                kids = kids[kids != NO_CHILD]
                total = self.mass[kids].sum()
                self.mass[node] = total
                if total > 0:
                    self.com[node] = (
                        self.mass[kids, None] * self.com[kids]
                    ).sum(axis=0) / total
                else:
                    self.com[node] = self.center[node]

    def sum_interactions_up(self) -> None:
        """Propagate per-node interaction counts to ancestors (DPDA:
        "this variable is summed up along the tree").

        Level-batched child→parent scatters, deepest level first, so
        every node's count already includes its whole subtree when its
        parent reads it.  Counters are integers, so the result is
        exactly that of a per-node reverse scan.
        """
        for _, ids in reversed(self.nodes_by_level()):
            kids = self.children[ids]
            valid = kids != NO_CHILD
            if not valid.any():
                continue
            vals = np.where(valid, self.interactions[np.where(valid, kids, 0)],
                            0)
            self.interactions[ids] += vals.sum(axis=1)


@dataclass
class _Builder:
    keys: np.ndarray       # Morton keys in sorted order
    order: np.ndarray      # particle indices in Morton order
    dims: int
    bits: int
    leaf_capacity: int
    collapse_chains: bool
    root_box: Box
    children: list = field(default_factory=list)
    depth: list = field(default_factory=list)
    path_key: list = field(default_factory=list)
    center: list = field(default_factory=list)
    half: list = field(default_factory=list)
    start: list = field(default_factory=list)
    end: list = field(default_factory=list)

    def build(self, lo: int, hi: int, depth: int, path_key: int,
              box: Box) -> int:
        d = self.dims
        nkids = 1 << d
        # Chain collapsing: while every particle falls in a single child,
        # descend without materialising the chain node (bounds tree size
        # for pathological pairs, as in Callahan-Kosaraju).
        if self.collapse_chains:
            while hi - lo > self.leaf_capacity and depth < self.bits:
                shift = (self.bits - depth - 1) * d
                first = (int(self.keys[lo]) >> shift) & (nkids - 1)
                last = (int(self.keys[hi - 1]) >> shift) & (nkids - 1)
                if first != last:
                    break
                depth += 1
                path_key = (path_key << d) | first
                box = box.child(first)

        node = len(self.children)
        self.children.append(np.full(nkids, NO_CHILD, dtype=np.int32))
        self.depth.append(depth)
        self.path_key.append(path_key)
        self.center.append(box.center)
        self.half.append(box.half)
        self.start.append(lo)
        self.end.append(hi)

        if hi - lo > self.leaf_capacity and depth < self.bits:
            shift = (self.bits - depth - 1) * d
            groups = (self.keys[lo:hi] >> shift) & (nkids - 1)
            bounds = np.searchsorted(groups, np.arange(nkids + 1)) + lo
            for c in range(nkids):
                clo, chi = int(bounds[c]), int(bounds[c + 1])
                if chi > clo:
                    self.children[node][c] = self.build(
                        clo, chi, depth + 1, (path_key << d) | c,
                        box.child(c)
                    )
        return node


def _emit_levels(keys: np.ndarray, dims: int, bits: int,
                 leaf_capacity: int, collapse_chains: bool,
                 root_box: Box,
                 stop_cells: dict[int, np.ndarray] | None = None) -> dict:
    """Level-synchronous cell emission over sorted Morton keys.

    Processes a frontier of pending cells per wave: batched chain
    collapsing (masked per-level iteration, the same fp update sequence
    as the recursive descent), one node emission per frontier entry, and
    a grouped octant split via per-entry key histograms.  Emission order
    is breadth-first; arrays come back *unnumbered* (``parent``/``slot``
    refer to emission indices) so callers can renumber, or splice in
    grafted subtrees first (tree repair).

    ``stop_cells`` (depth -> sorted path keys) marks cells whose old
    subtrees the repair path wants to reuse: an emission whose
    post-collapse cell matches a stop cell is not split (``stopped``
    flags it).  The check runs only *after* collapse settles, so a stop
    cell grafts only when the normal build would materialise exactly
    that cell — a clean old cell that a full rebuild would skip (e.g.
    departures shrank an ancestor under the leaf capacity) is simply
    never matched, keeping grafted output bitwise equal to a rebuild.
    """
    d = dims
    nkids = 1 << d
    kmask = nkids - 1
    n = keys.shape[0]
    offsets = _child_offsets(d)

    lo = np.array([0], dtype=np.int64)
    hi = np.array([n], dtype=np.int64)
    depth = np.zeros(1, dtype=np.int64)
    path = np.zeros(1, dtype=np.int64)
    center = np.asarray(root_box.center, dtype=np.float64)[None, :].copy()
    half = np.array([float(root_box.half)])
    parent = np.array([-1], dtype=np.int64)   # emission index of parent
    slot = np.array([-1], dtype=np.int64)

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
                shift = (bits - depth[cand] - 1) * d
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
                cand = cand[depth[cand] < bits]

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
        shift = (bits - sdepth - 1) * d
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


def _build_levels(keys: np.ndarray, dims: int, bits: int,
                  leaf_capacity: int, collapse_chains: bool,
                  root_box: Box) -> dict:
    """Level-synchronous tree construction: :func:`_emit_levels` plus
    renumbering by ``lexsort((depth, start))``, which recovers the
    recursion's depth-first pre-order exactly, because sibling slices
    partition their parent's slice in Morton order and a node shares its
    ``start`` only with first-child descendants (which are strictly
    deeper)."""
    raw = _emit_levels(keys, dims, bits, leaf_capacity, collapse_chains,
                       root_box)
    nkids = 1 << dims
    nnodes = raw["lo"].size
    perm = np.lexsort((raw["depth"], raw["lo"]))     # DFS pre-order
    new_id = np.empty(nnodes, dtype=np.int64)
    new_id[perm] = np.arange(nnodes)
    children = np.full((nnodes, nkids), NO_CHILD, dtype=np.int32)
    kid = np.flatnonzero(raw["parent"] >= 0)
    children[new_id[raw["parent"][kid]], raw["slot"][kid]] = new_id[kid]

    return dict(
        children=children,
        depth=raw["depth"][perm].astype(np.int32),
        path_key=raw["path"][perm],
        center=raw["center"][perm],
        half=raw["half"][perm],
        start=raw["lo"][perm],
        end=raw["hi"][perm],
    )


def _prepare(particles: ParticleSet, box: Box | None, leaf_capacity: int,
             max_depth: int | None, keys: np.ndarray | None
             ) -> tuple[Box, int, np.ndarray, np.ndarray]:
    """Shared validation + key sorting of both builders."""
    if leaf_capacity < 1:
        raise ValueError(f"leaf capacity must be >= 1, got {leaf_capacity}")
    if particles.n == 0:
        raise ValueError("cannot build a tree over zero particles; "
                         "use an explicit empty-domain representation")
    if box is None:
        box = particles.bounding_box()
    if box.dims != particles.dims:
        raise ValueError("box dimensionality does not match particles")
    from repro.bh import morton as _m
    limit = _m.MAX_BITS_2D if particles.dims == 2 else _m.MAX_BITS_3D
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
    order = np.argsort(keys, kind="stable").astype(np.int64)
    return box, bits, keys[order], order


#: Below this many particles the recursive builder's small constant
#: factor beats the level-synchronous builder's array setup (measured
#: crossover ~100 on Plummer sets); :func:`build_tree` dispatches tiny
#: inputs there.  Outputs are identical either way, so the cutoff is
#: purely a performance knob — the distributed schemes build many
#: few-particle subtrees (one per owned cell) where it matters.
SMALL_BUILD_CUTOFF = 128


def build_tree(particles: ParticleSet, box: Box | None = None,
               leaf_capacity: int = 8, max_depth: int | None = None,
               collapse_chains: bool = True,
               compute_monopoles: bool = True,
               keys: np.ndarray | None = None) -> Tree:
    """Build a Barnes-Hut tree over ``particles`` (level-synchronous).

    Produces arrays exactly equal to :func:`build_tree_reference` — same
    node numbering, same boxes bit for bit.  Inputs smaller than
    :data:`SMALL_BUILD_CUTOFF` go through the recursive builder, which
    has the smaller constant factor (same output).

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
    if particles.n < SMALL_BUILD_CUTOFF:
        return build_tree_reference(
            particles, box=box, leaf_capacity=leaf_capacity,
            max_depth=max_depth, collapse_chains=collapse_chains,
            compute_monopoles=compute_monopoles, keys=keys,
        )
    box, bits, sorted_keys, order = _prepare(particles, box, leaf_capacity,
                                             max_depth, keys)
    arrays = _build_levels(sorted_keys, particles.dims, bits, leaf_capacity,
                           collapse_chains, box)
    tree = Tree(
        root_box=box, dims=particles.dims, leaf_capacity=leaf_capacity,
        max_depth=bits, order=order, **arrays,
    )
    if compute_monopoles:
        tree.compute_monopoles(particles)
    return tree


def build_tree_reference(particles: ParticleSet, box: Box | None = None,
                         leaf_capacity: int = 8,
                         max_depth: int | None = None,
                         collapse_chains: bool = True,
                         compute_monopoles: bool = True,
                         keys: np.ndarray | None = None) -> Tree:
    """Node-at-a-time recursive tree construction: the production path
    of :func:`build_tree` below :data:`SMALL_BUILD_CUTOFF`, and the
    reference the level-synchronous path is tested against.  Same
    signature, same output."""
    box, bits, sorted_keys, order = _prepare(particles, box, leaf_capacity,
                                             max_depth, keys)
    builder = _Builder(keys=sorted_keys, order=order, dims=particles.dims,
                       bits=bits, leaf_capacity=leaf_capacity,
                       collapse_chains=collapse_chains, root_box=box)
    builder.build(0, particles.n, 0, 0, box)

    tree = Tree(
        root_box=box,
        dims=particles.dims,
        leaf_capacity=leaf_capacity,
        max_depth=bits,
        children=np.stack(builder.children),
        depth=np.asarray(builder.depth, dtype=np.int32),
        path_key=np.asarray(builder.path_key, dtype=np.int64),
        center=np.stack(builder.center),
        half=np.asarray(builder.half, dtype=np.float64),
        start=np.asarray(builder.start, dtype=np.int64),
        end=np.asarray(builder.end, dtype=np.int64),
        order=order,
    )
    if compute_monopoles:
        tree.compute_monopoles_reference(particles)
    return tree
