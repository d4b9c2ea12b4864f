"""The recursive tree builder and the per-node monopole scan, moved
verbatim out of ``repro.bh.tree`` (where :func:`build_tree` used to
dispatch small inputs to them) and turned into free functions.  They
are the oracles for the level-synchronous forest build: same
signature, same arrays bit for bit."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bh.morton import MAX_BITS_2D, MAX_BITS_3D, morton_keys
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import NO_CHILD, Tree


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


def _prepare(particles: ParticleSet, box: Box | None, leaf_capacity: int,
             max_depth: int | None, keys: np.ndarray | None
             ) -> tuple[Box, int, np.ndarray, np.ndarray]:
    """Validation + stable key sort, as ``repro.bh.tree`` did it when
    this builder lived there."""
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
    order = np.argsort(keys, kind="stable").astype(np.int64)
    return box, bits, keys[order], order


def build_tree_reference(particles: ParticleSet, box: Box | None = None,
                         leaf_capacity: int = 8,
                         max_depth: int | None = None,
                         collapse_chains: bool = True,
                         compute_monopoles: bool = True,
                         keys: np.ndarray | None = None) -> Tree:
    """Node-at-a-time recursive tree construction: the reference
    :func:`repro.bh.tree.build_tree` is tested against.  Same signature,
    same output."""
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
        compute_monopoles_reference(tree, particles)
    return tree


def compute_monopoles_reference(tree: Tree, particles: ParticleSet) -> None:
    """Per-node reverse-scan monopole pass: what
    :func:`build_tree_reference` runs, and what
    :meth:`Tree.compute_monopoles` is tested bitwise against."""
    pos, m = particles.positions, particles.masses
    for node in range(tree.nnodes - 1, -1, -1):
        if tree.is_remote(node):
            continue
        lo, hi = tree.start[node], tree.end[node]
        if tree.is_leaf(node):
            idx = tree.order[lo:hi]
            mm = m[idx]
            total = mm.sum()
            tree.mass[node] = total
            if total > 0:
                tree.com[node] = (mm[:, None] * pos[idx]).sum(axis=0) / total
            else:
                tree.com[node] = tree.center[node]
        else:
            kids = tree.children[node]
            kids = kids[kids != NO_CHILD]
            total = tree.mass[kids].sum()
            tree.mass[node] = total
            if total > 0:
                tree.com[node] = (
                    tree.mass[kids, None] * tree.com[kids]
                ).sum(axis=0) / total
            else:
                tree.com[node] = tree.center[node]
