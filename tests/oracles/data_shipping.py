"""The data-shipping engine as it stood on per-node Python objects,
kept verbatim from ``repro.core.data_shipping`` (with the reply charged
its modelled size and only cross-rank fetches counted) as the oracle of
the row-table engine that replaced it: a ``CachedNode`` per mirrored
node in a dict-backed ``HashedOctreeCache``, ``_node_cell`` ->
``branch_key`` per node, and one ``_export_node`` per served node.
``tests/core/test_data_shipping.py`` runs both on one decomposition and
requires equal values, ``DataShipStats``, clocks and ``CommStats``.

Its docstring as it stood:

Data-shipping baseline: a Warren-Salmon-style hashed octree.

The comparator of Section 4.2.  Instead of shipping particle coordinates
to the data, each processor *fetches* remote tree nodes on demand into a
software-cached hashed octree keyed by branch-style cell keys, then
computes locally ("the four children of node B are fetched to processor
0...  consistent with the owner-computes rule").

Every fetched internal node costs the full multipole series on the wire —
``multipole_series_bytes(k)``, the Theta(k^2) volume the paper contrasts
with function shipping's constant 3-floats-per-particle — and every fetch
is one hash-table access on both sides, making the addressing overhead of
Section 4.2.3 measurable.

The protocol is round-based and deterministic: traverse with the current
cache, collect cache misses, batch-fetch them (one request list per
owner, served from the local subtrees), insert, repeat until no misses.
Working-set behaviour (Section 4.2.4) is observable through the cache
size counters.

What differs from function shipping is what travels, not the
arithmetic: each round's interactions run through the same evaluators
and the same fused cluster and P2P passes
(:func:`~repro.bh.interaction_lists.evaluate_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.bh.interaction_lists import evaluate_pairs, group_leaf_visits, \
    source_layout
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import NO_CHILD
from repro.core.branch_nodes import branch_key
from repro.core.config import SchemeConfig
from repro.core.partition import Cell
from repro.core.tree_build import LocalSubtree
from repro.core.tree_merge import TopTree
from repro.machine.comm import Comm
from repro.machine.costmodel import multipole_series_bytes

#: flops per hash access (both requester and owner side).
FLOPS_PER_HASH_ACCESS = 6.0


@dataclass
class CachedNode:
    """One mirrored tree node in the hashed octree."""

    key: int                 # anchored cell key
    owner: int
    mass: float
    com: np.ndarray
    center: np.ndarray
    half: float
    count: int
    is_leaf: bool
    coeffs: np.ndarray | None = None
    # leaf payload (positions/masses) once fetched
    positions: np.ndarray | None = None
    masses: np.ndarray | None = None
    children_known: bool = False
    child_keys: list[int] = field(default_factory=list)
    #: wire size (Section 4.2.1 model) of an exported node; the
    #: communicator's payload estimator sums it over a reply
    nbytes: int = 0


@dataclass
class DataShipStats:
    """Counters for the Section 4.2 comparison."""

    nodes_fetched: int = 0
    leaves_fetched: int = 0
    fetch_bytes: int = 0
    fetch_rounds: int = 0
    fetch_messages: int = 0
    hash_accesses: int = 0
    cache_nodes: int = 0


class HashedOctreeCache:
    """The requester-side mirror: cell key -> CachedNode."""

    def __init__(self):
        self._table: dict[int, CachedNode] = {}
        self.accesses = 0

    def get(self, key: int) -> CachedNode | None:
        self.accesses += 1
        return self._table.get(key)

    def put(self, node: CachedNode) -> None:
        self.accesses += 1
        existing = self._table.get(node.key)
        if existing is None:
            self._table[node.key] = node
            return
        # Merge: the summary fields (geometry, monopole, expansion) the
        # requester first saw must stay STABLE — traversal decisions are
        # memoized across fetch rounds and would be corrupted if the MAC
        # geometry shifted under them.  Only structural knowledge
        # (children, leaf payload) is added.
        existing.children_known = existing.children_known or \
            node.children_known
        if node.child_keys:
            existing.child_keys = node.child_keys
        if node.positions is not None:
            existing.positions = node.positions
            existing.masses = node.masses
            existing.is_leaf = True

    def __len__(self) -> int:
        return len(self._table)


def _node_cell(st: LocalSubtree, node: int, dims: int) -> Cell:
    """Global cell address of a local-tree node.

    Local trees are rooted at their owned cell, so their stored depths
    and path keys are *cell-relative*; composing with the cell's own
    address yields the globally unique cell.
    """
    local_depth = int(st.tree.depth[node])
    local_path = int(st.tree.path_key[node])
    return Cell(st.cell.depth + local_depth,
                (st.cell.path_key << (dims * local_depth)) | local_path)


def _export_node(st: LocalSubtree, node: int, dims: int,
                 degree: int, rank: int, root: Box) -> CachedNode:
    """Owner-side: package one local tree node for shipping."""
    tree = st.tree
    key = branch_key(_node_cell(st, node, dims), dims)
    is_leaf = tree.is_leaf(node)
    coeffs = None
    if degree > 0 and st.multipoles is not None and not is_leaf:
        coeffs = st.multipoles.coeffs[node]
    out = CachedNode(
        key=key, owner=rank, mass=float(tree.mass[node]),
        com=tree.com[node].copy(), center=tree.center[node].copy(),
        half=float(tree.half[node]), count=tree.count(node),
        is_leaf=is_leaf, coeffs=coeffs,
    )
    if is_leaf:
        idx = tree.particle_indices(node)
        out.positions = st.particles.positions[idx].copy()
        out.masses = st.particles.masses[idx].copy()
    else:
        out.children_known = True
        for c in tree.children[node]:
            if c != NO_CHILD:
                out.child_keys.append(
                    branch_key(_node_cell(st, int(c), dims), dims)
                )
    out.nbytes = _node_wire_bytes(out, degree, dims)
    return out


def _node_wire_bytes(node: CachedNode, degree: int, dims: int) -> int:
    """Wire cost of one fetched node (Section 4.2.1 accounting)."""
    if node.is_leaf and node.positions is not None:
        # leaf: particle coordinates + masses
        return node.positions.shape[0] * 4 * (dims + 1) + 16
    return multipole_series_bytes(degree, dims)


class DataShippingEngine:
    """Force computation by fetching remote nodes (the baseline)."""

    def __init__(self, comm: Comm, config: SchemeConfig, top: TopTree,
                 subtrees: list[LocalSubtree], particles: ParticleSet):
        self.comm = comm
        self.config = config
        self.top = top
        self.subtrees = subtrees
        self.particles = particles
        self.mac = BarnesHutMAC(config.alpha)
        self.cache = HashedOctreeCache()
        self.stats = DataShipStats()
        self._dims = top.tree.dims
        # owner-side directory: anchored key -> (subtree, node id)
        self._local_nodes: dict[int, tuple[LocalSubtree, int]] = {}
        for st in subtrees:
            tree = st.tree
            for node in range(tree.nnodes):
                k = branch_key(_node_cell(st, node, self._dims),
                               self._dims)
                self._local_nodes[k] = (st, node)
            # the published branch cell may sit above a chain-collapsed
            # subtree root; alias it so branch-keyed fetches resolve
            self._local_nodes.setdefault(st.key, (st, 0))

    # ---------------------------------------------------------- seeding
    def _seed_cache_from_top(self) -> None:
        """The replicated top tree seeds the mirror, branch leaves
        included (their children are not yet known)."""
        top = self.top.tree
        for node in range(top.nnodes):
            key = branch_key(
                Cell(int(top.depth[node]), int(top.path_key[node])),
                self._dims)
            cn = CachedNode(
                key=key,
                owner=int(top.remote_owner[node]),
                mass=float(top.mass[node]), com=top.com[node].copy(),
                center=top.center[node].copy(),
                half=float(top.half[node]),
                count=top.count(node), is_leaf=False,
                coeffs=(self.top.multipoles.coeffs[node]
                        if self.top.multipoles is not None else None),
            )
            if not top.is_remote(node):
                cn.children_known = True
                for c in top.children[node]:
                    if c != NO_CHILD:
                        cn.child_keys.append(branch_key(
                            Cell(int(top.depth[c]), int(top.path_key[c])),
                            self._dims))
            self.cache.put(cn)

    # ------------------------------------------------------- evaluation
    def _table_evaluator(self, nodes: list[CachedNode]):
        """The far-field evaluator of one round's accepted nodes, by
        function shipping's rule — the fetched series in a multipole
        run, else softened point masses — over a table whose row ``i``
        holds what the evaluators read of ``nodes[i]``."""
        table = SimpleNamespace(
            dims=self._dims, nnodes=len(nodes),
            com=np.stack([cn.com for cn in nodes]),
            mass=np.array([cn.mass for cn in nodes]),
            center=np.stack([cn.center for cn in nodes]))
        if self.config.degree == 0:
            return MonopoleExpansion(table, softening=self.config.softening)
        series = TreeMultipoles(table, None, self.config.degree)
        series.coeffs = np.stack([cn.coeffs for cn in nodes])
        return series

    def _evaluate_round(self, values: np.ndarray, targets: np.ndarray,
                        far: list[tuple[CachedNode, np.ndarray]],
                        leaves: list[tuple[CachedNode, np.ndarray]]
                        ) -> None:
        """One round's collected ``(node, target indices)`` visits
        through the interaction-list engine's passes: accepted nodes as
        ``(row, target)`` pairs over a table of them, leaf visits
        grouped by ``group_leaf_visits`` over one structure-of-arrays
        copy of the round's leaf payloads."""
        rows = tgt = np.zeros(0, dtype=np.int64)
        evaluator = layout = None
        groups = []
        if far:
            nodes, idx = zip(*far)
            rows = np.repeat(np.arange(len(far)), [i.size for i in idx])
            tgt = np.concatenate(idx)
            evaluator = self._table_evaluator(list(nodes))
        if leaves:
            nodes, idx = zip(*leaves)
            ns = np.array([cn.positions.shape[0] for cn in nodes])
            groups = group_leaf_visits(list(idx),
                                       np.array([i.size for i in idx]),
                                       np.cumsum(ns) - ns, ns)
            layout = source_layout(
                np.ascontiguousarray(
                    np.concatenate([cn.positions for cn in nodes]).T),
                np.concatenate([cn.masses for cn in nodes]))
        # the passes read (d, n) columns: transposed views, same sums
        evaluate_pairs(values.T, targets.T, rows, tgt, evaluator, groups,
                       layout, self.config.mode, self.config.softening)

    def _traverse_round(self, values: np.ndarray,
                        done_pairs: set[tuple[int, int]],
                        tidx: np.ndarray | None = None
                        ) -> dict[int, set[int]]:
        """One traversal pass against the current cache.

        Returns cache misses: owner -> keys to fetch.  ``done_pairs``
        memoizes (key, target-block) work already accumulated in earlier
        rounds so contributions are never double counted; traversal
        restarts from the root each round but skips finished branches.

        The walk itself only *collects* interactions; the kernels run
        afterwards through the interaction-list engine's passes
        (:meth:`_evaluate_round`).
        """
        targets = self.particles.positions
        misses: dict[int, set[int]] = {}
        root_key = branch_key(Cell(0, 0), self._dims)
        seed = (np.arange(targets.shape[0]) if tidx is None
                else np.asarray(tidx, dtype=np.int64))
        stack: list[tuple[int, np.ndarray, int]] = [
            (root_key, seed, self.comm.rank)
        ]
        degree = self.config.degree
        flops = 0.0
        accepted: list[tuple[CachedNode, np.ndarray]] = []
        visited: list[tuple[CachedNode, np.ndarray]] = []
        while stack:
            key, idx, owner_hint = stack.pop()
            cn = self.cache.get(key)
            self.stats.hash_accesses += 1
            if cn is None:
                # A parent listed this child but it has not been fetched
                # yet: ask its owner (same as the parent's) for it.
                misses.setdefault(owner_hint, set()).add(key)
                continue
            if cn.count == 0:
                continue
            # MAC on the (stable) cached summary.  Nodes whose particle
            # payload arrived with the first fetch skip the MAC: they are
            # original leaves and interact exactly.
            if cn.positions is not None and not cn.child_keys:
                far = idx[:0]
                near = idx
            else:
                diff = targets[idx] - cn.com
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                inside = np.all(np.abs(targets[idx] - cn.center) < cn.half,
                                axis=1)
                ok = (2.0 * cn.half < self.mac.alpha * dist) & ~inside
                flops += 14.0 * idx.size
                far = idx[ok]
                near = idx[~ok]
            if far.size:
                pair_key = (key, int(far[0]))
                if pair_key not in done_pairs:
                    done_pairs.add(pair_key)
                    accepted.append((cn, far))
                    flops += (13.0 + 16.0 * max(degree, 1) ** 2) * far.size
            if near.size == 0:
                continue
            if cn.positions is not None:
                # exact interaction with the leaf payload
                leaf_key = (key, -1 - int(near[0]))
                if leaf_key not in done_pairs:
                    done_pairs.add(leaf_key)
                    visited.append((cn, near))
                    flops += 29.0 * near.size * cn.positions.shape[0]
                continue
            if not cn.children_known:
                misses.setdefault(cn.owner, set()).add(key)
                continue
            for ck in cn.child_keys:
                stack.append((ck, near, cn.owner))
        if accepted or visited:
            self._evaluate_round(values, targets, accepted, visited)
        self.comm.compute(flops)
        return misses

    # ----------------------------------------------------------- fetching
    def _serve_fetches(self, keys: list[int]) -> list[CachedNode]:
        out = []
        for key in keys:
            self.comm.compute(FLOPS_PER_HASH_ACCESS)
            st, node = self._local_nodes[key]
            tree = st.tree
            # ship the requested node's children (the paper fetches the
            # children of the refused node)
            exported = _export_node(st, node, self._dims,
                                    self.config.degree, self.comm.rank,
                                    self.top.tree.root_box)
            # Chain collapsing can root the subtree deeper than the cell
            # the requester knows; alias the export to the requested key
            # so the requester's mirror links stay consistent.
            exported.key = key
            out.append(exported)
            for c in tree.children[node]:
                if c != NO_CHILD:
                    out.append(_export_node(st, int(c), self._dims,
                                            self.config.degree,
                                            self.comm.rank,
                                            self.top.tree.root_box))
        return out

    def _fetch_round(self, misses: dict[int, set[int]]) -> None:
        comm = self.comm
        degree, dims = self.config.degree, self._dims
        requests: list[list[int] | None] = [None] * comm.size
        for owner, keys in misses.items():
            requests[owner] = sorted(keys)
        incoming = comm.alltoall(requests)
        replies: list[list[CachedNode] | None] = [None] * comm.size
        for src, keys in enumerate(incoming):
            if keys:
                replies[src] = self._serve_fetches(keys)
        fetched_lists = comm.alltoall(replies)
        for src, lst in enumerate(fetched_lists):
            if not lst:
                continue
            for cn in lst:
                # a rank's own subtrees come through the free self-slot:
                # only what crosses the wire counts as fetched
                if src != comm.rank:
                    self.stats.nodes_fetched += 1
                    if cn.is_leaf:
                        self.stats.leaves_fetched += 1
                    self.stats.fetch_bytes += _node_wire_bytes(cn, degree,
                                                               dims)
                self.cache.put(cn)
        self.stats.fetch_messages += sum(
            1 for owner, r in enumerate(requests)
            if r and owner != comm.rank)

    # --------------------------------------------------------------- run
    def run(self, targets_idx: np.ndarray | None = None) -> np.ndarray:
        """Compute potentials/forces for all local particles, or — with
        ``targets_idx`` — for just that active subset (full-size output,
        untouched rows stay zero).  The fetch rounds are collective, so
        every rank calls ``run`` even with an empty subset."""
        n = self.particles.n
        d = self._dims
        values = (np.zeros(n) if self.config.mode == "potential"
                  else np.zeros((n, d)))
        has_targets = (n if targets_idx is None
                       else np.asarray(targets_idx).size)
        with self.comm.phase("force computation"):
            self._seed_cache_from_top()
            done_pairs: set[tuple[int, int]] = set()
            while True:
                misses = (self._traverse_round(values, done_pairs,
                                               targets_idx)
                          if has_targets else {})
                any_miss = self.comm.allreduce(
                    bool(misses), lambda a, b: a or b)
                if not any_miss:
                    break
                self.stats.fetch_rounds += 1
                self._fetch_round(misses)
        self.stats.cache_nodes = len(self.cache)
        self.stats.hash_accesses += self.cache.accesses
        return values
