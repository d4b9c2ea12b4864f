"""Data-shipping baseline: a Warren-Salmon-style hashed octree.

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
mirror, collect misses, batch-fetch them (one request list per owner),
insert, repeat until no misses.  Working-set behaviour (Section 4.2.4)
is observable through the mirror size counter.  Only what crosses the
wire counts as fetched: a rank's own subtrees come through the free
self-slot of the exchange.

Nodes travel and are mirrored as rows of one table, :class:`NodeRows`,
under anchored cell keys (``uint64``: depth 21 in 3-D sets bit 63).  An
owner answers a fetch list with one ``searchsorted`` of its forest's
sorted keys and ``take``s of those rows and their children's; the
requester's mirror, seeded from the top tree, is the same rows with a
``dict`` from key to row as the hashed octree.

What differs from function shipping is what travels, not the
arithmetic: each round's interactions run through the same evaluators
and the same fused cluster and P2P passes
(:func:`~repro.bh.interaction_lists.evaluate_pairs`), over the local
particles transposed once per engine into ``(d, n)`` coordinate
columns, and the mirror walk's MAC distance is
:func:`~repro.bh.mac.sq_norm`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.analysis.flops import FLOPS_PER_MAC, interaction_flops
from repro.bh.interaction_lists import evaluate_pairs, group_leaf_visits, \
    source_layout
from repro.bh.mac import BarnesHutMAC, sq_norm
from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
from repro.bh.particles import ParticleSet
from repro.bh.tree import NO_CHILD, Tree
from repro.core.branch_nodes import anchored_keys
from repro.core.config import SchemeConfig
from repro.core.tree_build import LocalSubtree
from repro.core.tree_merge import TopTree
from repro.machine.comm import Comm
from repro.machine.costmodel import multipole_series_bytes

#: flops per hash access (both requester and owner side).
FLOPS_PER_HASH_ACCESS = 6.0

_NODE_FIELDS = ("keys", "owner", "mass", "com", "center", "half", "count",
                "coeffs", "kids")


def node_keys(st: LocalSubtree, dims: int) -> np.ndarray:
    """Anchored keys of a local subtree's nodes.  Local trees are rooted
    at their owned cell, so their ``depth`` / ``path_key`` are
    cell-relative; composing with the cell's address makes them
    globally unique."""
    depth = st.tree.depth.astype(np.uint64)
    path = ((np.uint64(st.cell.path_key) << (np.uint64(dims) * depth))
            | st.tree.path_key.astype(np.uint64))
    return anchored_keys(st.cell.depth + depth, path, dims)


def _payload(start: np.ndarray, count: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Payload rows of the nodes with ``start >= 0``, concatenated, and
    each node's start in that concatenation (``-1`` without payload)."""
    n = np.where(start >= 0, count, 0)
    offs = np.cumsum(n) - n
    return (np.repeat(start - offs, n) + np.arange(n.sum()),
            np.where(start >= 0, offs, -1))


@dataclass
class NodeRows:
    """Tree nodes as rows: one fetch reply, an owner's forest, or the
    requester's mirror.

    ``kids`` holds a node's child keys in slot order (``0``: no child,
    or children not yet known); a leaf's particle payload is the
    ``count`` rows of ``positions`` / ``masses`` from ``start`` (``-1``:
    no payload).  ``coeffs`` is ``None`` in monopole runs.  ``nbytes``
    is a reply's wire size by the Section 4.2.1 model; the
    communicator's payload estimator reads it.
    """

    keys: np.ndarray
    owner: np.ndarray
    mass: np.ndarray
    com: np.ndarray
    center: np.ndarray
    half: np.ndarray
    count: np.ndarray
    coeffs: np.ndarray | None
    kids: np.ndarray
    start: np.ndarray
    positions: np.ndarray
    masses: np.ndarray
    nbytes: int = 0

    @property
    def dims(self) -> int:
        return self.com.shape[1]

    @property
    def nnodes(self) -> int:
        return self.keys.size

    def take(self, rows: np.ndarray) -> NodeRows:
        """Rows ``rows`` with their payloads."""
        src, start = _payload(self.start[rows], self.count[rows])
        return NodeRows(
            **{f: None if getattr(self, f) is None else getattr(self, f)[rows]
               for f in _NODE_FIELDS},
            start=start, positions=self.positions[src],
            masses=self.masses[src])


def tree_rows(tree: Tree, keys: np.ndarray, owner: np.ndarray,
              series: TreeMultipoles | None,
              particles: ParticleSet | None = None) -> NodeRows:
    """A tree's nodes as rows under ``keys``, each with its children's
    keys (a top tree's branch leaves have none yet); with ``particles``
    (those the tree was built over) each leaf carries its payload."""
    kids = np.where(tree.children != NO_CHILD, keys[tree.children],
                    np.uint64(0))
    payload = dict(start=np.full(tree.nnodes, -1),
                   positions=np.zeros((0, tree.dims)), masses=np.zeros(0))
    if particles is not None:
        payload = dict(start=np.where(kids.any(axis=1), -1, tree.start),
                       positions=particles.positions[tree.order],
                       masses=particles.masses[tree.order])
    return NodeRows(keys=keys, owner=owner, mass=tree.mass, com=tree.com,
                    center=tree.center, half=tree.half,
                    count=tree.end - tree.start, kids=kids,
                    coeffs=None if series is None else series.coeffs,
                    **payload)


def concat_rows(parts: list[NodeRows]) -> NodeRows:
    """One table of ``parts``' rows in order, payloads included."""
    base = np.cumsum([0] + [p.masses.size for p in parts])
    return NodeRows(
        **{f: None if getattr(parts[0], f) is None else
           np.concatenate([getattr(p, f) for p in parts])
           for f in _NODE_FIELDS + ("positions", "masses")},
        start=np.concatenate([np.where(p.start >= 0, p.start + b, -1)
                              for p, b in zip(parts, base)]))


def merge_rows(mirror: NodeRows, row_of: dict[int, int],
               rec: NodeRows) -> NodeRows:
    """``mirror`` with the reply ``rec`` merged in; unseen keys become
    new rows and entries of ``row_of``.  A node seen before keeps the
    summary (geometry, monopole, series) first seen — the walk memoizes
    its decisions across rounds, so its MAC geometry must not shift —
    and gains only children and payload."""
    n = mirror.nnodes
    rows = np.fromiter(map(row_of.get, rec.keys.tolist(), repeat(-1)),
                       dtype=np.int64, count=rec.nnodes)
    seen, new = rows >= 0, np.flatnonzero(rows < 0)
    grown = concat_rows([mirror, rec])
    known = seen & rec.kids.any(axis=1)
    grown.kids[rows[known]] = rec.kids[known]
    paid = np.flatnonzero(seen & (rec.start >= 0))
    grown.start[rows[paid]] = grown.start[n + paid]
    row_of.update(zip(rec.keys[new].tolist(), range(n, n + new.size)))
    return grown.take(np.concatenate((np.arange(n), n + new)))


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


class DataShippingEngine:
    """Force computation by fetching remote nodes (the baseline)."""

    def __init__(self, comm: Comm, config: SchemeConfig, top: TopTree,
                 subtrees: list[LocalSubtree], particles: ParticleSet):
        self.comm = comm
        self.config = config
        self.top = top
        self.particles = particles
        self._cols = np.ascontiguousarray(particles.positions.T)
        self.mac = BarnesHutMAC(config.alpha)
        self.stats = DataShipStats()
        self._dims = dims = top.tree.dims
        # owner side: the forest as one table, each node's children's
        # rows beside it, and a sorted key index over it
        if subtrees:
            base = np.cumsum([0] + [st.tree.nnodes for st in subtrees])
            self._forest = concat_rows([
                tree_rows(st.tree, node_keys(st, dims),
                          np.full(st.tree.nnodes, comm.rank), st.multipoles,
                          st.particles) for st in subtrees])
            self._kid_rows = np.concatenate(
                [np.where(st.tree.children != NO_CHILD,
                          st.tree.children + b, -1)
                 for st, b in zip(subtrees, base)])
            # the published branch cell may sit above a chain-collapsed
            # subtree root; alias it so branch-keyed fetches resolve
            keys, roots = self._forest.keys, base[:-1]
            branch = np.array([st.key for st in subtrees], dtype=np.uint64)
            alias = branch != keys[roots]
            index = np.concatenate((keys, branch[alias]))
            order = np.argsort(index)
            self._index_keys = index[order]
            self._index_rows = np.concatenate(
                (np.arange(keys.size), roots[alias]))[order]
        self.mirror: NodeRows | None = None
        self._row: dict[int, int] = {}

    # ---------------------------------------------------------- seeding
    def _seed(self) -> None:
        """The replicated top tree seeds the mirror, branch leaves
        included (their children are not yet known)."""
        top = self.top.tree
        keys = anchored_keys(top.depth, top.path_key, self._dims)
        self.mirror = tree_rows(top, keys, top.remote_owner,
                                self.top.multipoles)
        self._row = dict(zip(keys.tolist(), range(keys.size)))
        self.stats.hash_accesses += keys.size

    # ------------------------------------------------------- evaluation
    def _evaluate_round(self, values: np.ndarray, targets: np.ndarray,
                        far: list[tuple[int, np.ndarray]],
                        leaves: list[tuple[int, np.ndarray]]) -> None:
        """One round's collected ``(mirror row, target indices)`` visits
        through the interaction-list engine's passes, onto ``values``
        (potentials, or ``(d, n)`` force columns) at the ``(d, n)``
        target columns ``targets``: accepted nodes as
        ``(row, target)`` pairs over the mirror — by function shipping's
        rule, the fetched series in a multipole run, else softened point
        masses — and leaf visits, grouped by
        :func:`~repro.bh.interaction_lists.group_leaf_visits`, over the
        round's leaf payloads in visit order."""
        m = self.mirror
        rows = tgt = np.zeros(0, dtype=np.int64)
        evaluator = layout = None
        groups = []
        if far:
            nodes, idx = zip(*far)
            rows = np.repeat(np.array(nodes), [i.size for i in idx])
            tgt = np.concatenate(idx)
            if self.config.degree == 0:
                evaluator = MonopoleExpansion(
                    m, softening=self.config.softening)
            else:
                evaluator = TreeMultipoles(m, None, self.config.degree)
                evaluator.coeffs = m.coeffs
        if leaves:
            nodes, idx = zip(*leaves)
            nodes = np.array(nodes)
            src, starts = _payload(m.start[nodes], m.count[nodes])
            groups = group_leaf_visits(list(idx),
                                       np.array([i.size for i in idx]),
                                       starts, m.count[nodes])
            layout = source_layout(np.ascontiguousarray(m.positions[src].T),
                                   m.masses[src])
        evaluate_pairs(values, targets, rows, tgt, evaluator, groups,
                       layout, self.config.mode, self.config.softening)

    def _traverse_round(self, values: np.ndarray,
                        done_pairs: set[tuple[int, int]],
                        tidx: np.ndarray | None = None
                        ) -> dict[int, set[int]]:
        """One per-node DFS against the current mirror that collects the
        round's interactions for :meth:`_evaluate_round` and returns the
        misses, owner -> keys to fetch.  ``done_pairs`` memoizes (key,
        target-block) work accumulated in earlier rounds, so restarting
        from the root each round never counts a contribution twice."""
        m, row_of = self.mirror, self._row
        count, start = m.count.tolist(), m.start.tolist()
        owner, half = m.owner.tolist(), m.half.tolist()
        com, center, kids = m.com, m.center, m.kids
        alpha = self.mac.alpha
        cols = self._cols
        misses: dict[int, set[int]] = {}
        seed = (np.arange(cols.shape[1]) if tidx is None
                else np.asarray(tidx, dtype=np.int64))
        stack: list[tuple[int, np.ndarray, int]] = [(1, seed, self.comm.rank)]
        per_cluster = interaction_flops(self.config.degree)
        per_p2p = interaction_flops(0)
        flops = 0.0
        lookups = 0
        accepted: list[tuple[int, np.ndarray]] = []
        visited: list[tuple[int, np.ndarray]] = []
        while stack:
            key, idx, owner_hint = stack.pop()
            lookups += 1
            row = row_of.get(key)
            if row is None:
                # A parent listed this child but it has not been fetched
                # yet: ask its owner (same as the parent's) for it.
                misses.setdefault(owner_hint, set()).add(key)
                continue
            if count[row] == 0:
                continue
            # MAC on the (stable) mirrored summary.  Nodes whose particle
            # payload has arrived skip the MAC: they are original leaves
            # and interact exactly.
            leaf = start[row] >= 0
            if leaf:
                far = idx[:0]
                near = idx
            else:
                at = cols.take(idx, axis=1)
                dist = np.sqrt(sq_norm(at - com[row][:, None]))
                inside = np.all(np.abs(at - center[row][:, None])
                                < half[row], axis=0)
                ok = (2.0 * half[row] < alpha * dist) & ~inside
                flops += FLOPS_PER_MAC * idx.size
                far = idx[ok]
                near = idx[~ok]
            if far.size:
                pair_key = (key, int(far[0]))
                if pair_key not in done_pairs:
                    done_pairs.add(pair_key)
                    accepted.append((row, far))
                    flops += per_cluster * far.size
            if near.size == 0:
                continue
            if leaf:
                # exact interaction with the leaf payload
                leaf_key = (key, -1 - int(near[0]))
                if leaf_key not in done_pairs:
                    done_pairs.add(leaf_key)
                    visited.append((row, near))
                    flops += per_p2p * near.size * count[row]
                continue
            children = kids[row]
            children = children[children != 0].tolist()
            if not children:
                misses.setdefault(owner[row], set()).add(key)
                continue
            for ck in children:
                stack.append((ck, near, owner[row]))
        if accepted or visited:
            self._evaluate_round(values, cols, accepted, visited)
        self.comm.compute(flops)
        # a walk lookup counts twice, as the walk's probe and as the
        # table's own access; an insert counts once
        self.stats.hash_accesses += 2 * lookups
        return misses

    # ----------------------------------------------------------- fetching
    def _serve_fetches(self, want: np.ndarray) -> NodeRows:
        """One owner's reply to a fetch list: each requested node (under
        the key it was asked by — chain collapsing can root a subtree
        deeper than the branch cell the requester knows) followed by its
        children, the paper's "children of the refused node"."""
        for _ in range(want.size):  # one clock charge per access
            self.comm.compute(FLOPS_PER_HASH_ACCESS)
        at = np.searchsorted(self._index_keys, want)
        rows = self._index_rows[at]
        if not np.array_equal(self._index_keys[at], want):
            raise KeyError(f"rank {self.comm.rank} owns not all of "
                           f"{want.tolist()}")
        block = np.concatenate((rows[:, None], self._kid_rows[rows]), axis=1)
        reply = self._forest.take(block[block >= 0])
        width = (block >= 0).sum(axis=1)
        reply.keys[np.cumsum(width) - width] = want
        leaf = reply.start >= 0
        reply.nbytes = int(np.where(
            leaf, reply.count * 4 * (self._dims + 1) + 16,
            multipole_series_bytes(self.config.degree, self._dims)).sum())
        return reply

    def _fetch_round(self, misses: dict[int, set[int]]) -> None:
        comm = self.comm
        requests: list[np.ndarray | None] = [None] * comm.size
        for owner, keys in misses.items():
            requests[owner] = np.array(sorted(keys), dtype=np.uint64)
        replies = [None if want is None else self._serve_fetches(want)
                   for want in comm.alltoall(requests)]
        for src, rec in enumerate(comm.alltoall(replies)):
            if rec is None:
                continue
            if src != comm.rank:
                self.stats.nodes_fetched += rec.nnodes
                self.stats.leaves_fetched += int((rec.start >= 0).sum())
                self.stats.fetch_bytes += rec.nbytes
            self.mirror = merge_rows(self.mirror, self._row, rec)
            self.stats.hash_accesses += rec.nnodes
        self.stats.fetch_messages += len(misses.keys() - {comm.rank})

    # --------------------------------------------------------------- run
    def run(self, targets_idx: np.ndarray | None = None) -> np.ndarray:
        """Compute potentials/forces for all local particles, or — with
        ``targets_idx`` — for just that active subset (full-size output,
        untouched rows stay zero).  The fetch rounds are collective, so
        every rank calls ``run`` even with an empty subset."""
        n = self.particles.n
        values = np.zeros(n if self.config.mode == "potential"
                          else (self._dims, n))
        has_targets = (n if targets_idx is None
                       else np.asarray(targets_idx).size)
        with self.comm.phase("force computation"):
            self._seed()
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
        self.stats.cache_nodes = self.mirror.nnodes
        return values if values.ndim == 1 else values.T.copy()
