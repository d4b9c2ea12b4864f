"""Interaction-list traversal engine: build, evaluate, drop.

The classical Barnes-Hut hot loop interleaves two very different kinds
of work: *deciding* which (node, target) pairs interact (the MAC walk)
and *computing* those interactions (the arithmetic).  This module splits
them:

1. :func:`build_interaction_lists` walks the tree exactly once per
   target batch and emits flat lists — one entry per accepted cluster
   interaction, one ``(leaf slice, target set)`` entry per leaf visit,
   plus the remote-target map the parallel engines turn into bins.  No
   kernel is evaluated during the walk.
2. :func:`evaluate_interaction_lists` consumes the lists with fused,
   chunked kernels: a single grouped gather per evaluator over *all*
   accepted cluster interactions, and a lane-major particle-particle
   pass — leaf visits grouped by source count ``ns``, source ``j`` of
   every row in lane ``j``, read in place from tree-ordered
   structure-of-arrays sources, so each ufunc runs down a long
   contiguous axis of rows — in chunks of a fixed working-set size.
   Those two passes (:func:`evaluate_pairs`) are every force path's,
   data shipping's included.

:class:`TraversalEngine` pairs the two over one tree and *streams*:
:meth:`~TraversalEngine.compute` walks, evaluates and drops each chunk
of :data:`STREAM_CHUNK_TARGETS` targets before the next is walked, so a
batch holds one chunk's lists whatever its size.  Nothing is cached:
no caller presents one target batch twice (a block substep's targets
have just drifted, a served drain is whatever arrived), so no walk
would be reused.

Exactness contract: the walk applies the MAC with the same
floating-point operations as :class:`~repro.bh.mac.BarnesHutMAC.accept`,
and per-target decisions are independent of how targets are batched, so
the interaction *sets* — and therefore ``mac_tests``,
``cluster_interactions``, ``p2p_interactions``, the per-node DPDA
counters, and the per-target weight attribution — are identical to the
classical traversal, streamed or not.  Only the accumulation order of
floating-point sums differs (fused kernels sum per-pair contributions
in list order), which perturbs values at the 1e-15 level.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.bh import kernels
from repro.bh.mac import BarnesHutMAC
from repro.bh.tree import NO_CHILD, Tree

#: Default bound on the fused kernels' working set (bytes of live
#: floating-point temporaries per chunk).  Sized to stay cache-resident:
#: every chunk is touched by several passes (gather, subtract, square,
#: rsqrt, contract), and a chunk that fits in the last-level cache makes
#: the later passes cache hits.  Measured on the serial n=10k benchmark,
#: 4 MiB beats 16 MiB by ~15%.
DEFAULT_WORKING_SET_BYTES = 4 * 2 ** 20

#: Targets per streamed chunk of :meth:`TraversalEngine.compute`.
#: Measured on the serial n=10k benchmark: 512 costs +35 % wall over
#: whole-batch walks (the Python descent is paid per chunk), 2048 +5 %,
#: 4096 nothing; at n=100k chunking beats merely not retaining the
#: whole-batch lists (197 vs 471 MiB, 15.5 vs 21.3 s).
STREAM_CHUNK_TARGETS = 4096


@dataclass
class TraversalResult:
    """Output of one batched traversal.

    ``values`` holds potentials (n,) or forces (n, d) aligned with the
    target array.  The counters feed the paper's instruction-count cost
    model; ``remote_targets`` maps a remote-leaf node id to the indices
    of targets whose interaction must be shipped to the owner.
    """

    values: np.ndarray
    mac_tests: int = 0
    cluster_interactions: int = 0
    p2p_interactions: int = 0
    remote_targets: dict[int, np.ndarray] = field(default_factory=dict)

    def flops(self, degree: int) -> float:
        """Virtual flop count per the paper's model (Section 5.2):
        ``13 + 16 k^2`` per particle-cluster interaction, 14 per MAC.
        Monopole (degree 0) interactions and leaf particle-particle
        interactions are charged as the k = 1 case."""
        per_cluster = 13.0 + 16.0 * max(degree, 1) ** 2
        per_p2p = 13.0 + 16.0
        return (14.0 * self.mac_tests
                + per_cluster * self.cluster_interactions
                + per_p2p * self.p2p_interactions)

    def merge_counters(self, other: "TraversalResult") -> None:
        """Fold another traversal's work counters into this one (values
        are left alone — callers combine those explicitly)."""
        self.mac_tests += other.mac_tests
        self.cluster_interactions += other.cluster_interactions
        self.p2p_interactions += other.p2p_interactions


@dataclass
class InteractionLists:
    """Flat interaction lists of one walk over one target batch.

    Cluster interactions are stored one entry per accepted (node,
    target) pair (``cluster_node[i]`` interacts with target
    ``cluster_tgt[i]``); particle-particle work as one row per (visited
    leaf, target) pair — ``p2p_leaf[i]``'s whole particle slice
    interacts with target ``p2p_tgt[i]``.  ``remote_targets`` arrays
    are sorted so bin contents are independent of traversal order.
    """

    targets: np.ndarray            # (nt, d) positions the walk used
    nt: int
    d: int
    cluster_node: np.ndarray       # (ncluster,) int64 node ids
    cluster_tgt: np.ndarray        # (ncluster,) int64 target indices
    p2p_leaf: np.ndarray           # (nrows,) leaf node id per visit row
    p2p_tgt: np.ndarray            # (nrows,) target index per visit row
    p2p_sizes: np.ndarray          # (nrows,) int64 leaf particle counts
    remote_targets: dict[int, np.ndarray]
    mac_tests: int
    mac_per_target: np.ndarray     # (nt,) int64 MAC tests per target
    p2p_interactions: int
    # every MAC decision the walk made, one row per tested (node,
    # target) pair
    tested_node: np.ndarray = None  # type: ignore[assignment]
    tested_tgt: np.ndarray = None  # type: ignore[assignment]
    tested_ok: np.ndarray = None  # type: ignore[assignment]
    # lazy caches (built on first evaluation, reused afterwards)
    _p2p_groups: list | None = None
    _cluster_per_target: np.ndarray | None = None
    _p2p_src_per_target: np.ndarray | None = None

    @property
    def cluster_interactions(self) -> int:
        return int(self.cluster_tgt.size)

    def nbytes(self) -> int:
        """Bytes held: list arrays plus, once evaluated, the P2P groups'
        per-row target indices and slice starts (no position blocks)."""
        arrays = [self.cluster_node, self.cluster_tgt, self.p2p_leaf,
                  self.p2p_tgt, self.p2p_sizes, self.mac_per_target,
                  self.tested_node, self.tested_tgt, self.tested_ok,
                  *self.remote_targets.values()]
        for tgt, starts, _ in self._p2p_groups or ():
            arrays.extend((tgt, starts))
        return sum(a.nbytes for a in arrays)

    def p2p_groups(self, tree: Tree
                   ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """P2P rows regrouped by leaf source count for dense evaluation.

        Returns ``(tgt, starts, ns)`` tuples: all rows whose leaf holds
        ``ns`` sources, stacked in list order.  A leaf's particles are
        contiguous in tree order, so source ``j`` of row ``i`` is
        element ``starts[i] + j`` of the tree-ordered source arrays and
        no position, of a target or a source, is stored.  Cached across
        evaluations — the lists are bound to the tree they were built
        over."""
        if self._p2p_groups is None:
            self._p2p_groups = group_p2p_rows(
                self.p2p_tgt, tree.start[self.p2p_leaf], self.p2p_sizes)
        return self._p2p_groups

    def cluster_per_target(self) -> np.ndarray:
        if self._cluster_per_target is None:
            self._cluster_per_target = np.bincount(
                self.cluster_tgt, minlength=self.nt
            ).astype(np.int64)
        return self._cluster_per_target

    def p2p_sources_per_target(self) -> np.ndarray:
        """Total particle-particle source count charged to each target."""
        if self._p2p_src_per_target is None:
            if self.p2p_tgt.size:
                self._p2p_src_per_target = np.bincount(
                    self.p2p_tgt,
                    weights=self.p2p_sizes.astype(np.float64),
                    minlength=self.nt,
                ).astype(np.int64)
            else:
                self._p2p_src_per_target = np.zeros(self.nt,
                                                    dtype=np.int64)
        return self._p2p_src_per_target


def group_p2p_rows(tgt: np.ndarray, starts: np.ndarray, sizes: np.ndarray
                   ) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """P2P rows — target ``tgt[i]`` against the ``sizes[i]`` sources
    from ``starts[i]`` on — as ``(tgt, starts, ns)`` groups by source
    count, list order kept within a group."""
    # one stable sort by size (a radix sort on 16-bit keys)
    order = np.argsort(sizes.astype(np.uint16) if sizes.size
                       and sizes.max() < 2 ** 16 else sizes, kind="stable")
    tgt, starts = tgt[order], starts[order]
    ends = np.cumsum(np.bincount(sizes))
    return [(tgt[lo:hi], starts[lo:hi], ns)
            for ns, (lo, hi) in enumerate(zip(ends[:-1], ends[1:]), 1)
            if hi > lo]


def _concat(chunks: list[np.ndarray]) -> np.ndarray:
    if not chunks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(chunks)


def _walk_dfs(tree: Tree, targets: np.ndarray, alpha: float,
              cls: np.ndarray, start: int):
    """The classical batched depth-first descent: a Python stack of
    (node, target indices, their gathered positions) triples, node data
    kept scalar.  The children of an opened node share one gather."""
    nt = targets.shape[0]
    children = tree.children
    com, center, half = tree.com, tree.center, tree.half

    cl_nodes: list[int] = []
    cl_idx: list[np.ndarray] = []
    leaf_nodes: list[int] = []
    leaf_idx: list[np.ndarray] = []
    remote: dict[int, list[np.ndarray]] = {}
    tested_nodes: list[int] = []
    tested_idx: list[np.ndarray] = []
    tested_ok: list[np.ndarray] = []

    stack: list[tuple[int, np.ndarray, np.ndarray]] = [
        (start, np.arange(nt), targets)]
    while stack:
        node, idx, t = stack.pop()
        c = cls[node]
        if c:
            if c == 1:
                leaf_nodes.append(node)
                leaf_idx.append(idx)
            elif c == 2:
                remote.setdefault(node, []).append(idx)
            continue
        # Bit-for-bit the expressions of BarnesHutMAC.accept; the inside-
        # the-cell test can only veto, so it runs only if some target passed.
        diff = t - com[node]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        ok = 2.0 * half[node] < alpha * dist
        if ok.any():
            inside = np.abs(t - center[node]) < half[node]
            within = inside[:, 0]
            for k in range(1, inside.shape[1]):
                within &= inside[:, k]
            ok &= ~within
        tested_nodes.append(node)
        tested_idx.append(idx)
        tested_ok.append(ok)
        far = idx[ok]
        if far.size:
            cl_nodes.append(node)
            cl_idx.append(far)
        if far.size < idx.size:
            if far.size:
                near = np.flatnonzero(~ok)
                idx, t = idx.take(near), t.take(near, axis=0)
            row = children[node]
            for child in row[row != NO_CHILD]:
                stack.append((int(child), idx, t))

    cl_sizes = np.array([a.size for a in cl_idx], dtype=np.int64)
    leaf_sizes = np.array([a.size for a in leaf_idx], dtype=np.int64)
    tested_sizes = np.array([a.size for a in tested_idx], dtype=np.int64)
    cluster_node = (np.repeat(np.asarray(cl_nodes, dtype=np.int64), cl_sizes)
                    if cl_nodes else np.zeros(0, dtype=np.int64))
    p2p_leaf = (np.repeat(np.asarray(leaf_nodes, dtype=np.int64), leaf_sizes)
                if leaf_nodes else np.zeros(0, dtype=np.int64))
    tested_node = (np.repeat(np.asarray(tested_nodes, dtype=np.int64),
                             tested_sizes)
                   if tested_nodes else np.zeros(0, dtype=np.int64))
    tested = (tested_node, _concat(tested_idx),
              (np.concatenate(tested_ok) if tested_ok
               else np.zeros(0, dtype=bool)))
    mac_per_target = np.bincount(tested[1], minlength=nt)
    remote_pairs = {n: _concat(remote[n]) for n in remote}
    return (cluster_node, _concat(cl_idx), p2p_leaf, _concat(leaf_idx),
            remote_pairs, tested[1].size, mac_per_target, tested)


def build_interaction_lists(tree: Tree, target_positions: np.ndarray,
                            mac, root: int | None = None
                            ) -> InteractionLists:
    """The list-building pass: one MAC walk, no kernel evaluation.

    The walk is the classical batched depth-first descent with the
    stock :class:`BarnesHutMAC` criterion inlined, using the identical
    floating-point expressions as the classical traversal, so every
    accept/refine decision — and hence all interaction counters,
    per-node DPDA counts, and remote bins — match it exactly; only the
    fp accumulation order of the fused kernels differs.  Any other MAC
    object (a subclass included: its ``accept`` would never be called)
    is a ``TypeError``.
    """
    if type(mac) is not BarnesHutMAC:
        raise TypeError(
            "the list-building walk inlines the stock BarnesHutMAC "
            f"criterion; got {type(mac).__name__}")
    targets = np.atleast_2d(np.asarray(target_positions, dtype=np.float64))
    nt, d = targets.shape
    empty = InteractionLists(
        targets=targets, nt=nt, d=d,
        cluster_node=np.zeros(0, dtype=np.int64),
        cluster_tgt=np.zeros(0, dtype=np.int64),
        p2p_leaf=np.zeros(0, dtype=np.int64),
        p2p_tgt=np.zeros(0, dtype=np.int64),
        p2p_sizes=np.zeros(0, dtype=np.int64),
        remote_targets={}, mac_tests=0,
        mac_per_target=np.zeros(nt, dtype=np.int64),
        p2p_interactions=0,
        tested_node=np.zeros(0, dtype=np.int64),
        tested_tgt=np.zeros(0, dtype=np.int64),
        tested_ok=np.zeros(0, dtype=bool),
    )
    if nt == 0 or tree.nnodes == 0:
        return empty

    children = tree.children
    counts = (tree.end - tree.start).astype(np.int64)
    # One class code per node collapses the remote/empty/leaf tests into
    # a single lookup.  Priority mirrors the classical walk:
    # remote > empty > leaf > internal.
    cls = np.zeros(tree.nnodes, dtype=np.int8)        # 0 = internal
    cls[(children == NO_CHILD).all(axis=1)] = 1       # leaf
    cls[counts == 0] = 3                              # empty: skipped
    cls[tree.remote_owner >= 0] = 2                   # remote
    (cluster_node, cluster_tgt, p2p_leaf, p2p_tgt, remote_pairs,
     mac_tests, mac_per_target, tested) = _walk_dfs(
        tree, targets, mac.alpha, cls,
        tree.ROOT if root is None else root)

    # Sorted keys and sorted contents: bin composition is independent of
    # the walk and of its visit order.
    remote_targets = {
        n: np.sort(remote_pairs[n]) for n in sorted(remote_pairs)
    }

    return InteractionLists(
        targets=targets, nt=nt, d=d,
        cluster_node=cluster_node,
        cluster_tgt=cluster_tgt,
        p2p_leaf=p2p_leaf,
        p2p_tgt=p2p_tgt,
        p2p_sizes=counts[p2p_leaf],
        remote_targets=remote_targets,
        mac_tests=mac_tests,
        mac_per_target=mac_per_target,
        p2p_interactions=int(counts[p2p_leaf].sum()),
        tested_node=tested[0],
        tested_tgt=tested[1],
        tested_ok=tested[2],
    )


# -------------------------------------------------------------- evaluation
def _accumulate(values: np.ndarray, tgt: np.ndarray,
                contrib: np.ndarray, nt: int) -> None:
    """Scatter-add per-pair contributions onto the target axis."""
    if values.ndim == 1:
        values += np.bincount(tgt, weights=contrib, minlength=nt)
    else:
        for k in range(values.shape[1]):
            values[:, k] += np.bincount(tgt, weights=contrib[:, k],
                                        minlength=nt)


def _cluster_pass(values: np.ndarray, targets: np.ndarray,
                  nodes: np.ndarray, tgt: np.ndarray, evaluator, mode: str,
                  chunk_bytes: int) -> None:
    n = tgt.size
    if n == 0:
        return
    name = "batch_potential" if mode == "potential" else "batch_force"
    batch = getattr(evaluator, name, None)
    if batch is None:
        raise TypeError(f"{type(evaluator).__name__} lacks the batch "
                        f"evaluator interface ({name})")
    row = int(getattr(evaluator, "batch_row_bytes",
                      8 * (6 * targets.shape[1] + 8)))
    chunk = max(1, chunk_bytes // max(row, 1))
    for lo in range(0, n, chunk):
        t = tgt[lo:lo + chunk]
        _accumulate(values, t, batch(nodes[lo:lo + chunk], targets[t]),
                    values.shape[0])


#: One flat scratch buffer per thread (rank threads evaluate at once):
#: lazily allocated, grown on demand, never beyond the working set.
_thread_scratch = threading.local()


def _p2p_scratch(ns: int, chunk: int, d: int) -> tuple:
    """Lane-major P2P chunk buffers (``(d, ns, chunk)`` separations and
    ``(ns, chunk)`` squared distances, per-pair weights, masses) carved
    out of the thread's scratch; every view is contiguous and fully
    overwritten before it is read within a chunk."""
    rows = chunk * ns
    buf = getattr(_thread_scratch, "buf", None)
    if buf is None or buf.size < rows * (d + 3):
        buf = _thread_scratch.buf = np.empty(rows * (d + 3))
    flat = buf[rows * d:rows * (d + 3)].reshape(3, ns, chunk)
    return (buf[:rows * d].reshape(d, ns, chunk), *flat)


def source_layout(positions: np.ndarray, masses: np.ndarray) -> tuple:
    """Sources as the P2P kernel reads them: ``positions`` structure-of-
    arrays ``(d, n)`` (C-contiguous), ``masses`` in the same order
    (``None`` when all equal), and the factor outside the row sums."""
    uniform = masses.size > 0 and bool(np.all(masses == masses[0]))
    # With uniform masses the scalar factor moves outside the row sums
    # (per-pair values differ only in rounding, ~1e-16 relative).
    return (positions, None if uniform else masses,
            -kernels.G * (float(masses[0]) if uniform else 1.0))


def _source_layout(tree: Tree, sources) -> tuple | None:
    """The tree's sources laid out tree-ordered, so a leaf's particles
    are the contiguous run from ``tree.start[leaf]``.  Built per
    evaluation call (a layout passes through) and never kept: block
    stepping moves sources under a reused tree."""
    if sources is None or isinstance(sources, tuple):
        return sources
    return source_layout(np.take(sources.positions.T, tree.order, axis=1),
                         sources.masses[tree.order])


def _p2p_chunk(out: np.ndarray, tgt: np.ndarray, starts: np.ndarray,
               ns: int, tp: np.ndarray, sp: np.ndarray,
               sm: np.ndarray | None, force: bool, soft2: float,
               scale: float) -> None:
    """One fused lane-major P2P chunk of rows ``(tgt[i], starts[i])``:
    gather, subtract, rsqrt, weight, reduce the ``ns`` lanes,
    scatter-add — accumulated onto ``out``.  ``tp`` / ``sp`` hold target
    and source coordinates ``(d, .)``; every ufunc runs over a
    contiguous inner axis of ``tgt.size`` rows."""
    d = sp.shape[0]
    dv, r2, w, mbuf = _p2p_scratch(ns, tgt.size, d)
    ix = starts + np.arange(ns)[:, None]
    for k in range(d):          # mode="raise" would buffer every ``out``
        np.take(sp[k], ix, out=dv[k], mode="clip")
        np.subtract(np.take(tp[k], tgt, out=w[0], mode="clip"), dv[k],
                    out=dv[k])
    np.multiply(dv[0], dv[0], out=r2)
    for k in range(1, d):
        np.multiply(dv[k], dv[k], out=w)
        r2 += w
    if soft2 != 0.0:
        r2 += soft2
    zero = r2 == 0.0
    np.sqrt(r2, out=r2)
    with np.errstate(divide="ignore"):
        np.divide(1.0, r2, out=r2)           # inv_r
    r2[zero] = 0.0
    if force:
        np.multiply(r2, r2, out=w)
        w *= r2                              # inv_r^3
    else:
        w = r2
    if sm is not None:
        w *= np.take(sm, ix, out=mbuf, mode="clip")
    if force:
        dv *= w
        contrib = np.add.reduce(dv, axis=1).T
    else:
        contrib = np.add.reduce(w, axis=0)
    contrib *= scale
    _accumulate(out, tgt, contrib, out.shape[0])


def _p2p_pass(values: np.ndarray, targets: np.ndarray, groups: list,
              layout: tuple | None, mode: str, softening: float,
              chunk_bytes: int) -> None:
    if not groups:
        return
    sp, sm, scale = layout
    d = targets.shape[1]
    tp = np.ascontiguousarray(targets.T)
    for tgt, starts, ns in groups:
        # live per target row: the scratch views and the source indices
        chunk = max(1, chunk_bytes // (8 * ns * (d + 4)))
        for lo in range(0, tgt.size, chunk):
            _p2p_chunk(values, tgt[lo:lo + chunk], starts[lo:lo + chunk],
                       ns, tp, sp, sm, mode == "force", softening ** 2,
                       scale)


def evaluate_pairs(values: np.ndarray, targets: np.ndarray,
                   cluster_node: np.ndarray, cluster_tgt: np.ndarray,
                   evaluator, groups: list, layout: tuple | None,
                   mode: str, softening: float,
                   working_set_bytes: int = DEFAULT_WORKING_SET_BYTES
                   ) -> None:
    """Both fused passes of every force path, accumulated onto
    ``values``: ``evaluator`` over pairs ``(cluster_node[i],
    cluster_tgt[i])``, and the :func:`group_p2p_rows` groups, whose
    source ``j`` of row ``i`` is element ``starts[i] + j`` of the
    :func:`source_layout` ``layout``."""
    _cluster_pass(values, targets, cluster_node, cluster_tgt, evaluator,
                  mode, working_set_bytes)
    _p2p_pass(values, targets, groups, layout, mode, softening,
              working_set_bytes)


def evaluate_interaction_lists(tree: Tree, lists: InteractionLists,
                               sources, evaluator,
                               mode: str = "potential",
                               softening: float = 0.0,
                               count_node_interactions: bool = False,
                               target_weights: np.ndarray | None = None,
                               working_set_bytes: int | None = None
                               ) -> TraversalResult:
    """The evaluation pass: fused kernels over prebuilt lists.

    Produces a :class:`TraversalResult` with the same values (to fp
    accumulation order), the identical counters, the identical per-node
    DPDA interaction counts, and the identical per-target weight
    attribution as the classical traversal would.

    ``sources`` is the particle set, or its :func:`_source_layout` (a
    streamed batch lays its sources out once, not once per chunk).
    """
    if mode not in ("potential", "force"):
        raise ValueError(f"mode must be 'potential' or 'force', got {mode!r}")
    nt, d = lists.nt, lists.d
    values = np.zeros(nt) if mode == "potential" else np.zeros((nt, d))
    result = TraversalResult(
        values=values, mac_tests=lists.mac_tests,
        cluster_interactions=lists.cluster_interactions,
        p2p_interactions=lists.p2p_interactions,
        remote_targets=dict(lists.remote_targets),
    )
    if nt == 0:
        return result
    ws = (DEFAULT_WORKING_SET_BYTES if working_set_bytes is None
          else int(working_set_bytes))
    groups, layout = [], None
    if lists.p2p_leaf.size:
        if sources is None:
            raise ValueError("tree has local leaves but no source "
                             "particles were provided")
        groups, layout = lists.p2p_groups(tree), _source_layout(tree, sources)
    evaluate_pairs(values, lists.targets, lists.cluster_node,
                   lists.cluster_tgt, evaluator, groups, layout, mode,
                   softening, ws)

    if count_node_interactions:
        nn = tree.nnodes
        if lists.cluster_node.size:
            tree.interactions += np.bincount(lists.cluster_node,
                                             minlength=nn)
        if lists.p2p_leaf.size:
            # A leaf visited by m targets costs m * leaf_count pairs.
            visits = np.bincount(lists.p2p_leaf, minlength=nn)
            counts = (tree.end - tree.start).astype(np.int64)
            tree.interactions += visits * counts
    if target_weights is not None:
        degree = getattr(evaluator, "degree", 0)
        per_cluster = 13.0 + 16.0 * max(degree, 1) ** 2
        # All three contributions are integer-valued floats, so this is
        # exactly equal to the classical per-visit accumulation.
        target_weights += (14.0 * lists.mac_per_target
                           + per_cluster * lists.cluster_per_target()
                           + 29.0 * lists.p2p_sources_per_target())
    return result


# ------------------------------------------------------------------ engine
class TraversalEngine:
    """Streamed traversal over one tree: walk, evaluate, drop.

    ``walks_built`` counts :meth:`compute` calls, ``stream_chunks`` the
    chunks they evaluated, ``lists_peak_bytes`` the most list bytes one
    chunk held.
    """

    def __init__(self, tree: Tree, sources=None, mac=None,
                 root: int | None = None, softening: float = 0.0):
        self.tree = tree
        self.sources = sources
        self.mac = mac
        self.root = root
        self.softening = softening
        self.walks_built = 0
        self.stream_chunks = 0
        self.lists_peak_bytes = 0

    def compute(self, target_positions: np.ndarray, evaluator,
                mode: str = "potential",
                count_node_interactions: bool = False,
                target_weights: np.ndarray | None = None
                ) -> TraversalResult:
        """Per chunk of :data:`STREAM_CHUNK_TARGETS` targets, walk,
        evaluate, drop the lists; the batch counts once in
        ``walks_built``.  Per-target decisions are independent, so
        chunks merge exactly (remote indices re-based, chunks
        ascending); only fp summation order differs from one
        whole-batch walk."""
        targets = np.atleast_2d(
            np.asarray(target_positions, dtype=np.float64))
        nt, d = targets.shape
        result = TraversalResult(
            values=np.zeros(nt) if mode == "potential" else np.zeros((nt, d)))
        remote: dict[int, list[np.ndarray]] = {}
        layout = _source_layout(self.tree, self.sources)    # once per batch
        # an empty batch still makes one (empty) pass: same validation
        for lo in range(0, max(nt, 1), STREAM_CHUNK_TARGETS):
            chunk = slice(lo, lo + STREAM_CHUNK_TARGETS)
            lists = build_interaction_lists(self.tree, targets[chunk],
                                            self.mac, root=self.root)
            res = evaluate_interaction_lists(
                self.tree, lists, layout, evaluator, mode=mode,
                softening=self.softening,
                count_node_interactions=count_node_interactions,
                target_weights=(None if target_weights is None
                                else target_weights[chunk]))
            self.stream_chunks += 1
            self.lists_peak_bytes = max(self.lists_peak_bytes, lists.nbytes())
            result.values[chunk] = res.values
            result.merge_counters(res)
            for node, tgts in res.remote_targets.items():
                remote.setdefault(node, []).append(tgts + lo)
            del lists, res      # dropped before the next chunk is walked
        result.remote_targets = {n: np.concatenate(remote[n])
                                 for n in sorted(remote)}
        self.walks_built += 1
        return result
