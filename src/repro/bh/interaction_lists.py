"""Interaction-list traversal engine: build, evaluate, drop.

The classical Barnes-Hut hot loop interleaves two very different kinds
of work: *deciding* which (node, target) pairs interact (the MAC walk)
and *computing* those interactions (the arithmetic).  This module splits
them:

1. :func:`build_interaction_lists` walks the tree exactly once per
   target batch and emits what the evaluation reads: one entry per
   accepted cluster interaction, the leaf visits already grouped by
   leaf size for the particle-particle pass (one sort of the visits,
   not of their rows), the remote-target map the parallel engines turn
   into bins, and the counters.  Its per-visit records stay as they
   are; the row-expanded MAC decisions and walk-order leaf rows are
   built only when read.  No kernel is evaluated during the walk.
2. :func:`evaluate_interaction_lists` consumes the lists with the
   compiled kernels of ``_kernels.c`` (:mod:`repro.bh.native`), each of
   which adds into the values itself.  The cluster pass is one call of
   the point-mass kernel over *all* accepted cluster interactions of a
   walk chunk, adding each pair in list order; only degree >= 1
   potentials evaluate the series in numpy, in chunks of a fixed
   working-set size.  The particle-particle pass is lane-major: leaf
   visits grouped by source count ``ns``, each group one call of the
   P2P kernel, which reads tree-ordered structure-of-arrays sources in
   place and runs a visit's rows as the inner lanes of each source
   ``j``.  Those two passes (:func:`evaluate_pairs`) are every force
   path's, data shipping's included.

Every pass reads targets as one C-contiguous ``(d, n)`` block of
coordinate columns, which :meth:`TraversalEngine.compute` transposes
once per batch: the walk carries ``(d, m)`` columns on its stack, the
series takes ``(d, n)`` targets, and the kernels read and write
columns through their element strides.  So every elementwise pass runs
down a long axis, not an inner loop three elements long.  The public
entry points keep ``(n, d)`` targets and values.

:class:`TraversalEngine` pairs the two over one tree and *streams*:
:meth:`~TraversalEngine.compute` walks, evaluates and drops each chunk
of :data:`STREAM_CHUNK_TARGETS` targets before the next is walked, so a
batch holds one chunk's lists whatever its size.  Nothing is cached:
no caller presents one target batch twice (a block substep's targets
have just drifted, a served drain is whatever arrived), so no walk
would be reused.

Exactness contract: the walk applies the MAC with the same
floating-point operations as :class:`~repro.bh.mac.BarnesHutMAC.accept`
(its squared distance is :func:`~repro.bh.mac.sq_norm`'s, whose pairing
is that of ``einsum`` on ``(n, d)`` rows, and its inside-the-cell veto
runs only on targets within reach of the node's COM — no other target
can be inside), and per-target decisions
are independent of how targets are batched, so the interaction *sets*
— and therefore ``mac_tests``, ``cluster_interactions``,
``p2p_interactions``, the per-node DPDA counters, and the per-target
weight attribution — are identical to the classical traversal, streamed
or not.  Only the accumulation order of floating-point sums differs
(fused kernels sum per-pair contributions in list order), which
perturbs values at the 1e-15 level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.analysis.flops import FLOPS_PER_MAC, interaction_flops, \
    traversal_flops
from repro.bh import kernels
from repro.bh.native import LIB
from repro.bh.mac import BarnesHutMAC, sq_norm
from repro.bh.tree import NO_CHILD, Tree

#: Bound on the working set of the degree >= 1 potential pass, the one
#: chunked pass (bytes of live temporaries per chunk of
#: :func:`~repro.bh.multipole.m2p` pairs; the point-mass and P2P kernels
#: hold none).  A chunk that fits in the last-level cache makes the later
#: passes over it cache hits.  4 MiB was chosen on a numpy point-mass
#: pass (16 MiB cost ~5 % more serial n=10k step wall) and has not been
#: re-measured on the series.  A different value regroups the series
#: pass's partial sums.  Read at call time.
DEFAULT_WORKING_SET_BYTES = 4 * 2 ** 20

#: Targets per streamed chunk of :meth:`TraversalEngine.compute`.
#: Measured on the serial n=10k benchmark (same host and kernels): 512
#: costs +70-80 % step wall over whole-batch walks (the Python descent is
#: paid per chunk), 2048 +12-18 %, 4096 +5-11 %; at n=100k chunks
#: cost no wall and hold 186 MiB where whole-batch lists peak at 309 MiB
#: (7.1 s/step both).  A different value regroups the partial sums.
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
        """Virtual flop count per the paper's model (Section 5.2.1,
        :func:`~repro.analysis.flops.traversal_flops`)."""
        return traversal_flops(self.mac_tests, self.cluster_interactions,
                               self.p2p_interactions, degree)

    def merge_counters(self, other: "TraversalResult") -> None:
        """Fold another traversal's work counters into this one (values
        are left alone — callers combine those explicitly)."""
        self.mac_tests += other.mac_tests
        self.cluster_interactions += other.cluster_interactions
        self.p2p_interactions += other.p2p_interactions


@dataclass
class InteractionLists:
    """Interaction lists of one walk over one target batch.

    Cluster interactions are stored one entry per accepted (node,
    target) pair (``cluster_node[i]`` interacts with target
    ``cluster_tgt[i]``); particle-particle work as the walk's leaf
    visits, grouped by leaf size (:attr:`p2p_groups`).  ``remote_targets``
    arrays are sorted so bin contents are independent of traversal
    order.

    The walk's per-visit records stay as it made them; the row arrays
    expanded from them — ``p2p_leaf`` / ``p2p_tgt`` / ``p2p_sizes`` in
    walk order, ``mac_per_target`` and ``tested_node`` / ``tested_tgt`` /
    ``tested_ok`` — are built when first read.  A force step reads
    ``mac_per_target`` when it attributes target weights, and nothing
    else of them.
    """

    target_cols: np.ndarray        # (d, nt) target columns the walk used
    nt: int
    d: int
    cluster_node: np.ndarray       # (ncluster,) int64 node ids
    cluster_tgt: np.ndarray        # (ncluster,) int64 target indices
    remote_targets: dict[int, np.ndarray]
    mac_tests: int
    p2p_interactions: int
    # P2P rows grouped by leaf source count for dense evaluation
    # (:func:`group_leaf_visits`): all rows whose leaf holds ``ns``
    # sources, stacked in walk order, as one ``(tgt, starts, rows, ns)``
    # tuple — per row its target, per visit its slice start and row
    # count.  A leaf's particles are contiguous in tree order, so source
    # ``j`` of visit ``v`` is element ``starts[v] + j`` of the
    # tree-ordered source arrays and no position, of a target or a
    # source, is stored.
    p2p_groups: list
    # per visit: accepting node and its target count; visited leaf, its
    # particle count and targets; MAC-tested node, targets, decisions
    cl_nodes: np.ndarray
    cl_rows: np.ndarray
    leaf_nodes: np.ndarray
    leaf_ns: np.ndarray
    leaf_rows: np.ndarray
    leaf_idx: list
    mac_nodes: list
    mac_idx: list
    mac_ok: list

    @property
    def cluster_interactions(self) -> int:
        return int(self.cluster_tgt.size)

    def nbytes(self) -> int:
        """Bytes of the distinct arrays held: the cluster pairs, the
        groups' per-row target indices and slice starts, the remote map,
        the per-visit records and whichever row arrays were read."""
        held = [a for name, a in vars(self).items()
                if isinstance(a, np.ndarray) and name != "target_cols"]
        held += [*self.remote_targets.values(), *self.leaf_idx,
                 *self.mac_idx, *self.mac_ok]
        for tgt, starts, rows, _ in self.p2p_groups:
            held += (tgt, starts, rows)
        return sum({id(a): a.nbytes for a in held}.values())

    # ------------------------------------------- row arrays, on demand
    @cached_property
    def p2p_leaf(self) -> np.ndarray:
        """(nrows,) leaf node id per visit row, in walk order."""
        return np.repeat(self.leaf_nodes, self.leaf_rows)

    @cached_property
    def p2p_tgt(self) -> np.ndarray:
        """(nrows,) target index per visit row."""
        return _concat(self.leaf_idx)

    @cached_property
    def p2p_sizes(self) -> np.ndarray:
        """(nrows,) int64 leaf particle count per visit row."""
        return np.repeat(self.leaf_ns, self.leaf_rows)

    @cached_property
    def mac_per_target(self) -> np.ndarray:
        """(nt,) int64 MAC tests per target."""
        return np.bincount(_concat(self.mac_idx), minlength=self.nt)

    @cached_property
    def tested_node(self) -> np.ndarray:
        """Every MAC decision the walk made, one row per tested (node,
        target) pair: the node, the target (:attr:`tested_tgt`), the
        decision (:attr:`tested_ok`)."""
        return np.repeat(np.asarray(self.mac_nodes, dtype=np.int64),
                         [a.size for a in self.mac_idx])

    @cached_property
    def tested_tgt(self) -> np.ndarray:
        return _concat(self.mac_idx)

    @cached_property
    def tested_ok(self) -> np.ndarray:
        return (np.concatenate(self.mac_ok) if self.mac_ok
                else np.zeros(0, dtype=bool))


def group_leaf_visits(idx: list[np.ndarray], rows: np.ndarray,
                      starts: np.ndarray, ns: np.ndarray) -> list[tuple]:
    """Leaf visits — the ``rows[v]`` targets ``idx[v]`` against the
    ``ns[v]`` sources from ``starts[v]`` on — as P2P ``(tgt, starts,
    rows, ns)`` groups by source count: the group's target rows, and its
    visits' slice starts and row counts, visit order kept within a
    group: one stable sort of the visits, not of their rows."""
    order = np.argsort(ns, kind="stable")
    tgt = _concat([idx[v] for v in order.tolist()])
    visits = np.cumsum(np.bincount(ns))
    ends = np.cumsum(np.bincount(ns, weights=rows).astype(np.int64))
    starts, rows = starts[order], rows[order]
    return [(tgt[lo:hi], starts[v0:v1], rows[v0:v1], n)
            for n, (v0, v1, lo, hi) in enumerate(
                zip(visits[:-1], visits[1:], ends[:-1], ends[1:]), 1)
            if hi > lo]


def _concat(chunks: list[np.ndarray]) -> np.ndarray:
    if not chunks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(chunks)


def _walk_nodes(tree: Tree) -> tuple:
    """The node data one walk reads: class codes (:func:`_node_classes`),
    half sides and the inside-the-cell veto's reach as Python lists, so
    the descent reads scalars; COM and cell centre as ``(d, 1)`` columns
    that broadcast against ``(d, m)`` targets; the child array.  Built
    per target batch, never kept: the monopole pass rewrites COMs in
    place under a reused tree."""
    # How far from its COM a point inside a node's cell can lie (the
    # factor covers rounding): the inside-the-cell veto's reach.
    reach = (tree.half * np.sqrt(tree.center.shape[1])
             + np.linalg.norm(tree.com - tree.center, axis=1)) * (1 + 1e-9)
    return (_node_classes(tree).tolist(), tree.com[:, :, None],
            tree.center[:, :, None], tree.half.tolist(), reach.tolist(),
            tree.children)


def _walk_dfs(cols: np.ndarray, alpha: float, nodes: tuple):
    """The classical batched depth-first descent: a Python stack of
    (node, target indices, their ``(d, m)`` coordinate columns) triples,
    node data read as scalars from :func:`_walk_nodes`.  The children of
    an opened node share one gather.  Returns the per-visit records:
    accepting nodes and their targets, visited leaves and theirs, remote
    visits by node, MAC-tested nodes, their targets and decisions."""
    cls, com, center, half, reach, children = nodes

    cl_nodes: list[int] = []
    cl_idx: list[np.ndarray] = []
    leaf_nodes: list[int] = []
    leaf_idx: list[np.ndarray] = []
    remote: dict[int, list[np.ndarray]] = {}
    mac_nodes: list[int] = []
    mac_idx: list[np.ndarray] = []
    mac_ok: list[np.ndarray] = []

    stack: list[tuple[int, np.ndarray, np.ndarray]] = [
        (Tree.ROOT, np.arange(cols.shape[1]), cols)]
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
        # Bit-for-bit BarnesHutMAC.accept on target columns.  The inside-
        # the-cell test can only veto, and no target beyond ``reach`` of
        # the COM is inside, so it runs only on passing targets within it.
        dist = sq_norm(t - com[node])
        np.sqrt(dist, out=dist)
        h, r = half[node], reach[node]
        ok = 2.0 * h < alpha * dist
        if 2.0 * h < alpha * r:
            cand = np.flatnonzero(ok & (dist <= r))
            if cand.size:
                inside = np.abs(t.take(cand, axis=1) - center[node]) < h
                ok[cand[inside.all(axis=0)]] = False
        mac_nodes.append(node)
        mac_idx.append(idx)
        mac_ok.append(ok)
        far = idx.compress(ok)
        if far.size:
            cl_nodes.append(node)
            cl_idx.append(far)
        if far.size < idx.size:
            if far.size:
                near = np.flatnonzero(~ok)
                idx, t = idx.take(near), t.take(near, axis=1)
            for child in children[node].tolist():
                if child != NO_CHILD:
                    stack.append((child, idx, t))
    return (cl_nodes, cl_idx, leaf_nodes, leaf_idx, remote,
            mac_nodes, mac_idx, mac_ok)


def _node_classes(tree: Tree) -> np.ndarray:
    """One class code per node, collapsing the remote/empty/leaf tests
    into a single lookup.  Priority mirrors the classical walk: remote >
    empty > leaf > internal."""
    cls = np.zeros(tree.nnodes, dtype=np.int8)        # 0 = internal
    cls[(tree.children == NO_CHILD).all(axis=1)] = 1  # leaf
    cls[tree.end == tree.start] = 3                   # empty: skipped
    cls[tree.remote_owner >= 0] = 2                   # remote
    return cls


def build_interaction_lists(tree: Tree, target_positions: np.ndarray,
                            mac) -> InteractionLists:
    """The list-building pass over ``(n, d)`` targets: one MAC walk, no
    kernel evaluation.

    The walk is the classical batched depth-first descent with the
    stock :class:`BarnesHutMAC` criterion inlined, using the identical
    floating-point expressions as the classical traversal, so every
    accept/refine decision — and hence all interaction counters,
    per-node DPDA counts, and remote bins — match it exactly; only the
    fp accumulation order of the fused kernels differs.  Any other MAC
    object (a subclass included: its ``accept`` would never be called)
    is a ``TypeError``.
    """
    _check_mac(mac)
    targets = np.atleast_2d(np.asarray(target_positions, dtype=np.float64))
    return _build_lists(tree, np.ascontiguousarray(targets.T), mac.alpha,
                        _walk_nodes(tree))


def _check_mac(mac) -> None:
    if type(mac) is not BarnesHutMAC:
        raise TypeError(
            "the list-building walk inlines the stock BarnesHutMAC "
            f"criterion; got {type(mac).__name__}")


def _build_lists(tree: Tree, cols: np.ndarray, alpha: float,
                 nodes: tuple) -> InteractionLists:
    """:func:`build_interaction_lists` over ``(d, nt)`` target columns
    and the batch's :func:`_walk_nodes`."""
    d, nt = cols.shape
    if nt == 0 or tree.nnodes == 0:
        walk = [], [], [], [], {}, [], [], []
    else:
        walk = _walk_dfs(cols, alpha, nodes)
    (cl_nodes, cl_idx, leaf_nodes, leaf_idx, remote,
     mac_nodes, mac_idx, mac_ok) = walk

    cl_nodes = np.asarray(cl_nodes, dtype=np.int64)
    cl_rows = np.array([a.size for a in cl_idx], dtype=np.int64)
    leaf_nodes = np.asarray(leaf_nodes, dtype=np.int64)
    leaf_ns = (tree.end[leaf_nodes]
               - tree.start[leaf_nodes]).astype(np.int64)
    leaf_rows = np.array([a.size for a in leaf_idx], dtype=np.int64)
    return InteractionLists(
        target_cols=cols, nt=nt, d=d,
        cluster_node=np.repeat(cl_nodes, cl_rows),
        cluster_tgt=_concat(cl_idx),
        # Sorted keys and sorted contents: bin composition is independent
        # of the walk and of its visit order.
        remote_targets={n: np.sort(_concat(remote[n]))
                        for n in sorted(remote)},
        mac_tests=sum(a.size for a in mac_idx),
        p2p_interactions=int(leaf_ns @ leaf_rows),
        p2p_groups=group_leaf_visits(leaf_idx, leaf_rows,
                                     tree.start[leaf_nodes], leaf_ns),
        cl_nodes=cl_nodes, cl_rows=cl_rows,
        leaf_nodes=leaf_nodes, leaf_ns=leaf_ns, leaf_rows=leaf_rows,
        leaf_idx=leaf_idx,
        mac_nodes=mac_nodes, mac_idx=mac_idx, mac_ok=mac_ok)


# -------------------------------------------------------------- evaluation
def _zeros(mode: str, d: int, nt: int) -> np.ndarray:
    """The accumulator of ``nt`` potentials, or of forces as ``(d, nt)``
    columns."""
    if mode not in ("potential", "force"):
        raise ValueError(f"mode must be 'potential' or 'force', got {mode!r}")
    return np.zeros(nt) if mode == "potential" else np.zeros((d, nt))


def _cluster_pass(values: np.ndarray, targets: np.ndarray,
                  nodes: np.ndarray, tgt: np.ndarray, evaluator,
                  mode: str) -> None:
    """The pairs ``(nodes[i], tgt[i])`` added into ``values``: the
    evaluator's ``point_masses(mode)`` by one :func:`_point_masses`
    call, or, where that is ``None`` (degree >= 1 potentials), its
    ``batch_potential`` in chunks of :data:`DEFAULT_WORKING_SET_BYTES`."""
    if tgt.size == 0:
        return
    point = getattr(evaluator, "point_masses", None)
    if point is None:
        raise TypeError(f"{type(evaluator).__name__} lacks the cluster "
                        "interface (point_masses)")
    masses = point(mode)
    if masses is not None:
        com, mass, softening = masses
        _point_masses(values, nodes, tgt, targets, com, mass,
                      mode == "force", softening ** 2)
        return
    chunk = max(1, DEFAULT_WORKING_SET_BYTES // evaluator.batch_row_bytes)
    for lo in range(0, tgt.size, chunk):
        t = tgt[lo:lo + chunk]
        values += np.bincount(t, minlength=values.size, weights=(
            evaluator.batch_potential(nodes[lo:lo + chunk],
                                      targets.take(t, axis=1))))


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


def _strided(a: np.ndarray) -> tuple:
    """``a`` as float64 for the C kernel: its address and its strides
    in elements (copied when a stride is not a whole element)."""
    a = np.asarray(a, dtype=np.float64)
    if any(s % 8 for s in a.strides):
        a = np.ascontiguousarray(a)
    return (a, a.ctypes.data, *(s // 8 for s in a.strides))


def _check_out(out: np.ndarray, force: bool, d: int, kernel: str) -> None:
    """C writes ``out`` unchecked, so it is never a copy: an ``out`` the
    kernel cannot add into in place is refused, not fixed."""
    if (out.dtype != np.float64 or not out.flags.writeable
            or any(s % 8 for s in out.strides)
            or out.ndim != (2 if force else 1)
            or force and out.shape[0] != d):
        raise ValueError(f"the {kernel} kernel adds into a writable float64 "
                         f"{'(d, n)' if force else '(n,)'} array with "
                         "whole-element strides")


def _point_masses(out: np.ndarray, nodes: np.ndarray, tgt: np.ndarray,
                  tp: np.ndarray, com: np.ndarray, mass: np.ndarray,
                  force: bool, soft2: float) -> None:
    """Point masses ``com[nodes[i]]`` (``(nnodes, d)``, any strides) of
    mass ``mass[nodes[i]]`` at targets ``tp[:, tgt[i]]`` (``(d, .)``,
    any strides), added into ``out`` (potentials, or ``(d, n)`` force
    columns) in list order by the C kernel (``_kernels.c``)."""
    d = tp.shape[0]
    _check_out(out, force, d, "point-mass")
    nodes, tgt = (np.ascontiguousarray(a, dtype=np.intp) for a in (nodes, tgt))
    mass = np.ascontiguousarray(mass, dtype=np.float64)
    if nodes.size != tgt.size or tgt.size and (
            com.shape[1] != d or nodes.min() < 0
            or nodes.max() >= min(com.shape[0], mass.size)
            or tgt.min() < 0
            or tgt.max() >= min(tp.shape[1], out.shape[-1])):
        raise IndexError("point-mass pairs index past their nodes, "
                         "targets or values")       # C indexes unchecked
    # the arrays stay bound (a copy must live through the call)
    tp, *targets = _strided(tp)
    com, *coms = _strided(com)
    out_s0, out_s1 = (0, *out.strides)[-2:]     # potentials: one row
    rc = LIB.point_masses(out.ctypes.data, out_s0 // 8, out_s1 // 8,
                          nodes.ctypes.data, tgt.ctypes.data, tgt.size, d,
                          *targets, *coms, mass.ctypes.data, force, soft2,
                          -kernels.G)
    if rc != 0:
        raise ValueError(f"the point-mass kernel takes d = 2 or 3, got {d}")


def _p2p_group(out: np.ndarray, tgt: np.ndarray, starts: np.ndarray,
               rows: np.ndarray, ns: int, tp: np.ndarray, sp: np.ndarray,
               sm: np.ndarray | None, force: bool, soft2: float,
               scale: float) -> None:
    """One leaf-size group of the P2P pass, added into ``out``
    (potentials, or ``(d, n)`` force columns) in place by the C kernel
    (``_kernels.c``).  The group's rows come in visits: ``rows[v]`` rows
    against the ``ns`` sources from ``starts[v]`` on.  ``tp`` / ``sp``
    hold target and source coordinates ``(d, .)``, any strides; ``sm``
    the source masses (``None``: uniform)."""
    d = sp.shape[0]
    _check_out(out, force, d, "P2P")
    tgt, starts, rows = (np.ascontiguousarray(a, dtype=np.intp)
                         for a in (tgt, starts, rows))
    n_src = sp.shape[1] if sm is None else min(sp.shape[1], len(sm))
    if tgt.size and (tp.shape[0] != d or tgt.min() < 0
                     or tgt.max() >= min(tp.shape[1], out.shape[-1])
                     or starts.size != rows.size or starts.min() < 0
                     or starts.max() + ns > n_src
                     or rows.sum() != tgt.size):    # C indexes unchecked
        raise IndexError("P2P group rows index past their targets, "
                         "sources or values")
    # the arrays stay bound (a copy must live through the call)
    tp, *targets = _strided(tp)
    sp, *sources = _strided(sp)
    if sm is not None:          # contiguous on every path: no stride
        sm = np.ascontiguousarray(sm, dtype=np.float64)
    out_s0, out_s1 = (0, *out.strides)[-2:]     # potentials: one row
    rc = LIB.p2p_group(out.ctypes.data, out_s0 // 8, out_s1 // 8,
                       tgt.ctypes.data, starts.ctypes.data, rows.ctypes.data,
                       rows.size, ns, d, *targets, *sources,
                       None if sm is None else sm.ctypes.data, force, soft2,
                       scale)
    if rc != 0:
        raise ValueError(f"the P2P kernel takes d = 2 or 3, got {d}")


def _p2p_pass(values: np.ndarray, targets: np.ndarray, groups: list,
              layout: tuple | None, mode: str, softening: float) -> None:
    """Every leaf-size group, one kernel call each, added into
    ``values`` in group order."""
    if not groups:
        return
    sp, sm, scale = layout
    for tgt, starts, rows, ns in groups:
        _p2p_group(values, tgt, starts, rows, ns, targets, sp, sm,
                   mode == "force", softening ** 2, scale)


def evaluate_pairs(values: np.ndarray, targets: np.ndarray,
                   cluster_node: np.ndarray, cluster_tgt: np.ndarray,
                   evaluator, groups: list, layout: tuple | None,
                   mode: str, softening: float) -> None:
    """Both fused passes of every force path, accumulated onto
    ``values`` — potentials ``(n,)`` or force columns ``(d, n)`` — for
    the ``(d, n)`` target columns ``targets``: ``evaluator`` over pairs
    ``(cluster_node[i], cluster_tgt[i])``, and the
    :func:`group_leaf_visits` groups, whose source ``j`` of visit ``v``
    is element ``starts[v] + j`` of the :func:`source_layout`
    ``layout``."""
    _cluster_pass(values, targets, cluster_node, cluster_tgt, evaluator,
                  mode)
    _p2p_pass(values, targets, groups, layout, mode, softening)


def evaluate_interaction_lists(tree: Tree, lists: InteractionLists,
                               sources, evaluator,
                               mode: str = "potential",
                               softening: float = 0.0,
                               count_node_interactions: bool = False,
                               target_weights: np.ndarray | None = None
                               ) -> TraversalResult:
    """The evaluation pass: fused kernels over prebuilt lists.

    Produces a :class:`TraversalResult` with the same values (to fp
    accumulation order), the identical counters, the identical per-node
    DPDA interaction counts, and the identical per-target weight
    attribution as the classical traversal would; forces come back as
    ``(nt, d)`` rows.

    ``sources`` is the particle set, or its :func:`_source_layout` (a
    streamed batch lays its sources out once, not once per chunk).
    """
    values = _zeros(mode, lists.d, lists.nt)
    result = _evaluate(values, tree, lists, sources, evaluator, mode,
                       softening, count_node_interactions, target_weights)
    result.values = values if values.ndim == 1 else values.T.copy()
    return result


def _evaluate(values: np.ndarray, tree: Tree, lists: InteractionLists,
              sources, evaluator, mode: str, softening: float,
              count_node_interactions: bool,
              target_weights: np.ndarray | None) -> TraversalResult:
    """:func:`evaluate_interaction_lists` accumulating onto ``values``
    (potentials, or ``(d, nt)`` force columns); the result carries the
    counters and the remote map."""
    nt = lists.nt
    result = TraversalResult(
        values=values, mac_tests=lists.mac_tests,
        cluster_interactions=lists.cluster_interactions,
        p2p_interactions=lists.p2p_interactions,
        remote_targets=dict(lists.remote_targets),
    )
    if nt == 0:
        return result
    layout = None
    if lists.p2p_groups:
        if sources is None:
            raise ValueError("tree has local leaves but no source "
                             "particles were provided")
        layout = _source_layout(tree, sources)
    evaluate_pairs(values, lists.target_cols, lists.cluster_node,
                   lists.cluster_tgt, evaluator, lists.p2p_groups, layout,
                   mode, softening)

    if count_node_interactions:
        # A leaf visited by m targets costs m * leaf_count pairs.
        np.add.at(tree.interactions, lists.cl_nodes, lists.cl_rows)
        np.add.at(tree.interactions, lists.leaf_nodes,
                  lists.leaf_rows * lists.leaf_ns)
    if target_weights is not None:
        per_cluster = interaction_flops(getattr(evaluator, "degree", 0))
        p2p_sources = np.zeros(nt, dtype=np.int64)
        for tgt, *_, ns in lists.p2p_groups:
            p2p_sources += ns * np.bincount(tgt, minlength=nt)
        # All three contributions are integer-valued floats, so this is
        # exactly equal to the classical per-visit accumulation.
        target_weights += (FLOPS_PER_MAC * lists.mac_per_target
                           + per_cluster * np.bincount(lists.cluster_tgt,
                                                       minlength=nt)
                           + interaction_flops(0) * p2p_sources)
    return result


# ------------------------------------------------------------------ engine
class TraversalEngine:
    """Streamed traversal over one tree: walk, evaluate, drop.

    ``walks_built`` counts :meth:`compute` calls, ``stream_chunks`` the
    chunks they evaluated, ``lists_peak_bytes`` the most list bytes one
    chunk held.
    """

    def __init__(self, tree: Tree, sources=None, mac=None,
                 softening: float = 0.0):
        self.tree = tree
        self.sources = sources
        self.mac = mac
        self.softening = softening
        self.walks_built = 0
        self.stream_chunks = 0
        self.lists_peak_bytes = 0

    def compute(self, target_positions: np.ndarray, evaluator,
                mode: str = "potential",
                count_node_interactions: bool = False,
                target_weights: np.ndarray | None = None
                ) -> TraversalResult:
        """Per chunk of :data:`STREAM_CHUNK_TARGETS` of the ``(n, d)``
        targets, walk, evaluate, drop the lists; the batch counts once
        in ``walks_built``.  The targets are transposed once into the
        ``(d, n)`` columns every pass reads.  Per-target decisions are
        independent, so chunks merge exactly (remote indices re-based,
        chunks ascending); only fp summation order differs from one
        whole-batch walk.

        ``evaluator`` is the tree's far field through ``point_masses``
        or ``batch_potential`` (:class:`~repro.bh.multipole.MonopoleExpansion`
        or :class:`~repro.bh.multipole.TreeMultipoles`);
        ``count_node_interactions`` adds per-node interaction counts
        into ``tree.interactions`` (the DPDA load measure);
        ``target_weights`` accumulates each target's share of the
        traversal cost in model flops (the balancers' requester-side
        load)."""
        _check_mac(self.mac)
        targets = np.atleast_2d(
            np.asarray(target_positions, dtype=np.float64))
        nt, d = targets.shape
        cols = np.ascontiguousarray(targets.T)
        values = _zeros(mode, d, nt)
        result = TraversalResult(values=values)
        remote: dict[int, list[np.ndarray]] = {}
        # once per batch: the sources' layout, the walk's node scalars
        layout = _source_layout(self.tree, self.sources)
        nodes = _walk_nodes(self.tree)
        # an empty batch still makes one (empty) pass: same validation
        for lo in range(0, max(nt, 1), STREAM_CHUNK_TARGETS):
            chunk = slice(lo, lo + STREAM_CHUNK_TARGETS)
            lists = _build_lists(self.tree, cols[:, chunk], self.mac.alpha,
                                 nodes)
            res = _evaluate(
                values[..., chunk], self.tree, lists, layout, evaluator,
                mode, self.softening, count_node_interactions,
                None if target_weights is None else target_weights[chunk])
            self.stream_chunks += 1
            self.lists_peak_bytes = max(self.lists_peak_bytes, lists.nbytes())
            result.merge_counters(res)
            for node, tgts in res.remote_targets.items():
                remote.setdefault(node, []).append(tgts + lo)
            del lists, res      # dropped before the next chunk is walked
        result.remote_targets = {n: np.concatenate(remote[n])
                                 for n in sorted(remote)}
        if values.ndim == 2:
            result.values = values.T.copy()
        self.walks_built += 1
        return result
