"""The traversal engine: one C walk that decides and evaluates.

:meth:`TraversalEngine.compute`, every force path's traversal but data
shipping's, is one call of ``walk`` in ``_kernels.c``
(:mod:`repro.bh.native`) over the whole target batch: a batched
depth-first descent over (node, target list) pairs, the lists held in
one index arena.  At each node it does the MAC on the node's targets,
adds the point-mass term of each that accepts, runs the lane-major P2P
rows of a leaf visit, and records the targets of a remote leaf; it
counts MAC tests, clusters and P2P sources per target and per node.
Only a degree >= 1 potential leaves the walk: its cluster pairs come
back in list order for the numpy series (:func:`_series_pass`), a
bounded buffer at a time.  Each target sums its terms in visit order,
which does not depend on the rest of the batch, and a call over targets
``[lo, hi)`` writes only their values and counts.

:func:`evaluate_pairs` — the point-mass and P2P kernels over listed
pairs and leaf-size groups of leaf visits (:func:`group_leaf_visits`) —
is data shipping's evaluation.  :func:`build_interaction_lists` (the
same walk in numpy, its records kept as :class:`InteractionLists`) and
:func:`evaluate_interaction_lists` remain for the benchmark's list
probes only.

Every pass reads targets as one C-contiguous ``(d, n)`` block of
coordinate columns, transposed once per batch; the kernels read and
write columns through their element strides.  The public entry points
keep ``(n, d)`` targets and values.

Exactness contract: the walk applies the MAC with the same
floating-point operations as :class:`~repro.bh.mac.BarnesHutMAC.accept`
(its squared distance is :func:`~repro.bh.mac.sq_norm`'s, whose pairing
is that of ``einsum`` on ``(n, d)`` rows, and its inside-the-cell veto
runs only on targets within reach of the node's COM — no other target
can be inside), and per-target decisions are independent of how targets
are batched, so the interaction *sets* — and therefore ``mac_tests``,
``cluster_interactions``, ``p2p_interactions``, the per-node DPDA
counters, and the per-target weight attribution — are identical to the
classical traversal.  Only the order of floating-point sums differs,
which perturbs values at the 1e-15 level.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.analysis.flops import FLOPS_PER_MAC, interaction_flops, \
    traversal_flops
from repro.bh import kernels
from repro.bh.native import LIB, Walk
from repro.bh.mac import BarnesHutMAC, sq_norm
from repro.bh.tree import NO_CHILD, Tree

#: Bound on the working set of the degree >= 1 potential pass, the one
#: numpy pass (bytes of live temporaries per chunk of
#: :func:`~repro.bh.multipole.m2p` pairs); it also sizes the walk's pair
#: buffer.  A chunk that fits in the last-level cache makes the later
#: passes over it cache hits.  A different value regroups the series
#: pass's partial sums.  Read at call time.
DEFAULT_WORKING_SET_BYTES = 4 * 2 ** 20


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
    ``tested_ok`` — are built when first read.
    """

    target_cols: np.ndarray        # (d, nt) target columns the walk used
    nt: int
    d: int
    cluster_node: np.ndarray       # (ncluster,) int64 node ids
    cluster_tgt: np.ndarray        # (ncluster,) int64 target indices
    remote_targets: dict[int, np.ndarray]
    mac_tests: int
    p2p_interactions: int
    # leaf visits as one ``(tgt, starts, rows, ns)`` group per source
    # count (:func:`group_leaf_visits`): per row its target, per visit
    # its slice start in the tree-ordered sources and its row count
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


def _reach(tree: Tree) -> np.ndarray:
    """How far from its COM a point inside a node's cell can lie (the
    factor covers rounding): the inside-the-cell veto's reach.  Computed
    per walk, never kept: the monopole pass rewrites COMs in place under
    a reused tree."""
    return (tree.half * np.sqrt(tree.center.shape[1])
            + np.linalg.norm(tree.com - tree.center, axis=1)) * (1 + 1e-9)


def _walk_dfs(tree: Tree, cols: np.ndarray, alpha: float):
    """The batched depth-first descent in numpy, the list probes' walk
    (the C walk's decisions and visit order): a Python stack of (node,
    target indices, their ``(d, m)`` coordinate columns) triples, node
    data read as scalars, COM and cell centre as ``(d, 1)`` columns.
    The children of an opened node share one gather.  Returns the
    per-visit records: accepting nodes and their targets, visited leaves
    and theirs, remote visits by node, MAC-tested nodes, their targets
    and decisions."""
    cls, half, reach = (a.tolist() for a in (
        _node_classes(tree), tree.half, _reach(tree)))
    com, center = tree.com[:, :, None], tree.center[:, :, None]
    children = tree.children

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
    """The numpy walk (:func:`_walk_dfs`) over ``(n, d)`` targets, its
    records kept as :class:`InteractionLists`, no kernel evaluated: the
    C walk's decisions, counters and remote bins, for the benchmark's
    list probes.  Any other MAC object than the stock
    :class:`BarnesHutMAC` (a subclass included: its ``accept`` would
    never be called) is a ``TypeError``."""
    _check_mac(mac)
    targets = np.atleast_2d(np.asarray(target_positions, dtype=np.float64))
    cols = np.ascontiguousarray(targets.T)
    d, nt = cols.shape
    if nt == 0 or tree.nnodes == 0:
        walk = [], [], [], [], {}, [], [], []
    else:
        walk = _walk_dfs(tree, cols, mac.alpha)
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


def _check_mac(mac) -> None:
    if type(mac) is not BarnesHutMAC:
        raise TypeError(
            "the walk inlines the stock BarnesHutMAC criterion; got "
            f"{type(mac).__name__}")


# -------------------------------------------------------------- evaluation
def _zeros(mode: str, d: int, nt: int) -> np.ndarray:
    """The accumulator of ``nt`` potentials, or of forces as ``(d, nt)``
    columns."""
    if mode not in ("potential", "force"):
        raise ValueError(f"mode must be 'potential' or 'force', got {mode!r}")
    return np.zeros(nt) if mode == "potential" else np.zeros((d, nt))


def _point_masses_of(evaluator, mode: str) -> tuple | None:
    """``(com, mass, softening)`` of the evaluator, ``None``: a series."""
    point = getattr(evaluator, "point_masses", None)
    if point is None:
        raise TypeError(f"{type(evaluator).__name__} lacks the cluster "
                        "interface (point_masses)")
    return point(mode)


def _series_pass(values: np.ndarray, targets: np.ndarray, nodes: np.ndarray,
                 tgt: np.ndarray, evaluator) -> None:
    """The degree >= 1 potential of pairs ``(nodes[i], tgt[i])``, the
    evaluator's ``batch_potential`` series, added into ``values`` in
    chunks of :data:`DEFAULT_WORKING_SET_BYTES`."""
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
    evaluation call and never kept: block stepping moves sources under a
    reused tree."""
    if sources is None:
        return None
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


def evaluate_pairs(values: np.ndarray, targets: np.ndarray,
                   cluster_node: np.ndarray, cluster_tgt: np.ndarray,
                   evaluator, groups: list, layout: tuple | None,
                   mode: str, softening: float) -> None:
    """Data shipping's evaluation onto ``values`` (potentials, or ``(d,
    n)`` force columns) at the ``(d, n)`` columns ``targets``: the pairs
    ``(cluster_node[i], cluster_tgt[i])`` by one :func:`_point_masses`
    call (:func:`_series_pass` without point masses), then one
    :func:`_p2p_group` call per :func:`group_leaf_visits` group over the
    :func:`source_layout` ``layout``."""
    force = mode == "force"
    if cluster_tgt.size:
        masses = _point_masses_of(evaluator, mode)
        if masses is None:
            _series_pass(values, targets, cluster_node, cluster_tgt,
                         evaluator)
        else:
            com, mass, pm_softening = masses
            _point_masses(values, cluster_node, cluster_tgt, targets, com,
                          mass, force, pm_softening ** 2)
    for tgt, starts, rows, ns in groups:
        sp, sm, scale = layout
        _p2p_group(values, tgt, starts, rows, ns, targets, sp, sm, force,
                   softening ** 2, scale)


def _weights(mac: np.ndarray, clusters: np.ndarray, sources: np.ndarray,
             evaluator) -> np.ndarray:
    """Each target's share of the traversal cost in model flops, from its
    MAC tests, cluster interactions and P2P sources.  All three terms
    are integer-valued floats, so this is exactly the classical
    per-visit accumulation."""
    return (FLOPS_PER_MAC * mac
            + interaction_flops(getattr(evaluator, "degree", 0)) * clusters
            + interaction_flops(0) * sources)


def evaluate_interaction_lists(tree: Tree, lists: InteractionLists,
                               sources, evaluator,
                               mode: str = "potential",
                               softening: float = 0.0,
                               count_node_interactions: bool = False,
                               target_weights: np.ndarray | None = None
                               ) -> TraversalResult:
    """The evaluation pass over prebuilt lists (:func:`evaluate_pairs`).

    The :class:`TraversalResult`, per-node counts and target weights of
    :meth:`TraversalEngine.compute`, values to summation order; forces
    as ``(nt, d)`` rows.  ``sources`` is the particle set.  Kept for
    the benchmark's list probes."""
    nt = lists.nt
    values = _zeros(mode, lists.d, nt)
    result = TraversalResult(
        values=values, mac_tests=lists.mac_tests,
        cluster_interactions=lists.cluster_interactions,
        p2p_interactions=lists.p2p_interactions,
        remote_targets=dict(lists.remote_targets),
    )
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
        p2p_sources = np.zeros(nt, dtype=np.int64)
        for tgt, *_, ns in lists.p2p_groups:
            p2p_sources += ns * np.bincount(tgt, minlength=nt)
        target_weights += _weights(
            lists.mac_per_target, np.bincount(lists.cluster_tgt,
                                              minlength=nt),
            p2p_sources, evaluator)
    if values.ndim == 2:
        result.values = values.T.copy()
    return result


# ------------------------------------------------------------------ engine
def _counts(a: np.ndarray, shape: tuple) -> bool:
    """Whether C can add counts into ``a`` in place."""
    return a.shape == shape and a.dtype == np.int64 and a.flags.carray


def _walk(tree: Tree, cols: np.ndarray, alpha: float, values: np.ndarray,
          counts: np.ndarray, layout: tuple | None, evaluator, mode: str,
          softening: float, node_count: np.ndarray | None, lo: int,
          hi: int) -> TraversalResult:
    """Targets ``lo:hi`` of the ``(d, nt)`` columns ``cols`` through the
    C ``walk``: terms into ``values`` (potentials, or ``(d, nt)`` force
    columns), MAC tests, clusters and P2P sources per target into the
    ``(3, nt)`` ``counts``, in columns ``lo:hi`` only, and per-node
    counts into ``node_count`` unless ``None``.  Without point masses the
    pairs go to :func:`_series_pass` in list order, a buffer at a time."""
    d, nt = cols.shape
    force = mode == "force"
    _check_out(values, force, d, "walk")
    masses = _point_masses_of(evaluator, mode)
    if (not 0 <= lo <= hi <= nt or values.shape[-1] != nt
            or tree.com.shape[1] != d or tree.center.shape[1] != d
            or {len(a) for a in (tree.com, tree.center, tree.half, tree.start,
                                 tree.end)} != {tree.nnodes}
            or not _counts(counts, (3, nt)) or node_count is not None
            and not _counts(node_count, (tree.nnodes,))):
        raise IndexError("walk targets, counts or nodes index past their "
                         "arrays")
    m, cls = hi - lo, _node_classes(tree)
    # a live target list per level of the current path, each <= m long
    levels = int(tree.depth.max() - tree.depth[Tree.ROOT]) + 1 \
        if tree.nnodes else 1
    nchild, nremote = tree.children.shape[1], int(np.sum(cls == 2))
    index = dict(children=tree.children, start=tree.start, end=tree.end,
                 node_count=node_count, counts=counts,
                 arena=np.empty(m * levels, np.intp),
                 stack=np.empty(3 * (nchild * levels + 1), np.intp),
                 rem_node=np.empty(nremote, np.intp),
                 rem_len=np.empty(nremote, np.intp),
                 rem_tgt=np.empty(nremote * m, np.intp))
    floats = dict(half=tree.half, reach=_reach(tree))
    strided = dict(com=tree.com, center=tree.center, tp=cols, out=values)
    fields = dict(cls=cls.ctypes.data, nnodes=tree.nnodes, nchild=nchild,
                  d=d, alpha=alpha, lo=lo, hi=hi, force=force, counts_s0=nt,
                  neg_g=-kernels.G, soft2=softening ** 2)
    if layout is not None:
        strided["sp"], floats["sm"], fields["scale"] = layout
        fields["nsrc"] = min(len(a) for a in (layout[0][0], layout[1])
                             if a is not None)
        if layout[0].shape[0] != d:
            raise IndexError("walk sources and targets differ in dimension")
    if masses is not None:
        strided["pm_com"], floats["pm_mass"], pm_softening = masses
        fields["pm_soft2"] = pm_softening ** 2
        if min(len(masses[0]), len(masses[1])) < tree.nnodes \
                or masses[0].shape[1] != d:
            raise IndexError("point masses index past their nodes")
    else:
        cap = max(m, DEFAULT_WORKING_SET_BYTES // evaluator.batch_row_bytes)
        index.update(pair_node=np.empty(cap, np.intp),
                     pair_tgt=np.empty(cap, np.intp))
    arrays = {name: np.ascontiguousarray(a, dtype=np.intp)
              for name, a in index.items() if a is not None}
    arrays.update((name, np.ascontiguousarray(a, dtype=np.float64))
                  for name, a in floats.items() if a is not None)
    fields.update((name, a.ctypes.data) for name, a in arrays.items())
    fields.update((name + "_cap", arrays[name].size) for name in (
        "arena", "stack", "rem_node", "rem_tgt", "pair_tgt") if name in arrays)
    for name, a in strided.items():
        arrays[name], fields[name], *strides = _strided(a)
        fields[name + "_s0"], fields[name + "_s1"] = (0, *strides)[-2:]
    w = Walk(**fields)
    while (rc := LIB.walk(ctypes.byref(w))) == 1 or w.npairs:
        _series_pass(values, cols, arrays["pair_node"][:w.npairs],
                     arrays["pair_tgt"][:w.npairs], evaluator)
        w.npairs = 0
        if rc != 1:
            break
    if rc == -4:
        raise ValueError("tree has local leaves but no source particles "
                         "were provided")
    if rc != 0:
        raise RuntimeError(f"the walk refused its tree or overran its "
                           f"arena (code {rc})")
    # One visit per remote node, its targets ascending: sorted keys,
    # sorted contents, whatever the visit order.
    visits = np.split(arrays["rem_tgt"][:w.nrem_tgt],
                      np.cumsum(arrays["rem_len"][:w.nrem])[:-1])
    return TraversalResult(
        values=values, mac_tests=w.mac_tests,
        cluster_interactions=w.clusters, p2p_interactions=w.p2p,
        remote_targets=dict(sorted(zip(arrays["rem_node"][:w.nrem].tolist(),
                                       visits))))


class TraversalEngine:
    """One tree's traversal: :meth:`compute` walks and evaluates a
    target batch in one C call.  ``walks_built`` counts the calls."""

    def __init__(self, tree: Tree, sources=None, mac=None,
                 softening: float = 0.0):
        self.tree = tree
        self.sources = sources
        self.mac = mac
        self.softening = softening
        self.walks_built = 0

    def compute(self, target_positions: np.ndarray, evaluator,
                mode: str = "potential",
                count_node_interactions: bool = False,
                target_weights: np.ndarray | None = None
                ) -> TraversalResult:
        """The ``(n, d)`` targets, transposed once into ``(d, n)``
        columns, walked and evaluated by one :func:`_walk`.

        ``evaluator`` is the tree's far field through ``point_masses``
        (:class:`~repro.bh.multipole.MonopoleExpansion` or
        :class:`~repro.bh.multipole.TreeMultipoles`);
        ``count_node_interactions`` adds per-node interaction counts
        into ``tree.interactions`` (the DPDA load measure);
        ``target_weights`` accumulates each target's share of the
        traversal cost in model flops (the balancers' requester-side
        load)."""
        _check_mac(self.mac)
        targets = np.atleast_2d(np.asarray(target_positions, dtype=float))
        nt, d = targets.shape
        cols = np.ascontiguousarray(targets.T)
        values = _zeros(mode, d, nt)
        counts = np.zeros((3, nt), dtype=np.int64)
        result = _walk(self.tree, cols, self.mac.alpha, values, counts,
                       _source_layout(self.tree, self.sources), evaluator,
                       mode, self.softening,
                       self.tree.interactions if count_node_interactions
                       else None, 0, nt)
        if target_weights is not None:
            target_weights += _weights(*counts, evaluator)
        if values.ndim == 2:
            result.values = values.T.copy()
        self.walks_built += 1
        return result
