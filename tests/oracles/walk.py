"""The list-building descent as it stood before targets rode the stack,
kept verbatim from ``repro.bh.interaction_lists._walk_dfs`` as the
oracle of the walk that replaced it: one ``targets[idx]`` gather per
visited node, the inside-the-cell test on every node, a fancy ``+= 1``
per node for ``mac_per_target``.  Call it directly with the tree, the
targets, ``alpha``, ``il._node_classes(tree)`` and the root, as
``_assert_walk_equals_oracle`` in ``tests/bh/test_interaction_lists.py``
does, and compare its row arrays with the lists'.  ``on_visit``, when
given, sees the walk's events in visit order (the only change since):
``("test", node, idx)`` before a MAC test, ``("cluster", node, far)``
for the targets a node accepts, ``("leaf", node, idx)`` at a leaf."""

from __future__ import annotations

import numpy as np

from repro.bh.tree import NO_CHILD, Tree


def _concat(chunks: list[np.ndarray]) -> np.ndarray:
    if not chunks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(chunks)


def walk_dfs_reference(tree: Tree, targets: np.ndarray, alpha: float,
              cls: np.ndarray, start: int, on_visit=None):
    """The classical batched depth-first descent: a Python stack of
    (node, target-index-array) pairs, node data kept scalar."""
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
    mac_per_target = np.zeros(nt, dtype=np.int64)
    mac_tests = 0

    stack: list[tuple[int, np.ndarray]] = [(start, np.arange(nt))]
    while stack:
        node, idx = stack.pop()
        c = cls[node]
        if c:
            if c == 1:
                leaf_nodes.append(node)
                leaf_idx.append(idx)
                if on_visit:
                    on_visit("leaf", node, idx)
            elif c == 2:
                remote.setdefault(node, []).append(idx)
            continue
        if on_visit:
            on_visit("test", node, idx)
        mac_tests += idx.size
        mac_per_target[idx] += 1
        t = targets[idx]
        # Bit-for-bit the expressions of BarnesHutMAC.accept.
        diff = t - com[node]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        ok = (2.0 * half[node] < alpha * dist) \
            & ~np.all(np.abs(t - center[node]) < half[node], axis=1)
        tested_nodes.append(node)
        tested_idx.append(idx)
        tested_ok.append(ok)
        far = idx[ok]
        if far.size:
            cl_nodes.append(node)
            cl_idx.append(far)
            if on_visit:
                on_visit("cluster", node, far)
        near = idx[~ok]
        if near.size:
            row = children[node]
            for child in row[row != NO_CHILD]:
                stack.append((int(child), near))

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
    remote_pairs = {n: _concat(remote[n]) for n in remote}
    return (cluster_node, _concat(cl_idx), p2p_leaf, _concat(leaf_idx),
            remote_pairs, mac_tests, mac_per_target, tested)
