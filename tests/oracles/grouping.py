"""The row sort the P2P grouping replaced, kept verbatim from
``repro.bh.interaction_lists``: one stable sort of every P2P row by its
leaf's source count, where ``group_leaf_visits`` sorts the leaf visits
and expands their rows afterwards."""

from __future__ import annotations

import numpy as np


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
