"""Multipole acceptance criteria.

The Barnes-Hut criterion (paper, Section 2): "the ratio of the dimension
of the box to the distance of the point from the center of mass of the
box; if this ratio is less than some constant alpha, an interaction can
be computed".  Targets lying inside the box never accept (their distance
to the COM says nothing about separation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.tree import Tree


@dataclass(frozen=True)
class BarnesHutMAC:
    """The alpha criterion: accept iff ``side / dist(COM) < alpha``.

    ``alpha`` is the paper's opening parameter (0.67, 0.8, 1.0 in the
    experiments).  Smaller alpha = stricter = more accurate = slower.
    """

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def accept(self, tree: Tree, node: int,
               targets: np.ndarray) -> np.ndarray:
        """Boolean mask over targets: True = interaction allowed.

        The list-building walk (:mod:`repro.bh.interaction_lists`)
        inlines these expressions, running the inside-the-box veto only
        on targets that passed the distance test within
        ``half * sqrt(d) + |com - center|`` (plus a rounding margin) of
        the COM: no target farther away is inside the box."""
        targets = np.atleast_2d(targets)
        diff = targets - tree.com[node]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        side = 2.0 * tree.half[node]
        ok = side < self.alpha * dist
        # Never accept from inside the box itself.
        inside = np.all(
            np.abs(targets - tree.center[node]) < tree.half[node], axis=1
        )
        return ok & ~inside

    def flops_per_test(self) -> int:
        """The paper's instruction count: 14 flops per MAC evaluation."""
        return 14
