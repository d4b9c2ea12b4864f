"""Multipole acceptance criteria.

The Barnes-Hut criterion (paper, Section 2): "the ratio of the dimension
of the box to the distance of the point from the center of mass of the
box; if this ratio is less than some constant alpha, an interaction can
be computed".  Targets lying inside the box never accept (their distance
to the COM says nothing about separation).

Every MAC distance in the package — :meth:`BarnesHutMAC.accept`, the
numpy list walk, data shipping's mirror walk — comes from
:func:`sq_norm`, over offsets laid out as ``d`` coordinate columns; the
C walk and point-mass kernel pair their distances the same way.  That is
``einsum("ij,ij->i")``'s pairing on ``(n, d)`` rows, so decisions,
counters and values do not depend on the layout an offset arrives in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.tree import Tree


def sq_norm(diff) -> np.ndarray:
    """Squared length of offsets given as ``d`` coordinate columns (a
    ``(d, n)`` block or a sequence of ``d`` arrays): ``(dx*dx + dz*dz) +
    dy*dy`` in 3-D, ``dx*dx + dy*dy`` in 2-D.  That pairing is the one
    ``np.einsum("ij,ij->i", rows, rows)`` uses on ``(n, d)`` rows, so
    the two agree bit for bit (the left-to-right 3-D sum does not); a
    test pins it.  The C point-mass kernel restates it for its ``r^2``."""
    dx, dy, *dz = diff
    out = dx * dx
    if dz:
        out += dz[0] * dz[0]
    out += dy * dy
    return out


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
        """Boolean mask over ``(n, d)`` targets: True = interaction
        allowed.

        The walks (:mod:`repro.bh.interaction_lists`, the C one in
        ``_kernels.c``) inline these expressions on targets, running the
        inside-the-box veto only on targets that passed the distance
        test within ``half * sqrt(d) + |com - center|`` (plus a rounding
        margin) of the COM: no target farther away is inside the box."""
        targets = np.atleast_2d(targets)
        diff = targets - tree.com[node]
        dist = np.sqrt(sq_norm(diff.T))
        side = 2.0 * tree.half[node]
        ok = side < self.alpha * dist
        # Never accept from inside the box itself.
        inside = np.all(
            np.abs(targets - tree.center[node]) < tree.half[node], axis=1
        )
        return ok & ~inside
