#!/usr/bin/env python
"""Barnes-Hut vs the fast multipole method (paper Section 2).

The paper's background section contrasts the two hierarchical methods:
Barnes-Hut computes particle-cluster interactions (O(n log n)); FMM adds
cluster-cluster interactions through local expansions (O(n)) and has
proven error bounds.  This example evaluates the same Plummer sphere's
potentials with both, against exact direct summation, showing the
accuracy/operator-count trade-off.

Usage: python examples/fmm_comparison.py [n_particles]
"""

import sys
import time

import numpy as np

from repro import (
    compute_potentials,
    direct_potentials,
    format_table,
    fractional_percent_error,
    plummer,
)

from fmm import fmm_potentials      # the package beside this script


def main(n: int = 2000) -> None:
    particles = plummer(n, seed=42)
    exact = direct_potentials(particles)
    rows = []

    for alpha in (0.5, 0.8):
        t0 = time.time()
        res = compute_potentials(particles, alpha=alpha, degree=0)
        rows.append([
            f"Barnes-Hut a={alpha}",
            fractional_percent_error(res.values, exact),
            res.cluster_interactions + res.p2p_interactions,
            time.time() - t0,
        ])

    for degree, theta in ((3, 0.7), (5, 0.7)):
        t0 = time.time()
        phi, stats = fmm_potentials(particles, degree=degree, theta=theta,
                                    return_stats=True)
        rows.append([
            f"FMM k={degree} theta={theta}",
            fractional_percent_error(phi, exact),
            stats.m2l_pairs + stats.p2p_pairs,
            time.time() - t0,
        ])

    print(format_table(
        ["method", "frac % error", "interactions/pairs", "wall (s)"],
        rows,
        title=f"Barnes-Hut vs FMM on a {n}-particle Plummer sphere",
        precision=4,
    ))
    print("\nNote: FMM pair counts are cell-cell operations (each worth "
          "O(k^4) flops),\nBarnes-Hut counts are particle-cluster/"
          "particle-particle interactions.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000)
