"""The Kruskal-Weiss bound of Section 4.1.

For r independent subtasks with mean mu and standard deviation sigma,
allocated r/p at a time to p processors, the expected completion time is

    T_p ~= r mu / p + sigma sqrt(2 (r/p) log p)

The first term is essential work, the second is load-imbalance overhead.
Requiring the overhead to grow slower than the work yields the paper's
rule r >= p log p: Theta(log p) clusters per processor balance the load.
"""

from __future__ import annotations

import math


def expected_completion_time(r: int, p: int, mean: float,
                             std: float) -> float:
    """Kruskal-Weiss expected makespan for r tasks on p processors."""
    if r <= 0 or p <= 0:
        raise ValueError("r and p must be positive")
    if mean < 0 or std < 0:
        raise ValueError("mean and std must be non-negative")
    work = r * mean / p
    log_p = math.log(p) if p > 1 else 0.0
    overhead = std * math.sqrt(2.0 * (r / p) * log_p)
    return work + overhead


def min_clusters(p: int) -> int:
    """The paper's rule of thumb: r >= p log p clusters keep the
    imbalance term asymptotically below the work term."""
    if p <= 0:
        raise ValueError("p must be positive")
    if p == 1:
        return 1
    return math.ceil(p * math.log(p))
