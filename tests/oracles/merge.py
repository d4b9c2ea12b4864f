"""The quadratic branch-disjointness scan, kept verbatim from
``repro.core.tree_merge`` as the oracle for its sorted adjacent-pair
scan."""

from __future__ import annotations

from repro.core.branch_nodes import BranchInfo


def check_disjoint_reference(branches: list[BranchInfo], dims: int) -> None:
    for i, a in enumerate(branches):
        for b in branches[i + 1:]:
            if a.cell.contains_cell(b.cell, dims) or \
                    b.cell.contains_cell(a.cell, dims):
                raise ValueError(
                    f"branch cells overlap: {a.cell} (rank {a.owner}) and "
                    f"{b.cell} (rank {b.owner})"
                )
