"""Branch-node summaries, keys, and the two lookup schemes.

A *branch node* is the root of a wholly-owned subtree — "the processor
domains at the coarsest level" (Section 3.1.1).  Every branch node gets a
unique integer key; remote interaction requests carry the key, and the
receiving processor locates the subtree through either

* a **hash table** of keys (with real fixed-size buckets and chains, so
  the collision behaviour the paper discusses is observable), or
* a **sorted table** of keys searched by binary search,

the two schemes of Section 4.2.3 (which the paper found indistinguishable
because each lookup amortises over a whole subtree evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partition import Cell


def branch_key(cell: Cell, dims: int) -> int:
    """Unique integer key of a cell across *all* depths.

    The path key alone is ambiguous (cell 0 exists at every depth); the
    standard fix is the "anchored" key: prepend a 1-bit above the path —
    ``key = path_key | 1 << (dims * depth)``.  Keys of different cells
    never collide and the key encodes the cell exactly.
    """
    return cell.path_key | (1 << (dims * cell.depth))


def anchored_keys(depth: np.ndarray, path_key: np.ndarray,
                  dims: int) -> np.ndarray:
    """:func:`branch_key` of the cells ``(depth, path_key)``, as
    ``uint64``: at depth 21 in 3-D the anchor is bit 63."""
    shift = np.uint64(dims) * depth.astype(np.uint64)
    return (np.uint64(1) << shift) | path_key.astype(np.uint64)


@dataclass
class BranchInfo:
    """What one processor publishes about one of its branch nodes.

    ``coeffs`` carries the multipole expansion about the cell center when
    the run uses multipoles (the tree merge shifts it with M2M); for
    monopole runs it is ``None`` and ``mass``/``com`` suffice.
    """

    key: int
    owner: int
    cell: Cell
    count: int
    mass: float
    com: np.ndarray
    coeffs: np.ndarray | None = None
    #: measured interactions under this branch last step (DPDA input)
    load: float = 0.0

    def wire_bytes(self, degree: int, dims: int = 3) -> int:
        """Bytes this summary occupies in the branch broadcast."""
        base = 8 + 4 + 4 + 8 + 4 * dims  # key, owner, count, mass, com
        if self.coeffs is not None:
            base += 8 * self.coeffs.size  # complex64 pairs on the wire
        return base

    @property
    def nbytes(self) -> int:
        """Wire size; picked up by the communicator's payload estimator
        so collectives carrying branch summaries are charged truthfully."""
        return self.wire_bytes(degree=0, dims=int(np.size(self.com)))


class SortedBranchIndex:
    """Sorted key table + binary search (Section 4.2.3, scheme 2)."""

    def __init__(self, branches: list[BranchInfo]):
        self._branches = sorted(branches, key=lambda b: b.key)
        self._keys = np.array([b.key for b in self._branches],
                              dtype=np.int64)
        if self._keys.size > 1 and np.any(np.diff(self._keys) == 0):
            raise ValueError("duplicate branch keys")
        #: probes performed (comparisons), for the 4.2.3 micro-benchmark
        self.probes = 0

    def __len__(self) -> int:
        return len(self._branches)

    def lookup(self, key: int) -> BranchInfo:
        lo, hi = 0, self._keys.size
        while lo < hi:
            mid = (lo + hi) // 2
            self.probes += 1
            if self._keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < self._keys.size and self._keys[lo] == key:
            return self._branches[lo]
        raise KeyError(f"branch key {key} not present")

    def __iter__(self):
        return iter(self._branches)


class HashedBranchIndex:
    """Fixed-size hash table with chaining (Section 4.2.3, scheme 1).

    ``move_to_front`` orders chains by usage frequency — the paper's
    remedy for chaining overhead ("chained lists must be sorted on node
    usage to minimize this overhead").
    """

    def __init__(self, branches: list[BranchInfo],
                 n_buckets: int | None = None,
                 move_to_front: bool = True):
        keys = [b.key for b in branches]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate branch keys")
        self.n_buckets = n_buckets or max(1, len(branches))
        self.move_to_front = move_to_front
        self._buckets: list[list[BranchInfo]] = [
            [] for _ in range(self.n_buckets)
        ]
        self._all = list(branches)
        for b in branches:
            self._buckets[self._hash(b.key)].append(b)
        #: chain links traversed, for the 4.2.3 micro-benchmark
        self.probes = 0

    def _hash(self, key: int) -> int:
        # Fibonacci hashing: good spread for the structured branch keys.
        return ((key * 11400714819323198485) & ((1 << 64) - 1)) \
            % self.n_buckets

    def __len__(self) -> int:
        return len(self._all)

    def lookup(self, key: int) -> BranchInfo:
        chain = self._buckets[self._hash(key)]
        for i, b in enumerate(chain):
            self.probes += 1
            if b.key == key:
                if self.move_to_front and i > 0:
                    chain.insert(0, chain.pop(i))
                return b
        raise KeyError(f"branch key {key} not present")

    def __iter__(self):
        return iter(self._all)


def make_branch_index(branches: list[BranchInfo], kind: str):
    """Factory for the configured lookup scheme."""
    if kind == "hashed":
        return HashedBranchIndex(branches)
    if kind == "sorted":
        return SortedBranchIndex(branches)
    raise ValueError(f"unknown branch lookup kind {kind!r}")
