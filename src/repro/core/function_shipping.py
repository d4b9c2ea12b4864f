"""The function-shipping force-computation engine (Section 3.2).

Per time-step, per rank:

1. Every local particle traverses the replicated *top tree*.  MAC-accepted
   top nodes interact locally (their merged monopole/multipole data is
   replicated), through the same evaluator a local subtree's nodes use —
   softening included.  Traversals that reach a *branch leaf* either continue
   into the rank's own subtree (owner == self) or append a
   ``(coordinates, branch key)`` record to the owner's bin.
2. Bins ship as they fill; the one-outstanding-bin rule is tracked as
   flow-control stalls (see :mod:`repro.core.bins`).
3. Per-pair sentinel markers announce each sender's bin counts; every
   rank then has its whole *drain* — all incoming request bins — in
   hand, evaluates the entire subtree rooted at each requested branch
   once for all of the drain's records that name it, answers the bins
   in virtual-arrival order, each charged exactly the work its own
   records caused, and finally collects its own results.

The bin is the wire and flow-control unit, the drain the compute unit:
the walk's accept/open decisions are per target, so how targets are
batched moves no interaction counter and no virtual clock.  All
treecode work is charged to the virtual clock with the paper's own
instruction counts (:mod:`repro.analysis.flops`).

Every walk here is one ``TraversalEngine.compute``, a C call that keeps
nothing — Section 4.2.4's working-set argument: an owner caches no
remote data and a requester keeps nothing but its bins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.bh.interaction_lists import TraversalEngine
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
from repro.bh.particles import ParticleSet
from repro.bh.traversal import TraversalResult
from repro.bh.tree import Tree
from repro.core.bins import BinManager, RequestBin, ShipStats
from repro.core.config import SchemeConfig
from repro.core.tree_build import LocalSubtree
from repro.core.tree_merge import TopTree
from repro.machine.comm import Comm

#: flops charged per branch-index probe (compare + follow).
FLOPS_PER_PROBE = 2.0

PHASE_FORCE = "force computation"


@dataclass
class ForceResult:
    """Output of one rank's force phase."""

    values: np.ndarray          # (n_local,) potentials or (n_local, d)
    mac_tests: int = 0
    cluster_interactions: int = 0
    p2p_interactions: int = 0
    records_shipped: int = 0
    records_served: int = 0
    ship: ShipStats = field(default_factory=ShipStats)
    walks_built: int = 0        # interaction-list walks performed

    def merge(self, other: "ForceResult") -> None:
        """Add ``other``'s counters (not its values) into this result."""
        for name in ("mac_tests", "cluster_interactions", "p2p_interactions",
                     "records_shipped", "records_served", "walks_built"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for f in fields(ShipStats):
            setattr(self.ship, f.name,
                    getattr(self.ship, f.name) + getattr(other.ship, f.name))


class FunctionShippingEngine:
    """Binds one rank's trees and particles for the force phase."""

    def __init__(self, comm: Comm, config: SchemeConfig, top: TopTree,
                 subtrees: list[LocalSubtree], particles: ParticleSet):
        self.comm = comm
        self.config = config
        self.top = top
        self.particles = particles
        self.mac = BarnesHutMAC(config.alpha)
        self.subtree_by_key = {st.key: st for st in subtrees}
        self._mode = config.mode
        self._degree = config.degree
        self._top_engine = TraversalEngine(
            top.tree, None, self.mac, softening=config.softening)
        self.subtree_engines = {
            st.key: TraversalEngine(
                st.tree, st.particles, self.mac, softening=config.softening)
            for st in subtrees}

    def _walks_built(self) -> int:
        return sum(eng.walks_built
                   for eng in (self._top_engine,
                               *self.subtree_engines.values()))

    # ----------------------------------------------------------- evaluators
    def _evaluator(self, tree: Tree, multipoles: TreeMultipoles | None):
        """The far-field evaluator of any tree this rank walks, the top
        tree and a local subtree alike: the tree's degree-k series in a
        multipole run, else its softened point masses."""
        if self._degree > 0:
            return multipoles
        return MonopoleExpansion(tree, softening=self.config.softening)

    def _charge(self, res: TraversalResult) -> None:
        self.comm.compute(res.flops(self._degree))

    def _lookup_subtree(self, key: int) -> LocalSubtree:
        """Locate a branch by key through the configured index (charging
        its probes), then return the rank-local subtree record."""
        index = self.top.branch_index
        before = index.probes
        info = index.lookup(int(key))
        self.comm.compute(FLOPS_PER_PROBE * (index.probes - before))
        if info.owner != self.comm.rank:
            raise KeyError(
                f"branch {key} is owned by rank {info.owner}, not "
                f"{self.comm.rank}"
            )
        return self.subtree_by_key[int(key)]

    def _count(self, res: TraversalResult) -> None:
        if res.remote_targets:
            raise RuntimeError("local subtree contains remote leaves")
        self._result.mac_tests += res.mac_tests
        self._result.cluster_interactions += res.cluster_interactions
        self._result.p2p_interactions += res.p2p_interactions

    def _descend(self, key: int, coords: np.ndarray) -> np.ndarray:
        """Evaluate the rank's own subtree rooted at branch ``key`` for
        its own targets that reached it, charging the clock and the
        step's counters.  One call per own subtree per run (each
        top-tree branch leaf is a distinct key), on the requester's
        clock between its bin sends."""
        st = self._lookup_subtree(key)
        res = self.subtree_engines[key].compute(
            coords, self._evaluator(st.tree, st.multipoles),
            mode=self._mode, count_node_interactions=True,
        )
        self._count(res)
        self._charge(res)
        return res.values

    def _serve(self, bins: list[RequestBin]):
        """Owner-side service of one drain: ``bins`` is every incoming
        request bin in virtual-arrival order; yields each bin's values
        in that order (the :class:`BinManager` ``serve`` contract).

        All records naming one branch key are walked and evaluated
        together, once, whichever bins carried them.  Nothing reaches
        the clock until a bin's values are pulled: then, per key of
        that bin in ascending order, the index lookup and one separate
        compute charge of the model flops of *that bin's* records —
        the per-target weights are integer-valued, so their sum is
        exactly what walking the bin alone would have charged.
        """
        if not bins:
            return
        keys = np.concatenate([b.keys for b in bins])
        coords = np.concatenate([b.coords for b in bins])
        n = keys.size
        by_key = np.argsort(keys, kind="stable")
        groups = np.split(by_key, np.flatnonzero(np.diff(keys[by_key])) + 1)
        wanted = [int(keys[sel[0]]) for sel in groups]
        for key in wanted:
            if key not in self.subtree_by_key:
                # Not this rank's branch: fail through the index, whose
                # error names the true owner, before any walk starts.
                self._lookup_subtree(key)
        values = (np.zeros(n) if self._mode == "potential"
                  else np.zeros((n, coords.shape[1])))
        flops = np.zeros(n)
        for key, sel in zip(wanted, groups):
            weights = np.zeros(sel.size)
            st = self.subtree_by_key[key]
            res = self.subtree_engines[key].compute(
                coords.take(sel, axis=0),
                self._evaluator(st.tree, st.multipoles),
                mode=self._mode, count_node_interactions=True,
                target_weights=weights,
            )
            self._count(res)
            values[sel] = res.values
            flops[sel] = weights
        lo = 0
        for b in bins:
            hi = lo + b.n
            bin_keys, inverse = np.unique(b.keys, return_inverse=True)
            charges = np.bincount(inverse, weights=flops[lo:hi])
            for key, charge in zip(bin_keys, charges):
                self._lookup_subtree(int(key))
                self.comm.compute(float(charge))
            yield values[lo:hi]
            lo = hi

    # ------------------------------------------------------------- main run
    def run(self, targets_idx: np.ndarray | None = None) -> ForceResult:
        """Compute values for all local particles, or — with
        ``targets_idx`` (indices into the rank's particle arrays) — for
        just that active subset.  ``values`` is always full-size; rows
        outside the subset stay zero.  The bin protocol and its
        collectives run either way, so every rank must call ``run``
        each round even with an empty subset.
        """
        comm, cfg = self.comm, self.config
        n = self.particles.n
        d = self.particles.dims if n else self.top.tree.dims
        tidx = (np.arange(n) if targets_idx is None
                else np.asarray(targets_idx, dtype=np.int64))
        nt = tidx.size
        values = np.zeros(n) if self._mode == "potential" else np.zeros((n, d))
        self._result = ForceResult(values=values)
        built0 = self._walks_built()

        returned: list[tuple[np.ndarray, np.ndarray]] = []
        bins = BinManager(
            comm, cfg.bin_capacity, d, serve=self._serve,
            accumulate=lambda slots, vals: returned.append((slots, vals)))

        #: requester-side cost (model flops) attributed to each local
        #: particle by the top-tree walk; load balancers add it to the
        #: subtree loads so the *whole* per-step cost is balanced.
        self.requester_flops = np.zeros(n)

        with comm.phase(PHASE_FORCE):
            if nt:
                weights = np.zeros(nt)
                top_res = self._top_engine.compute(
                    self.particles.positions.take(tidx, axis=0),
                    self._evaluator(self.top.tree, self.top.multipoles),
                    mode=self._mode, target_weights=weights,
                )
                self.requester_flops[tidx] += weights
                values[tidx] += top_res.values
                self._charge(top_res)
                self._result.mac_tests += top_res.mac_tests
                self._result.cluster_interactions += \
                    top_res.cluster_interactions
                # Local branches: descend into own subtrees.  Remote
                # branches: bin the records, serving opportunistically.
                for node, sub in sorted(top_res.remote_targets.items()):
                    owner = int(self.top.tree.remote_owner[node])
                    key = int(self.top.tree.remote_key[node])
                    idx = tidx[sub]
                    if owner == comm.rank:
                        values[idx] += self._descend(
                            key, self.particles.positions.take(idx, axis=0))
                    else:
                        bins.add_requests(
                            owner, idx,
                            np.full(idx.size, key, dtype=np.int64),
                            self.particles.positions.take(idx, axis=0),
                        )
            bins.complete()
            if returned:
                # Result bins in the order they were received.  A local
                # particle has one record per branch key it shipped, in
                # one bin or several, so the unbuffered scatter-add is
                # required — plain fancy-index += would collapse
                # duplicate slots to a single addition.
                np.add.at(values,
                          np.concatenate([s for s, _ in returned]),
                          np.concatenate([v for _, v in returned]))

        self._result.records_shipped = bins.stats.request_records_sent
        self._result.records_served = bins.records_served
        self._result.ship = bins.stats
        self._result.walks_built = self._walks_built() - built0
        comm.metrics.counter("force.walks_built").inc(
            self._result.walks_built)
        return self._result
