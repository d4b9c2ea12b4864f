"""Power-of-two block timesteps with incremental tree repair.

The global-dt loop evaluates every force every step; with individual
timesteps (Valdarnini's parallel treecode, Dubinski's hierarchical
scheme) each particle integrates on its own power-of-two subdivision of
the macro step, so most substeps touch only a small *active bin-set* —
and the tree work shrinks to match via :mod:`repro.bh.tree_repair`.
Force walks are streamed: a substep's finishers have always just
drifted, so no target batch is ever presented twice and there is no
walk worth keeping.

Scheme (standard block-KDK):

- Rung ``r`` integrates with ``dt_r = dt / 2^r``; a macro step runs
  ``2^(R-1)`` substeps where ``R`` is the deepest occupied rung.
- Substep ``j``: every particle whose rung period divides ``j``
  *starts* a step — opening half-kick with its stored acceleration,
  then a full ``dt_r`` drift.  Every particle whose period divides
  ``j + 1`` *finishes* — fresh force walk over just the finishers,
  closing half-kick, rung reassignment.
- Between its own steps a particle's position is frozen (its last
  step-end state sources other particles' forces), which is what keeps
  the per-substep dirty set proportional to the active fraction.

Rungs come from the deterministic acceleration/softening criterion
``dt_i = eta * sqrt(softening / |a_i|)`` (the standard collisionless
choice): pure fp arithmetic on the accelerations, so bin assignment is
reproducible bit for bit — the property the process backend's crash
recovery relies on when it restores checkpointed bin state.

``tree_mode="rebuild"`` keeps the full per-substep rebuild as the
oracle/baseline; ``"repair"`` must produce bitwise-identical
trajectories (repaired trees are bitwise-equal to rebuilds, and either
way each force evaluation is one
:meth:`~repro.bh.interaction_lists.TraversalEngine.compute` over the
current tree).  ``max_rungs=1`` degenerates to plain global-dt
KDK.
"""

from __future__ import annotations

import numpy as np

from repro.bh.interaction_lists import TraversalEngine
from repro.bh.mac import BarnesHutMAC
from repro.bh import morton
from repro.bh.morton import morton_keys
from repro.bh.multipole import MonopoleExpansion
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import build_tree
from repro.bh.tree_repair import repair_tree


def assign_rungs(accel: np.ndarray, dt: float, eta: float,
                 softening: float, max_rungs: int) -> np.ndarray:
    """Deterministic power-of-two bin assignment: the smallest rung
    whose ``dt / 2^r`` does not exceed ``eta * sqrt(softening/|a|)``,
    clipped to ``[0, max_rungs)``.  ``max_rungs == 1`` (fixed-dt KDK)
    needs no criterion, so softening may be 0 there."""
    if not 0 < max_rungs <= 16:
        raise ValueError(f"max_rungs must be in [1, 16], got {max_rungs}")
    if max_rungs == 1:
        return np.zeros(accel.shape[0], dtype=np.int64)
    if softening <= 0.0:
        raise ValueError("block timesteps need softening > 0 (the rung "
                         "criterion is eta * sqrt(softening / |a|))")
    a = np.sqrt(np.einsum("ij,ij->i", accel, accel))
    with np.errstate(divide="ignore"):
        dt_i = eta * np.sqrt(softening / np.where(a > 0.0, a, np.inf))
        r = np.ceil(np.log2(dt / dt_i))
    r = np.where(np.isfinite(r), r, 0.0)
    return np.clip(r, 0, max_rungs - 1).astype(np.int64)


def rung_period(rungs: np.ndarray, R: int) -> np.ndarray:
    """Substeps between a particle's step starts in a macro step whose
    deepest occupied rung is ``R - 1`` (``2^(R-1)`` substeps)."""
    return (1 << (R - 1 - np.minimum(rungs, R - 1))).astype(np.int64)


def starters(rungs: np.ndarray, R: int, j: int) -> np.ndarray:
    """Particles that open a step (half-kick + drift) at substep ``j``."""
    return np.flatnonzero(j % rung_period(rungs, R) == 0)


def finishers(rungs: np.ndarray, R: int, j: int) -> np.ndarray:
    """Particles that close a step (force + half-kick) after substep
    ``j``."""
    return np.flatnonzero((j + 1) % rung_period(rungs, R) == 0)


def open_steps(p: ParticleSet, accel: np.ndarray, rungs: np.ndarray,
               idx: np.ndarray, dt: float, lo, hi) -> None:
    """Starters ``idx``: opening half-kick with the stored acceleration,
    then a full ``dt / 2^r`` drift, positions clipped to ``[lo, hi]``."""
    dt_r = dt / (1 << rungs[idx]).astype(np.float64)
    p.velocities[idx] += (0.5 * dt_r)[:, None] * accel[idx]
    p.positions[idx] = np.clip(
        p.positions[idx] + dt_r[:, None] * p.velocities[idx], lo, hi)


def close_steps(p: ParticleSet, accel: np.ndarray, rungs: np.ndarray,
                idx: np.ndarray, dt: float, a_new: np.ndarray) -> None:
    """Finishers ``idx``: store the fresh acceleration and apply the
    closing half-kick with it."""
    dt_r = dt / (1 << rungs[idx]).astype(np.float64)
    accel[idx] = a_new
    p.velocities[idx] += (0.5 * dt_r)[:, None] * a_new


def next_rungs(want: np.ndarray, cur: np.ndarray, R: int,
               j: int) -> np.ndarray:
    """Rung transition of substep ``j``'s finishers from ``cur`` toward
    the criterion's ``want``: at the macro step's closing sync point
    every move is allowed; before it, a smaller dt anytime (bounded by
    this macro's subdivision), a longer dt only at a boundary aligned
    with the longer period."""
    if j + 1 == 1 << (R - 1):
        return want
    aligned = (j + 1) % rung_period(want, R) == 0
    return np.where(want >= cur, np.minimum(want, R - 1),
                    np.where(aligned, want, cur))


class BlockTimestepper:
    """Serial block-timestep driver advancing ``particles`` in place.

    One :meth:`macro_step` advances every particle by ``dt``.  The tree
    is carried across substeps: repaired (``tree_mode="repair"``) or
    rebuilt from scratch (``"rebuild"``, the oracle baseline).  The
    ``stats`` dict accumulates ``repair.*`` / ``timestep.*`` counters.
    """

    def __init__(self, particles: ParticleSet, dt: float, *,
                 softening: float, eta: float = 0.2, max_rungs: int = 4,
                 alpha: float = 0.8, leaf_capacity: int = 16,
                 box: Box | None = None, max_depth: int | None = None,
                 tree_mode: str = "repair", collapse_chains: bool = True):
        if dt <= 0:
            raise ValueError(f"time-step must be positive, got {dt}")
        if tree_mode not in ("repair", "rebuild"):
            raise ValueError(f"tree_mode must be 'repair' or 'rebuild', "
                             f"got {tree_mode!r}")
        self.particles = particles
        self.dt = float(dt)
        self.softening = float(softening)
        self.eta = float(eta)
        self.max_rungs = int(max_rungs)
        self.tree_mode = tree_mode
        self.collapse_chains = bool(collapse_chains)
        self.leaf_capacity = int(leaf_capacity)
        d = particles.dims
        if box is None:
            half = float(np.abs(particles.positions).max()) * 1.5 + 1e-9
            box = Box(np.zeros(d), half)
        self.box = box
        limit = morton.MAX_BITS_2D if d == 2 else morton.MAX_BITS_3D
        self.bits = limit if max_depth is None else int(max_depth)
        self.mac = BarnesHutMAC(alpha=float(alpha))
        self.stats: dict[str, int] = {
            "timestep.macro_steps": 0, "timestep.substeps": 0,
            "timestep.force_targets": 0, "timestep.drifted": 0,
            "repair.repairs": 0, "repair.full_rebuilds": 0,
            "repair.nodes_reused": 0, "repair.nodes_rebuilt": 0,
            "repair.changed_keys": 0,
        }

        self.keys = self._keys_of(particles.positions)
        self.tree = build_tree(particles, box=self.box,
                               leaf_capacity=self.leaf_capacity,
                               max_depth=self.bits,
                               collapse_chains=self.collapse_chains,
                               keys=self.keys)
        self.accel = self._forces(np.arange(particles.n))
        self.rungs = assign_rungs(self.accel, self.dt, self.eta,
                                  self.softening, self.max_rungs)
        # the bootstrap evaluation is not part of any substep
        self.stats["timestep.force_targets"] = 0

    # ---------------------------------------------------------- helpers
    def _keys_of(self, positions: np.ndarray) -> np.ndarray:
        return morton_keys(positions, self.box.lo, self.box.side, self.bits)

    def _forces(self, idx: np.ndarray) -> np.ndarray:
        """Accelerations at the current positions of particles ``idx``."""
        res = TraversalEngine(
            self.tree, self.particles, self.mac,
            softening=self.softening).compute(
            self.particles.positions[idx],
            MonopoleExpansion(self.tree, softening=self.softening),
            mode="force")
        self.stats["timestep.force_targets"] += int(idx.size)
        return res.values

    def _update_tree(self, moved: np.ndarray) -> None:
        new_keys = self._keys_of(self.particles.positions)
        if self.tree_mode == "rebuild":
            self.tree = build_tree(self.particles, box=self.box,
                                   leaf_capacity=self.leaf_capacity,
                                   max_depth=self.bits,
                                   collapse_chains=self.collapse_chains,
                                   keys=new_keys)
            self.stats["repair.full_rebuilds"] += 1
            self.stats["repair.nodes_rebuilt"] += self.tree.nnodes
        else:
            res = repair_tree(self.tree, self.particles, self.keys,
                              new_keys, moved,
                              collapse_chains=self.collapse_chains)
            self.tree = res.tree
            if res.rebuilt:
                self.stats["repair.full_rebuilds"] += 1
            else:
                self.stats["repair.repairs"] += 1
            self.stats["repair.nodes_reused"] += res.nodes_reused
            self.stats["repair.nodes_rebuilt"] += res.nodes_rebuilt
            self.stats["repair.changed_keys"] += res.n_changed_keys
        self.keys = new_keys

    # ------------------------------------------------------------- step
    def macro_step(self) -> None:
        """Advance every particle by one macro step ``dt``."""
        p = self.particles
        rungs = self.rungs
        R = int(rungs.max()) + 1
        lo = self.box.lo + 1e-12 * self.box.side
        hi = self.box.lo + self.box.side * (1 - 1e-12)

        for j in range(1 << (R - 1)):
            start = starters(rungs, R, j)
            if start.size:
                open_steps(p, self.accel, rungs, start, self.dt, lo, hi)
                self.stats["timestep.drifted"] += int(start.size)
                self._update_tree(start)

            fin = finishers(rungs, R, j)
            if fin.size:
                a_new = self._forces(fin)
                close_steps(p, self.accel, rungs, fin, self.dt, a_new)
                want = assign_rungs(a_new, self.dt, self.eta,
                                    self.softening, self.max_rungs)
                rungs[fin] = next_rungs(want, rungs[fin], R, j)
            self.stats["timestep.substeps"] += 1
        self.stats["timestep.macro_steps"] += 1
        for r in range(self.max_rungs):
            key = f"timestep.bin_{r}"
            self.stats[key] = self.stats.get(key, 0) \
                + int((self.rungs == r).sum())

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.macro_step()

    @property
    def active_fraction(self) -> float:
        """Mean fraction of particles force-evaluated per substep."""
        sub = self.stats["timestep.substeps"]
        if sub == 0:
            return 1.0
        return self.stats["timestep.force_targets"] \
            / (sub * self.particles.n)
