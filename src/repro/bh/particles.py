"""Particle sets (structure of arrays) and axis-aligned cubic boxes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """An axis-aligned cube: ``center`` (d-vector) and scalar ``half``.

    Barnes-Hut cells are cubes (squares in 2-D); the MAC's "dimension of
    the box" is the side length ``2 * half``.
    """

    center: np.ndarray
    half: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        object.__setattr__(self, "center", center)
        if center.ndim != 1 or center.size not in (2, 3):
            raise ValueError(f"box center must be a 2- or 3-vector, "
                             f"got shape {center.shape}")
        if self.half <= 0:
            raise ValueError(f"box half-width must be positive, "
                             f"got {self.half}")

    @property
    def dims(self) -> int:
        return self.center.size

    @property
    def side(self) -> float:
        return 2.0 * self.half

    @property
    def lo(self) -> np.ndarray:
        return self.center - self.half

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.half

    def contains(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask of positions inside the half-open box [lo, hi)."""
        pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        return np.all((pos >= self.lo) & (pos < self.hi), axis=1)

    def child(self, octant: int) -> "Box":
        """The sub-box for child ``octant`` (bit ``i`` = upper half of
        axis ``i``)."""
        d = self.dims
        if not 0 <= octant < (1 << d):
            raise ValueError(f"octant {octant} out of range for {d}-D box")
        offsets = np.array(
            [(1.0 if (octant >> i) & 1 else -1.0) for i in range(d)]
        )
        return Box(self.center + 0.5 * self.half * offsets, 0.5 * self.half)

    @staticmethod
    def bounding(positions: np.ndarray, pad: float = 1e-9) -> "Box":
        """Smallest cube (padded slightly) containing all positions."""
        pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        if pos.shape[0] == 0:
            raise ValueError("cannot bound an empty point set")
        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        center = 0.5 * (lo + hi)
        half = 0.5 * float((hi - lo).max())
        half = half * (1.0 + pad) + pad
        return Box(center, half)


@dataclass
class ParticleSet:
    """Structure-of-arrays particle container.

    Attributes
    ----------
    positions : (n, d) float64
    masses    : (n,)   float64, strictly positive
    velocities: (n, d) float64
    ids       : (n,)   int64 — stable global identities that survive
        redistribution across virtual processors.
    """

    positions: np.ndarray
    masses: np.ndarray
    velocities: np.ndarray = None  # type: ignore[assignment]
    ids: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] not in (2, 3):
            raise ValueError(
                f"positions must be (n, 2) or (n, 3), got {self.positions.shape}"
            )
        n, d = self.positions.shape
        self.masses = np.ascontiguousarray(self.masses, dtype=np.float64)
        if self.masses.shape != (n,):
            raise ValueError(
                f"masses must be shape ({n},), got {self.masses.shape}"
            )
        if n and not np.all(self.masses > 0):
            raise ValueError("all particle masses must be positive")
        if self.velocities is None:
            self.velocities = np.zeros((n, d))
        self.velocities = np.ascontiguousarray(self.velocities,
                                               dtype=np.float64)
        if self.velocities.shape != (n, d):
            raise ValueError(
                f"velocities must be shape ({n}, {d}), "
                f"got {self.velocities.shape}"
            )
        if self.ids is None:
            self.ids = np.arange(n, dtype=np.int64)
        self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        if self.ids.shape != (n,):
            raise ValueError(f"ids must be shape ({n},), got {self.ids.shape}")

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dims(self) -> int:
        return self.positions.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def nbytes(self) -> int:
        """Wire size of the set (positions, masses, velocities, ids) —
        picked up by the virtual machine's payload estimator when whole
        particle sets move between processors."""
        return (self.positions.nbytes + self.masses.nbytes
                + self.velocities.nbytes + self.ids.nbytes)

    def center_of_mass(self) -> np.ndarray:
        if self.n == 0:
            raise ValueError("empty particle set has no center of mass")
        return (self.masses[:, None] * self.positions).sum(axis=0) / self.total_mass

    def subset(self, index: np.ndarray) -> "ParticleSet":
        """Select particles by integer index or boolean mask."""
        return ParticleSet(
            positions=self.positions[index],
            masses=self.masses[index],
            velocities=self.velocities[index],
            ids=self.ids[index],
        )

    def bounding_box(self, pad: float = 1e-9) -> Box:
        return Box.bounding(self.positions, pad=pad)

    @staticmethod
    def concatenate(sets: list["ParticleSet"]) -> "ParticleSet":
        """Merge particle sets (used when virtual processors exchange
        particles).  Empty inputs are allowed as long as one set is
        non-trivial enough to define the dimensionality."""
        sets = [s for s in sets if s.n > 0]
        if not sets:
            raise ValueError("cannot concatenate zero non-empty sets")
        d = sets[0].dims
        if any(s.dims != d for s in sets):
            raise ValueError("dimension mismatch in concatenate")
        return ParticleSet(
            positions=np.concatenate([s.positions for s in sets]),
            masses=np.concatenate([s.masses for s in sets]),
            velocities=np.concatenate([s.velocities for s in sets]),
            ids=np.concatenate([s.ids for s in sets]),
        )

    @staticmethod
    def empty(dims: int) -> "ParticleSet":
        return ParticleSet(
            positions=np.zeros((0, dims)),
            masses=np.zeros(0),
            velocities=np.zeros((0, dims)),
            ids=np.zeros(0, dtype=np.int64),
        )
