"""Configuration dataclasses for the parallel formulations."""

from __future__ import annotations

from dataclasses import dataclass, field

SCHEMES = ("spsa", "spda", "dpda")
MERGE_KINDS = ("broadcast", "nonreplicated")
LOOKUP_KINDS = ("hashed", "sorted")
MODES = ("force", "potential")
INTEGRATORS = ("euler", "kdk")
TIMESTEPS = ("fixed", "block")


@dataclass(frozen=True)
class SchemeConfig:
    """Everything that parameterises one parallel Barnes-Hut run.

    Parameters
    ----------
    scheme:
        ``"spsa"``, ``"spda"`` or ``"dpda"``.
    alpha:
        Barnes-Hut opening criterion (paper: 0.67, 0.8, 1.0).
    degree:
        Multipole degree; 0 = monopole (center of mass).  The paper uses
        monopole forces in Section 5.1 and degree 3-5 potentials in 5.2.
    mode:
        ``"force"`` (vector accelerations) or ``"potential"`` (scalar).
    leaf_capacity:
        The paper's ``s``: maximum particles per leaf cell.
    grid_level:
        SPSA/SPDA static cluster grid depth: ``r = 2^(dims*grid_level)``
        clusters (e.g. level 2 in 2-D = the paper's 16-cluster Fig. 5;
        level 5 in 2-D = 32x32 clusters).  Ignored by DPDA.
    bin_capacity:
        Particles collected per function-shipping bin before it is sent
        ("in our implementations, we typically collect 100 particles").
    merge:
        Top-tree construction: ``"broadcast"`` (replicated) or
        ``"nonreplicated"`` (Section 3.1.1 vs 3.1.2).
    branch_lookup:
        ``"hashed"`` or ``"sorted"`` branch-key location (Section 4.2.3).
    softening:
        Plummer softening ``eps``: ``r^2 + eps^2`` in every point-mass
        cluster term and every particle-particle pair, wherever the cell
        sits — a local subtree, the merged top tree or a node fetched by
        data shipping — in both modes; never in a degree >= 1 series.
        0 for potential accuracy studies.
    max_depth:
        Tree refinement limit; ``None`` = Morton key limit.
    integrator:
        Particle advance: ``"euler"`` (semi-implicit Euler, the
        original loop — bitwise default) or ``"kdk"`` (kick-drift-kick
        leapfrog, the basis for block timesteps).
    timestep:
        ``"fixed"`` advances every particle by ``dt`` each step;
        ``"block"`` runs the power-of-two block-timestep hierarchy —
        each outer step is a macro step of ``dt``, internally split
        into substeps that integrate only the active rung bins
        (requires ``integrator="kdk"``, ``mode="force"`` and
        ``softening > 0`` for the rung criterion).
    dt_eta:
        Accuracy parameter of the rung criterion
        ``dt_i = dt_eta * sqrt(softening / |a_i|)``.
    max_rungs:
        Number of power-of-two timestep bins (rung ``r`` integrates
        with ``dt / 2^r``).
    """

    scheme: str = "spda"
    alpha: float = 0.67
    degree: int = 0
    mode: str = "force"
    leaf_capacity: int = 8
    grid_level: int = 2
    bin_capacity: int = 100
    merge: str = "broadcast"
    branch_lookup: str = "hashed"
    softening: float = 0.0
    max_depth: int | None = None
    integrator: str = "euler"
    timestep: str = "fixed"
    dt_eta: float = 0.2
    max_rungs: int = 4

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, "
                             f"got {self.scheme!r}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "force" and self.degree > 0:
            raise ValueError(
                "vector forces use monopoles (degree 0), as in the paper; "
                "use mode='potential' for multipole runs"
            )
        if self.leaf_capacity < 1:
            raise ValueError("leaf_capacity must be >= 1")
        if self.grid_level < 0:
            raise ValueError("grid_level must be >= 0")
        if self.bin_capacity < 1:
            raise ValueError("bin_capacity must be >= 1")
        if self.merge not in MERGE_KINDS:
            raise ValueError(f"merge must be one of {MERGE_KINDS}")
        if self.branch_lookup not in LOOKUP_KINDS:
            raise ValueError(f"branch_lookup must be one of {LOOKUP_KINDS}")
        if self.softening < 0:
            raise ValueError("softening must be >= 0")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}, "
                             f"got {self.integrator!r}")
        if self.timestep not in TIMESTEPS:
            raise ValueError(f"timestep must be one of {TIMESTEPS}, "
                             f"got {self.timestep!r}")
        if self.dt_eta <= 0:
            raise ValueError(f"dt_eta must be positive, got {self.dt_eta}")
        if not 1 <= self.max_rungs <= 16:
            raise ValueError(f"max_rungs must be in [1, 16], "
                             f"got {self.max_rungs}")
        if self.timestep == "block":
            if self.integrator != "kdk":
                raise ValueError("block timesteps integrate with KDK "
                                 "leapfrog; set integrator='kdk'")
            if self.mode != "force":
                raise ValueError("block timesteps advance particles and "
                                 "need mode='force'")
            if self.softening <= 0:
                raise ValueError("block timesteps need softening > 0 "
                                 "(the rung criterion is "
                                 "dt_eta * sqrt(softening / |a|))")

    def clusters(self, dims: int) -> int:
        """Number of static clusters r for the given dimensionality."""
        return 1 << (dims * self.grid_level)
