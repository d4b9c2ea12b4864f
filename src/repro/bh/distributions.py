"""Particle distribution generators and the paper's named instances.

The paper evaluates on Gaussian (``g_*``) and Plummer (``p_*``)
distributions from 25 k to 1.2 M particles, plus four 25 130-particle
irregularity studies (``s_1g_a``, ``s_1g_b``, ``s_10g_a``, ``s_10g_b``)
whose exact construction Section 5.1.1 spells out: Gaussians centered
randomly in a 100x100x100 domain with variance such that "most particles
lie within a 2x2x2 subdomain" (variant ``a``) or a 4x4x4 subdomain
(variant ``b``).

``make_instance(name, scale=...)`` reproduces any of these, with ``scale``
shrinking the particle count proportionally (pure-Python traversal cannot
reach 1.2 M particles in bench time; EXPERIMENTS.md records the scales
used).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from repro.bh.particles import ParticleSet

#: Side of the paper's simulation domain for the s_* instances.
DOMAIN_SIDE = 100.0


def plummer(n: int, dims: int = 3, total_mass: float = 1.0,
            scale_radius: float = 1.0, seed: int | None = 0,
            max_radius: float | None = None,
            with_velocities: bool = True) -> ParticleSet:
    """A Plummer (1911) sphere with isotropic equilibrium velocities.

    Uses the classic Aarseth, Henon & Wielen (1974) sampling recipe:
    radius from the inverse cumulative mass profile, velocity magnitude by
    von Neumann rejection against ``g(q) = q^2 (1 - q^2)^{7/2}``.
    ``max_radius`` (default ``10 * scale_radius``) truncates the halo so
    the domain stays bounded, as all practical n-body codes do.
    """
    if n <= 0:
        raise ValueError(f"need a positive particle count, got {n}")
    if dims != 3:
        raise ValueError("the Plummer model is three-dimensional")
    if max_radius is None:
        max_radius = 10.0 * scale_radius
    rng = np.random.default_rng(seed)

    # Radii: M(r)/M = r^3 / (r^2 + a^2)^{3/2}  =>  r = a / sqrt(X^{-2/3}-1)
    m_frac_cap = (max_radius ** 3
                  / (max_radius ** 2 + scale_radius ** 2) ** 1.5)
    x = rng.uniform(0.0, m_frac_cap, size=n)
    # Guard X=0 (radius 0 is fine, but the formula divides by zero).
    x = np.maximum(x, 1e-12)
    r = scale_radius / np.sqrt(x ** (-2.0 / 3.0) - 1.0)

    pos = r[:, None] * _random_unit_vectors(rng, n)

    vel = np.zeros((n, 3))
    if with_velocities:
        # Escape speed v_e = sqrt(2) (1 + r^2/a^2)^{-1/4} in model units
        # (G = M = a = 1), scaled afterwards.
        q = _sample_plummer_velocity_fraction(rng, n)
        v_esc = math.sqrt(2.0) * (1.0 + (r / scale_radius) ** 2) ** -0.25
        speed = q * v_esc * math.sqrt(total_mass / scale_radius)
        vel = speed[:, None] * _random_unit_vectors(rng, n)

    return ParticleSet(positions=pos, masses=np.full(n, total_mass / n),
                       velocities=vel)


def _random_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """Isotropic unit vectors in 3-D."""
    cos_t = rng.uniform(-1.0, 1.0, size=n)
    sin_t = np.sqrt(1.0 - cos_t ** 2)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return np.column_stack(
        (sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t)
    )


def _sample_plummer_velocity_fraction(rng: np.random.Generator,
                                      n: int) -> np.ndarray:
    """Rejection-sample q = v / v_escape from g(q) = q^2 (1-q^2)^{7/2}."""
    out = np.empty(n)
    filled = 0
    g_max = 0.092  # slightly above the true maximum ~0.0918 of g(q)
    while filled < n:
        todo = n - filled
        q = rng.uniform(0.0, 1.0, size=2 * todo)
        y = rng.uniform(0.0, g_max, size=2 * todo)
        ok = y < q ** 2 * (1.0 - q ** 2) ** 3.5
        take = q[ok][:todo]
        out[filled:filled + take.size] = take
        filled += take.size
    return out


def gaussian_blobs(n: int, centers: np.ndarray, sigma: float,
                   dims: int = 3, domain_side: float = DOMAIN_SIDE,
                   seed: int | None = 0) -> ParticleSet:
    """``n`` particles split evenly over Gaussian blobs at ``centers``.

    Positions are clipped into the ``[0, domain_side)`` cube so the domain
    stays the paper's 100^3 box.  Unit total mass.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if centers.shape[1] != dims:
        raise ValueError(
            f"centers must be (k, {dims}), got {centers.shape}"
        )
    if n < centers.shape[0]:
        raise ValueError("need at least one particle per blob")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    rng = np.random.default_rng(seed)
    k = centers.shape[0]
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    chunks = [
        rng.normal(loc=centers[i], scale=sigma, size=(counts[i], dims))
        for i in range(k)
    ]
    pos = np.concatenate(chunks)
    eps = 1e-9 * domain_side
    pos = np.clip(pos, 0.0, domain_side - eps)
    return ParticleSet(positions=pos, masses=np.full(n, 1.0 / n))


def random_centers(k: int, dims: int, rng: np.random.Generator,
                   domain_side: float = DOMAIN_SIDE,
                   margin: float = 0.1) -> np.ndarray:
    """Blob centers placed uniformly, keeping a margin from the walls."""
    lo = margin * domain_side
    hi = (1.0 - margin) * domain_side
    return rng.uniform(lo, hi, size=(k, dims))


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one of the paper's named problem instances."""

    name: str
    n: int
    kind: str          # "gaussian" | "plummer"
    blobs: int = 1
    #: Gaussian sigma such that ~95% of a blob falls in a
    #: ``containment x containment x containment`` subdomain (paper 5.1.1).
    containment: float | None = None
    description: str = ""

    def sigma(self) -> float:
        """2-sigma radius = containment/2 => sigma = containment / 4."""
        if self.containment is None:
            raise ValueError(f"{self.name} is not a Gaussian instance")
        return self.containment / 4.0


#: All instances the paper's tables reference.  The g_* Gaussian instances
#: use moderately tight blobs (the paper does not give their variance);
#: the s_* instances follow Section 5.1.1 exactly.
INSTANCES: dict[str, InstanceSpec] = {
    spec.name: spec for spec in [
        InstanceSpec("g_28131", 28131, "gaussian", blobs=1, containment=25.0,
                     description="small Gaussian (Table 2)"),
        InstanceSpec("g_160535", 160535, "gaussian", blobs=1,
                     containment=25.0, description="Tables 1, 2, 5, 6, 7"),
        InstanceSpec("g_326214", 326214, "gaussian", blobs=1,
                     containment=25.0, description="Tables 1, 2, 3, 5, 6, 7"),
        InstanceSpec("g_657499", 657499, "gaussian", blobs=1,
                     containment=25.0, description="Tables 1, 2"),
        InstanceSpec("g_1192768", 1192768, "gaussian", blobs=2,
                     containment=25.0,
                     description="two Gaussians (Tables 1, 3)"),
        InstanceSpec("p_63192", 63192, "plummer",
                     description="Tables 5, 6, 7"),
        InstanceSpec("p_353992", 353992, "plummer",
                     description="Tables 5, 6, 7"),
        InstanceSpec("s_1g_a", 25130, "gaussian", blobs=1, containment=2.0,
                     description="1 tight Gaussian, 2^3 subdomain (Table 4)"),
        InstanceSpec("s_1g_b", 25130, "gaussian", blobs=1, containment=4.0,
                     description="1 looser Gaussian, 4^3 subdomain (Table 4)"),
        InstanceSpec("s_10g_a", 25130, "gaussian", blobs=10, containment=2.0,
                     description="10 tight Gaussians (Table 4)"),
        InstanceSpec("s_10g_b", 25130, "gaussian", blobs=10, containment=4.0,
                     description="10 looser Gaussians (Table 4)"),
    ]
}

_GENERIC = re.compile(r"^(g|p)_(\d+)$")


def make_instance(name: str, scale: float = 1.0,
                  seed: int = 1994) -> ParticleSet:
    """Build a named paper instance, optionally scaled down.

    ``scale=1.0`` gives the paper's particle count; ``scale=0.05`` gives
    5% of it (same distribution shape).  Unknown ``g_<n>`` / ``p_<n>``
    names are synthesised generically.
    """
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    spec = INSTANCES.get(name)
    if spec is None:
        m = _GENERIC.match(name)
        if not m:
            raise ValueError(
                f"unknown instance {name!r}; known: {sorted(INSTANCES)}"
            )
        kind = "gaussian" if m.group(1) == "g" else "plummer"
        spec = InstanceSpec(name, int(m.group(2)), kind, blobs=1,
                            containment=25.0 if kind == "gaussian" else None)
    n = max(16, int(round(spec.n * scale)))
    rng = np.random.default_rng(seed)
    if spec.kind == "plummer":
        # Plummer cluster centered in the 100^3 domain, core radius ~5.
        ps = plummer(n, scale_radius=5.0, seed=seed)
        ps.positions += DOMAIN_SIDE / 2.0
        np.clip(ps.positions, 0.0, DOMAIN_SIDE * (1 - 1e-9),
                out=ps.positions)
        return ps
    centers = random_centers(spec.blobs, 3, rng)
    return gaussian_blobs(n, centers, spec.sigma(), seed=seed)
