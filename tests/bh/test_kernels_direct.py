"""Tests for interaction kernels and the direct-summation reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bh import kernels
from repro.bh.direct import direct_forces, direct_potentials
from repro.bh.multipole import point_masses
from repro.bh.particles import ParticleSet
from tests.oracles.kernels import point_masses_reference


def two_body():
    return ParticleSet(
        positions=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
        masses=np.array([1.0, 3.0]),
    )


class TestPointMassesEqualsOracle:
    """The column cluster kernel against the ``(n, d)`` row kernel it
    replaced (``tests/oracles/kernels.py``), bit for bit."""

    @pytest.mark.parametrize("softening", [0.0, 0.05])
    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("force", [False, True],
                             ids=["potential", "force"])
    def test_bitwise(self, force, dims, softening):
        rng = np.random.default_rng(dims)
        com = rng.normal(size=(300, dims)) * 10.0 ** rng.uniform(
            -3, 3, (300, 1))
        mass = rng.uniform(0.5, 1.5, 300)
        nodes = rng.integers(0, 300, 20_000)
        targets = 3.0 * rng.normal(size=(20_000, dims))
        targets[::97] = com[nodes[::97]]       # on top of the COM
        got = point_masses(com, mass, softening, nodes,
                           np.ascontiguousarray(targets.T), force)
        want = point_masses_reference(com, mass, softening, nodes, targets,
                                      force)
        # the bits, so a signed zero counts too
        bits = np.ascontiguousarray(got.T if force else got).view(np.uint64)
        np.testing.assert_array_equal(bits, want.view(np.uint64))
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("force", [False, True],
                             ids=["potential", "force"])
    def test_target_on_the_com_contributes_exactly_zero(self, force):
        com = np.array([[1.0, -2.0, 0.5], [4.0, 4.0, 4.0]])
        targets = np.array([[1.0, 4.0], [-2.0, 4.0], [0.5, 4.0]])
        with np.errstate(all="raise"):
            got = point_masses(com, np.array([2.0, 3.0]), 0.0,
                               np.array([0, 1]), targets, force)
        assert np.all(got == 0.0)      # -G * m * 0: a signed zero
        values = np.array([1.5, 0.0])
        values += got if not force else got[0]
        np.testing.assert_array_equal(values, [1.5, 0.0])


class TestKernels:
    def test_pair_potential_value(self):
        phi = kernels.pair_potential(
            np.array([[0.0, 0.0, 0.0]]),
            np.array([[3.0, 4.0, 0.0]]), np.array([2.0])
        )
        assert phi[0] == pytest.approx(-2.0 / 5.0)

    def test_pair_force_newtons_law(self):
        t = np.array([[0.0, 0.0, 0.0]])
        s = np.array([[2.0, 0.0, 0.0]])
        f = kernels.pair_force(t, s, np.array([4.0]))
        # attraction toward +x with magnitude Gm/r^2 = 4/4 = 1
        np.testing.assert_allclose(f[0], [1.0, 0.0, 0.0])

    def test_self_pair_contributes_zero(self):
        p = np.array([[1.0, 2.0, 3.0]])
        assert kernels.pair_potential(p, p, np.ones(1))[0] == 0.0
        np.testing.assert_array_equal(kernels.pair_force(p, p, np.ones(1)),
                                      np.zeros((1, 3)))

    def test_softening_caps_close_interactions(self):
        t = np.zeros((1, 3))
        s = np.array([[1e-9, 0.0, 0.0]])
        f_soft = kernels.pair_force(t, s, np.ones(1), softening=0.1)
        assert np.linalg.norm(f_soft) < 1.0 / 0.1 ** 2 + 1e-9

    def test_point_mass_matches_pair(self):
        """The one point-mass cluster formula is the pair kernel against
        a single source, softened or not."""
        rng = np.random.default_rng(0)
        t = rng.normal(0, 1, (5, 3))
        c = np.array([[3.0, 3.0, 3.0]])
        m = np.array([2.5])
        node = np.zeros(5, dtype=np.int64)
        for soft in (0.0, 0.3):
            for force, pair in ((False, kernels.pair_potential),
                                (True, kernels.pair_force)):
                np.testing.assert_allclose(
                    point_masses(c, m, soft, node, t.T, force).T,
                    pair(t, c, m, softening=soft))

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6))
    def test_force_is_gradient_of_potential(self, seed):
        """Numerical gradient check ties force and potential kernels."""
        rng = np.random.default_rng(seed)
        src = rng.uniform(-1, 1, (4, 3))
        q = rng.uniform(0.5, 2.0, 4)
        t = rng.uniform(2.0, 3.0, (1, 3))
        f = kernels.pair_force(t, src, q)[0]
        h = 1e-6
        for axis in range(3):
            tp = t.copy(); tp[0, axis] += h
            tm = t.copy(); tm[0, axis] -= h
            dphi = (kernels.pair_potential(tp, src, q)[0]
                    - kernels.pair_potential(tm, src, q)[0]) / (2 * h)
            assert f[axis] == pytest.approx(-dphi, rel=1e-4, abs=1e-8)


class TestDirect:
    def test_two_body_potentials(self):
        ps = two_body()
        phi = direct_potentials(ps)
        np.testing.assert_allclose(phi, [-1.5, -0.5])

    def test_two_body_forces_opposite(self):
        ps = two_body()
        f = direct_forces(ps)
        # momentum conservation: m1 a1 + m2 a2 = 0
        np.testing.assert_allclose(ps.masses[0] * f[0] + ps.masses[1] * f[1],
                                   np.zeros(3), atol=1e-12)

    def test_chunking_invariance(self, monkeypatch):
        """The pair kernels chunk the targets by their working set; the
        rows agree to rounding whatever the chunk (BLAS may block a
        matrix-vector product differently by row count)."""
        rng = np.random.default_rng(1)
        ps = ParticleSet(positions=rng.uniform(0, 1, (37, 3)),
                         masses=rng.uniform(0.5, 1.5, 37))
        whole = direct_potentials(ps), direct_forces(ps)
        # 37 sources * 8 bytes * (d + 3): 1 776 bytes per target row
        monkeypatch.setattr(kernels, "DEFAULT_WORKING_SET_BYTES", 5 * 1776)
        np.testing.assert_allclose(direct_potentials(ps), whole[0],
                                   rtol=1e-13)
        np.testing.assert_allclose(direct_forces(ps), whole[1], rtol=1e-13)

    def test_explicit_targets(self):
        ps = two_body()
        t = np.array([[1.0, 0.0, 0.0]])
        phi = direct_potentials(ps, t)
        assert phi[0] == pytest.approx(-1.0 - 3.0)

    def test_sampled_reference_agrees(self):
        """The reference at a sample of the particles (how the end-to-end
        benchmark measures force error) is the full sum's rows."""
        rng = np.random.default_rng(2)
        ps = ParticleSet(positions=rng.uniform(0, 1, (100, 3)),
                         masses=np.ones(100) / 100)
        idx = rng.choice(100, size=20, replace=False)
        np.testing.assert_allclose(direct_potentials(ps, ps.positions[idx]),
                                   direct_potentials(ps)[idx])
