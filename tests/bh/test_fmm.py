"""Tests for the local-expansion operators and the serial FMM of
``examples/fmm/`` (example code over the library's trees and multipole
operators; loaded by path — ``examples`` is not a package)."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bh.direct import direct_potentials
from repro.bh.distributions import plummer
from repro.bh.multipole import regular_terms
from repro.bh.particles import ParticleSet
from tests.helpers import uniform_cube

_PKG = Path(__file__).resolve().parents[2] / "examples" / "fmm"
_spec = importlib.util.spec_from_file_location(
    "fmm_example", _PKG / "__init__.py",
    submodule_search_locations=[str(_PKG)])
fmm_example = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = fmm_example
_spec.loader.exec_module(fmm_example)

FMMStats, fmm_potentials = fmm_example.FMMStats, fmm_example.fmm_potentials
l2l, l2p, m2l, p2l = (fmm_example.l2l, fmm_example.l2p, fmm_example.m2l,
                      fmm_example.p2l)


def cloud(n=25, seed=0, radius=0.4):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-radius, radius, (n, 3)),
            rng.uniform(0.2, 1.0, n))


def direct_sum(targets, src, q):
    return np.array([np.sum(q / np.linalg.norm(t - src, axis=1))
                     for t in targets])


class TestM2L:
    def test_converts_far_multipole_to_local(self):
        src, q = cloud()
        M = q @ regular_terms(src, 8)            # about the origin
        center = np.array([4.0, 1.0, -2.0])      # local center, far away
        L = m2l(M, -center, 8)                   # multipole rel. to local
        rng = np.random.default_rng(1)
        targets = center + rng.uniform(-0.3, 0.3, (12, 3))
        approx = l2p(L, targets - center, 8)
        np.testing.assert_allclose(approx, direct_sum(targets, src, q),
                                   rtol=1e-6)

    def test_error_falls_with_degree(self):
        src, q = cloud()
        center = np.array([3.0, 0.0, 0.0])
        rng = np.random.default_rng(2)
        targets = center + rng.uniform(-0.2, 0.2, (10, 3))
        exact = direct_sum(targets, src, q)
        errs = []
        for deg in (2, 4, 8):
            L = m2l(q @ regular_terms(src, deg), -center, deg)
            errs.append(np.abs(l2p(L, targets - center, deg)
                               - exact).max())
        assert errs[0] > errs[1] > errs[2]

    def test_coincident_centers_rejected(self):
        with pytest.raises(ValueError):
            m2l(np.zeros(9, dtype=complex), np.zeros(3), 2)


class TestL2L:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10**6))
    def test_shift_preserves_field(self, seed):
        rng = np.random.default_rng(seed)
        src = rng.uniform(-0.4, 0.4, (15, 3)) + np.array([5.0, 0.0, 0.0])
        q = rng.uniform(0.2, 1.0, 15)
        center = np.zeros(3)
        L = p2l(src - center, q, 6)
        d = rng.uniform(-0.2, 0.2, 3)
        L_shifted = l2l(L, center - (center + d), 6)
        targets = center + d + rng.uniform(-0.1, 0.1, (6, 3))
        a = l2p(L, targets - center, 6)
        b = l2p(L_shifted, targets - (center + d), 6)
        np.testing.assert_allclose(b, a, atol=1e-9)

    def test_composition(self):
        src, q = cloud(seed=3)
        src = src + np.array([4.0, 4.0, 0.0])
        L = p2l(src, q, 5)
        step = np.array([0.1, -0.05, 0.08])
        two = l2l(l2l(L, step, 5), step, 5)
        one = l2l(L, 2 * step, 5)
        np.testing.assert_allclose(two, one, atol=1e-10)


class TestP2L:
    def test_matches_direct_inside_ball(self):
        src, q = cloud(seed=4)
        src = src + np.array([0.0, 6.0, 0.0])
        L = p2l(src, q, 10)
        rng = np.random.default_rng(5)
        targets = rng.uniform(-0.3, 0.3, (8, 3))
        np.testing.assert_allclose(l2p(L, targets, 10),
                                   direct_sum(targets, src, q), rtol=1e-7)

    def test_source_on_center_rejected(self):
        with pytest.raises(ValueError):
            p2l(np.zeros((1, 3)), np.ones(1), 3)


class TestFMM:
    def test_matches_direct(self):
        ps = plummer(500, seed=6)
        phi = fmm_potentials(ps, degree=5, theta=0.7)
        exact = direct_potentials(ps)
        err = np.linalg.norm(phi - exact) / np.linalg.norm(exact)
        assert err < 1e-4

    def test_accuracy_improves_with_degree(self):
        ps = uniform_cube(400, seed=7)
        exact = direct_potentials(ps)
        errs = []
        for deg in (2, 4, 6):
            phi = fmm_potentials(ps, degree=deg, theta=0.7)
            errs.append(np.linalg.norm(phi - exact))
        assert errs[0] > errs[1] > errs[2]

    def test_stats_populated(self):
        ps = uniform_cube(500, seed=8)
        _, stats = fmm_potentials(ps, degree=3, return_stats=True)
        assert stats.m2l_pairs > 0
        assert stats.p2p_pairs > 0
        assert stats.l2l_shifts > 0

    def test_m2l_pairs_scale_linearly(self):
        """The FMM signature: cell-cell interaction counts grow ~O(n).
        Small trees are lumpy (a new refinement level opens whole
        interaction lists at once), so the check compares n and 2n past
        the first transition."""
        counts = []
        for n in (800, 1600):
            ps = uniform_cube(n, seed=9)
            _, stats = fmm_potentials(ps, degree=2, theta=0.7,
                                      leaf_capacity=8, return_stats=True)
            counts.append(stats.m2l_pairs)
        assert counts[1] < 3.0 * counts[0]

    def test_validation(self):
        ps = uniform_cube(20, seed=10)
        with pytest.raises(ValueError):
            fmm_potentials(ps, degree=0)
        with pytest.raises(ValueError):
            fmm_potentials(ps, theta=0.0)
        rng = np.random.default_rng(11)
        ps2 = ParticleSet(positions=rng.uniform(0, 1, (10, 2)),
                          masses=np.ones(10))
        with pytest.raises(ValueError):
            fmm_potentials(ps2)
