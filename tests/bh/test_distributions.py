"""Tests for distribution generators and the paper's named instances."""

import numpy as np
import pytest

from repro.bh.distributions import (
    DOMAIN_SIDE,
    INSTANCES,
    gaussian_blobs,
    make_instance,
    plummer,
    random_centers,
)
from tests.helpers import uniform_cube


class TestUniform:
    """The uniform cube the tests build their particle sets from."""

    def test_count_and_bounds(self):
        ps = uniform_cube(500, side=2.0, seed=1)
        assert ps.n == 500
        assert ps.positions.min() >= 0.0
        assert ps.positions.max() < 2.0

    def test_unit_total_mass(self):
        assert uniform_cube(100).total_mass == pytest.approx(1.0)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            uniform_cube(0)

    def test_reproducible(self):
        a = uniform_cube(10, seed=7)
        b = uniform_cube(10, seed=7)
        np.testing.assert_array_equal(a.positions, b.positions)


class TestPlummer:
    def test_half_mass_radius(self):
        """The Plummer half-mass radius is ~1.3 scale radii."""
        ps = plummer(20000, scale_radius=1.0, seed=2)
        r = np.linalg.norm(ps.positions, axis=1)
        assert np.median(r) == pytest.approx(1.305, rel=0.05)

    def test_truncation(self):
        ps = plummer(5000, scale_radius=1.0, max_radius=3.0, seed=3)
        r = np.linalg.norm(ps.positions, axis=1)
        assert r.max() <= 3.0 + 1e-9

    def test_velocities_bound(self):
        """No particle exceeds its local escape speed."""
        ps = plummer(5000, seed=4)
        r = np.linalg.norm(ps.positions, axis=1)
        v = np.linalg.norm(ps.velocities, axis=1)
        v_esc = np.sqrt(2.0) * (1.0 + r ** 2) ** -0.25
        assert np.all(v <= v_esc + 1e-9)

    def test_velocity_isotropy(self):
        ps = plummer(20000, seed=5)
        mean_v = ps.velocities.mean(axis=0)
        assert np.abs(mean_v).max() < 0.02

    def test_without_velocities(self):
        ps = plummer(100, with_velocities=False, seed=6)
        np.testing.assert_array_equal(ps.velocities, 0.0)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            plummer(10, dims=2)

    def test_mass_normalised(self):
        ps = plummer(1000, total_mass=5.0, seed=7)
        assert ps.total_mass == pytest.approx(5.0)


class TestGaussianBlobs:
    def test_blob_containment(self):
        centers = np.array([[50.0, 50.0, 50.0]])
        ps = gaussian_blobs(10000, centers, sigma=0.5, seed=8)
        r = np.linalg.norm(ps.positions - centers[0], axis=1)
        # 2-sigma (=1.0) should contain the bulk in each axis; radially
        # ~2.5 sigma contains >90%
        assert np.mean(r < 2.5 * 0.5) > 0.85

    def test_multiple_blobs_split_evenly(self):
        centers = np.array([[20.0] * 3, [80.0] * 3])
        ps = gaussian_blobs(101, centers, sigma=1.0, seed=9)
        near_first = np.linalg.norm(ps.positions - centers[0], axis=1) < 30
        assert abs(int(near_first.sum()) - 51) <= 1

    def test_positions_clipped_to_domain(self):
        centers = np.array([[0.0, 0.0, 0.0]])  # at the corner
        ps = gaussian_blobs(1000, centers, sigma=5.0, seed=10)
        assert ps.positions.min() >= 0.0
        assert ps.positions.max() < DOMAIN_SIDE

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_blobs(10, np.zeros((1, 2)), 1.0, dims=3)
        with pytest.raises(ValueError):
            gaussian_blobs(1, np.zeros((2, 3)), 1.0)
        with pytest.raises(ValueError):
            gaussian_blobs(10, np.zeros((1, 3)), 0.0)


class TestInstances:
    def test_registry_covers_paper_tables(self):
        for name in ["g_160535", "g_326214", "g_657499", "g_1192768",
                     "p_63192", "p_353992",
                     "s_1g_a", "s_1g_b", "s_10g_a", "s_10g_b", "g_28131"]:
            assert name in INSTANCES

    def test_counts_match_names(self):
        assert INSTANCES["g_160535"].n == 160535
        assert INSTANCES["p_353992"].n == 353992
        assert INSTANCES["s_1g_a"].n == 25130

    def test_s_instances_follow_section_511(self):
        """s_1g_* have 1 blob, s_10g_* have 10; 'a' variants fit in a
        2^3 subdomain, 'b' variants in 4^3."""
        assert INSTANCES["s_1g_a"].blobs == 1
        assert INSTANCES["s_10g_a"].blobs == 10
        assert INSTANCES["s_1g_a"].containment == 2.0
        assert INSTANCES["s_1g_b"].containment == 4.0

    def test_scaled_instance_count(self):
        ps = make_instance("g_160535", scale=0.01)
        assert ps.n == round(160535 * 0.01)

    def test_instance_inside_domain(self):
        for name in ["s_1g_a", "s_10g_b", "p_63192"]:
            ps = make_instance(name, scale=0.05)
            assert ps.positions.min() >= 0.0
            assert ps.positions.max() < DOMAIN_SIDE

    def test_tight_variant_is_denser(self):
        a = make_instance("s_1g_a", scale=0.2, seed=3)
        b = make_instance("s_1g_b", scale=0.2, seed=3)
        assert a.positions.std(axis=0).mean() < b.positions.std(axis=0).mean()

    def test_ten_blob_instance_spread_wider(self):
        one = make_instance("s_1g_a", scale=0.2, seed=4)
        ten = make_instance("s_10g_a", scale=0.2, seed=4)
        assert ten.positions.std(axis=0).mean() > one.positions.std(axis=0).mean()

    def test_generic_name_synthesis(self):
        ps = make_instance("g_5000", scale=1.0)
        assert ps.n == 5000
        ps = make_instance("p_2000", scale=1.0)
        assert ps.n == 2000

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_instance("q_123")

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            make_instance("g_160535", scale=0.0)
        with pytest.raises(ValueError):
            make_instance("g_160535", scale=1.5)

    def test_sigma_requires_gaussian(self):
        with pytest.raises(ValueError):
            INSTANCES_SPEC = INSTANCES["p_63192"].sigma()


class TestRandomCenters:
    def test_margin_respected(self):
        rng = np.random.default_rng(0)
        c = random_centers(50, 3, rng, margin=0.1)
        assert c.min() >= 0.1 * DOMAIN_SIDE
        assert c.max() <= 0.9 * DOMAIN_SIDE
