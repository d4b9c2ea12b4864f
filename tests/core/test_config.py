"""Tests for SchemeConfig validation."""

import pytest

from repro.core.config import SchemeConfig


class TestSchemeConfig:
    def test_defaults_valid(self):
        cfg = SchemeConfig()
        assert cfg.scheme == "spda"
        assert cfg.bin_capacity == 100

    def test_clusters(self):
        assert SchemeConfig(grid_level=2).clusters(2) == 16
        assert SchemeConfig(grid_level=2).clusters(3) == 64
        assert SchemeConfig(grid_level=5).clusters(2) == 1024  # 32x32

    @pytest.mark.parametrize("field,value", [
        ("scheme", "static"),
        ("alpha", 0.0),
        ("alpha", -1.0),
        ("degree", -1),
        ("mode", "energy"),
        ("leaf_capacity", 0),
        ("grid_level", -1),
        ("bin_capacity", 0),
        ("merge", "gather"),
        ("branch_lookup", "btree"),
        ("softening", -0.1),
    ])
    def test_invalid_rejected(self, field, value):
        with pytest.raises(ValueError):
            SchemeConfig(**{field: value})

    def test_force_mode_requires_monopole(self):
        with pytest.raises(ValueError, match="monopole"):
            SchemeConfig(mode="force", degree=4)

    def test_potential_mode_allows_multipole(self):
        cfg = SchemeConfig(mode="potential", degree=4)
        assert cfg.degree == 4

    def test_frozen(self):
        cfg = SchemeConfig()
        with pytest.raises(Exception):
            cfg.alpha = 1.0
