"""Tests for interconnect topologies and Gray-code utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.machine.topology import (
    CompleteTopology,
    FatTreeTopology,
    HypercubeTopology,
    MeshTopology,
    gray_code,
    is_power_of_two,
    log2_exact,
    make_topology,
)


def gray_code_rank(g):
    """Inverse of ``gray_code``: position of code ``g`` in the table."""
    i = 0
    while g:
        i ^= g
        g >>= 1
    return i


class TestGrayCode:
    def test_first_entries(self):
        assert [gray_code(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_adjacent_codes_differ_in_one_bit(self):
        for i in range(255):
            diff = gray_code(i) ^ gray_code(i + 1)
            assert diff.bit_count() == 1

    def test_bijection_on_range(self):
        codes = {gray_code(i) for i in range(256)}
        assert codes == set(range(256))

    @given(st.integers(min_value=0, max_value=10**9))
    def test_rank_inverts_code(self, i):
        assert gray_code_rank(gray_code(i)) == i

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gray_code(-1)


class TestPowersOfTwo:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(256)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)
        assert not is_power_of_two(-4)

    def test_log2_exact(self):
        assert log2_exact(1) == 0
        assert log2_exact(256) == 8
        with pytest.raises(ValueError):
            log2_exact(6)


class TestHypercube:
    def test_hops_is_hamming_distance(self):
        t = HypercubeTopology(16)
        assert t.hops(0b0000, 0b1111) == 4
        assert t.hops(5, 5) == 0
        assert t.hops(0b0101, 0b0100) == 1

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            HypercubeTopology(12)

    def test_neighbors_differ_in_one_bit(self):
        t = HypercubeTopology(32)
        for nb in t.neighbors(13):
            assert (nb ^ 13).bit_count() == 1
        assert len(t.neighbors(13)) == 5

    def test_diameter_is_dimension(self):
        assert HypercubeTopology(256).diameter == 8

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_hops_triangle_inequality(self, a, b, c):
        t = HypercubeTopology(256)
        assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_hops_symmetry(self, a, b):
        t = HypercubeTopology(256)
        assert t.hops(a, b) == t.hops(b, a)


class TestMesh:
    def test_manhattan_distance(self):
        t = MeshTopology(4, 4)
        assert t.hops(t.rank_of(0, 0), t.rank_of(3, 3)) == 6
        assert t.hops(t.rank_of(1, 2), t.rank_of(1, 2)) == 0

    def test_coords_round_trip(self):
        t = MeshTopology(3, 5)
        for rank in range(t.size):
            r, c = t.coords(rank)
            assert t.rank_of(r, c) == rank

    def test_corner_has_two_neighbors(self):
        t = MeshTopology(4, 4)
        assert len(t.neighbors(0)) == 2
        assert len(t.neighbors(t.rank_of(1, 1))) == 4

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            MeshTopology(0, 4)


class TestFatTree:
    def test_same_switch_leaves_two_hops(self):
        t = FatTreeTopology(64, arity=4)
        assert t.hops(0, 1) == 2
        assert t.hops(0, 3) == 2

    def test_distant_leaves_climb_higher(self):
        t = FatTreeTopology(64, arity=4)
        assert t.hops(0, 4) == 4
        assert t.hops(0, 63) == 6

    def test_self_hop_zero(self):
        t = FatTreeTopology(64)
        assert t.hops(17, 17) == 0

    def test_neighbors_share_block(self):
        t = FatTreeTopology(16, arity=4)
        assert t.neighbors(5) == [4, 6, 7]

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            FatTreeTopology(16, arity=1)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_hops_symmetric_and_even(self, a, b):
        t = FatTreeTopology(64, arity=4)
        assert t.hops(a, b) == t.hops(b, a)
        assert t.hops(a, b) % 2 == 0


class TestComplete:
    def test_unit_hops(self):
        t = CompleteTopology(7)
        assert t.hops(0, 6) == 1
        assert t.hops(3, 3) == 0
        assert len(t.neighbors(2)) == 6


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_topology("hypercube", 8), HypercubeTopology)
        assert isinstance(make_topology("fattree", 8), FatTreeTopology)
        assert isinstance(make_topology("complete", 5), CompleteTopology)

    def test_mesh_auto_factoring(self):
        t = make_topology("mesh", 12)
        assert isinstance(t, MeshTopology)
        assert t.rows * t.cols == 12
        assert t.rows in (3, 4) or t.cols in (3, 4)

    def test_mesh_explicit_dims(self):
        t = make_topology("mesh", 12, rows=2, cols=6)
        assert (t.rows, t.cols) == (2, 6)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_topology("torus", 8)

    def test_rank_bounds_checked(self):
        t = make_topology("hypercube", 8)
        with pytest.raises(ValueError):
            t.hops(0, 8)
        with pytest.raises(ValueError):
            t.neighbors(-1)
