"""Tests for the LogGP-style cost model and machine profiles."""

import pytest
from hypothesis import given, strategies as st

from repro.machine.costmodel import (
    CostModel,
    MachineProfile,
    PARTICLE_RECORD_BYTES,
    multipole_series_bytes,
)
from repro.machine.engine import Engine
from repro.machine.profiles import CM5, NCUBE2, T3E, ZERO_COST, get_profile


def simple_profile(**over):
    base = dict(name="toy", topology_kind="hypercube",
                t_s=10.0, t_h=1.0, t_w=0.5, flops_per_second=2.0)
    base.update(over)
    return MachineProfile(**base)


def arrival(profile, size, src, dst, nbytes):
    """Virtual arrival at ``dst`` of one ``nbytes`` message that ``src``
    sends at time 0."""
    def main(comm):
        if comm.rank == src:
            comm.send(None, dst, nbytes=nbytes)
        if comm.rank == dst:
            return comm.recv_msg(src).arrival
    return Engine(size, profile).run(main).values[dst]


class TestMachineProfile:
    def test_flop_time(self):
        assert simple_profile().flop_time == 0.5

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            simple_profile(t_s=-1.0)
        with pytest.raises(ValueError):
            simple_profile(flops_per_second=0.0)

    def test_topology_binding(self):
        topo = simple_profile().make_topology(16)
        assert topo.size == 16
        assert topo.hops(0, 15) == 4


class TestCostModel:
    def test_message_time_formula(self):
        # 0 -> 15 is 4 hops: t_s + 4*t_h + nbytes*t_w
        assert arrival(simple_profile(), 16, 0, 15, 100) \
            == pytest.approx(10 + 4 + 50)

    def test_self_message_free(self):
        assert arrival(simple_profile(), 16, 3, 3, 10**6) == 0.0

    def test_compute_time(self):
        cm = CostModel(simple_profile(), 4)
        assert cm.compute_time(100) == pytest.approx(50.0)

    def test_negative_inputs_rejected(self):
        cm = CostModel(simple_profile(), 4)
        with pytest.raises(ValueError):
            cm.compute_time(-5)

    @given(st.integers(0, 15), st.integers(0, 15),
           st.integers(0, 10**6), st.integers(0, 10**6))
    def test_monotone_in_message_size(self, src, dst, m1, m2):
        lo, hi = sorted((m1, m2))
        assert arrival(simple_profile(), 16, src, dst, lo) \
            <= arrival(simple_profile(), 16, src, dst, hi)


class TestProfiles:
    def test_lookup(self):
        assert get_profile("ncube2") is NCUBE2
        assert get_profile("CM5") is CM5
        assert get_profile("t3e") is T3E
        assert get_profile("zero") is ZERO_COST

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            get_profile("paragon")

    def test_relative_machine_balance(self):
        """CM5 has lower latency and higher bandwidth and flop rate than
        nCUBE2; T3E dwarfs both — the relations the paper's conclusion
        relies on."""
        assert CM5.t_s < NCUBE2.t_s
        assert CM5.t_w < NCUBE2.t_w
        assert CM5.flops_per_second > NCUBE2.flops_per_second
        assert T3E.flops_per_second > 10 * CM5.flops_per_second

    def test_ncube2_memory_is_4mb(self):
        assert NCUBE2.memory_bytes == 4 * 1024 * 1024


class TestWireSizes:
    def test_particle_record(self):
        # 3 x float32 coordinates + 1 x 32-bit branch key
        assert PARTICLE_RECORD_BYTES == 16

    def test_multipole_series_matches_paper_example(self):
        """Paper 4.2.1: a degree-6 3-D expansion is 36 complex numbers =
        72 floats; we add origin + mass (4 floats)."""
        assert multipole_series_bytes(6, dims=3) == 4 * (72 + 4)

    def test_grows_quadratically_in_3d(self):
        b3 = multipole_series_bytes(3)
        b6 = multipole_series_bytes(6)
        assert (b6 - 16) == pytest.approx(4 * (b3 - 16), rel=0.01)

    def test_linear_in_2d(self):
        assert multipole_series_bytes(6, dims=2) == 4 * (12 + 3)

    def test_degree_zero_monopole_small(self):
        assert multipole_series_bytes(0) < multipole_series_bytes(4)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            multipole_series_bytes(-1)
