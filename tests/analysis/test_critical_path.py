"""Tests for critical-path extraction and the trace text reports."""

import numpy as np
import pytest

from repro import ParallelBarnesHut, SchemeConfig, make_instance
from repro.analysis.critical_path import (
    critical_path,
    format_critical_path,
    step_critical_paths,
)
from repro.analysis.trace_report import (
    bytes_matrix,
    format_bytes_matrix,
    phase_waterfall,
)
from repro.machine.costmodel import MachineProfile
from repro.machine.engine import Engine
from repro.machine.profiles import NCUBE2

TOY = MachineProfile(name="toy", topology_kind="hypercube",
                     t_s=10.0, t_h=1.0, t_w=0.5, flops_per_second=1.0)


def by_phase(cp):
    """Chain time per phase: compute segments by their phase
    ("(untracked)" outside any phase block), network time under
    "(network)"."""
    out = {}
    for s in cp.segments:
        key = ("(network)" if s.kind == "network"
               else s.phase or "(untracked)")
        out[key] = out.get(key, 0.0) + s.duration
    return out


class TestHandBuiltChain:
    """A two-rank program whose critical path is known in closed form."""

    def _report(self):
        def main(comm):
            if comm.rank == 1:
                with comm.phase("produce"):
                    comm.compute(100.0)          # 100 s
                comm.send(b"zz", dst=0, tag=4)   # charge 11, arrival +1
            else:
                with comm.phase("consume"):
                    comm.compute(5.0)            # 5 s, then waits
                    comm.recv(src=1, tag=4)      # arrival 112, copy 1
            return comm.now

        return Engine(2, TOY).run(main, trace=True)

    def test_chain_length_equals_parallel_time(self):
        rep = self._report()
        cp = critical_path(rep.trace)
        assert cp.length == pytest.approx(rep.parallel_time, abs=1e-12)

    def test_chain_structure(self):
        rep = self._report()
        cp = critical_path(rep.trace)
        # produce on rank 1 -> send charge -> network hop -> copy-out on 0.
        kinds = [(s.rank, s.kind) for s in cp.segments]
        assert kinds[0] == (1, "compute")
        assert (0, "network") in kinds
        assert kinds[-1] == (0, "compute")
        by_kind = cp.by_kind()
        assert by_kind["network"] == pytest.approx(1.0)   # one hop of t_h
        assert cp.hops() == 1

    def test_phase_attribution(self):
        rep = self._report()
        phases = by_phase(critical_path(rep.trace))
        assert phases["produce"] == pytest.approx(100.0)
        # The send charge (11 s) happens outside any phase block.
        assert phases["(untracked)"] == pytest.approx(11.0)
        assert phases["(network)"] == pytest.approx(1.0)

    def test_no_messages_single_segment(self):
        def main(comm):
            with comm.phase("solo"):
                comm.compute(float(comm.rank + 1))

        rep = Engine(4, TOY).run(main, trace=True)
        cp = critical_path(rep.trace)
        assert cp.length == pytest.approx(4.0)
        assert all(s.rank == 3 for s in cp.segments)
        assert cp.hops() == 0

    def test_format_is_readable(self):
        rep = self._report()
        text = format_critical_path(critical_path(rep.trace))
        assert "critical path:" in text
        assert "produce" in text and "network" in text


class TestSimulationChain:
    """The acceptance criterion: on a real dpda run, the chain length
    equals the run's parallel time to 1e-12."""

    @pytest.fixture(scope="class")
    def result(self):
        particles = make_instance("g_5000", scale=0.1, seed=11)
        config = SchemeConfig(scheme="dpda", alpha=0.67, mode="force")
        sim = ParallelBarnesHut(particles, config, p=4, profile=NCUBE2)
        return sim.run(steps=2, trace=True)

    def test_chain_matches_parallel_time(self, result):
        cp = critical_path(result.trace)
        assert cp.length == pytest.approx(result.parallel_time,
                                          abs=1e-12)

    def test_chain_dominated_by_force_phase(self, result):
        phases = by_phase(critical_path(result.trace))
        assert max(phases, key=phases.get) == "force computation"

    def test_per_step_chains(self, result):
        per_step = step_critical_paths(result.trace)
        assert sorted(per_step) == [0, 1]
        for step, cp in per_step.items():
            assert cp.length > 0
            # Each step's chain cannot exceed the whole run.
            assert cp.length <= result.parallel_time + 1e-9

    def test_bytes_matrix_matches_comm_stats(self, result):
        m = bytes_matrix(result.trace)
        assert m.shape == (4, 4)
        assert np.all(np.diag(m) == 0)  # dpda ships no self-traffic bytes?
        for r, rank in enumerate(result.run.ranks):
            assert m[r].sum() == rank.stats.bytes_sent

    def test_recv_bytes_by_tag_closes_the_loop(self, result):
        """Receive-side per-tag volume equals send-side per-tag volume
        machine-wide (fault-free run: nothing duplicated)."""
        sent: dict[int, int] = {}
        got: dict[int, int] = {}
        for rank in result.run.ranks:
            for tag, n in rank.stats.bytes_by_tag.items():
                sent[tag] = sent.get(tag, 0) + n
            for tag, n in rank.stats.recv_bytes_by_tag.items():
                got[tag] = got.get(tag, 0) + n
        assert sent == got

    def test_waterfall_renders_all_ranks(self, result):
        text = phase_waterfall(result.trace, width=40)
        for r in range(4):
            assert f"rank {r:>3d} |" in text
        assert "legend:" in text
        assert "F=force computation" in text

    def test_bytes_matrix_formatting(self, result):
        text = format_bytes_matrix(result.trace)
        assert "src\\dst" in text and "total" in text
