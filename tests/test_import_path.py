"""Nothing in ``src/`` exists only for the tests or an example: oracles
live in ``tests/oracles``, demos in ``examples/``; and no force path
keeps a private copy of the arithmetic."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main


def test_no_reference_implementation_in_the_package():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        leftovers = [name for name in vars(module)
                     if name.endswith("_reference")]
        assert not leftovers, (info.name, leftovers)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == info.name:
                assert not [name for name in vars(cls)
                            if name.endswith("_reference")], cls


REPO = Path(__file__).resolve().parents[1]


def _uses(path: Path) -> dict[str, list[int]]:
    """Line numbers of every word in ``path``, except in ``__all__``
    lists and, in an ``__init__.py``, its imports (re-exports)."""
    text = path.read_text()
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)) \
                or (path.name == "__init__.py"
                    and isinstance(node, (ast.Import, ast.ImportFrom))):
            skip.update(range(node.lineno, node.end_lineno + 1))
    uses: dict[str, list[int]] = {}
    for i, line in enumerate(text.splitlines(), 1):
        if i not in skip:
            for word in re.findall(r"\w+", line):
                uses.setdefault(word, []).append(i)
    return uses


def test_every_definition_is_used_outside_the_tests():
    """Every function, method and class in ``src/repro`` is named in
    ``src/``, ``benchmarks/`` or ``examples/`` outside its own
    definition: nothing on the import path exists only for the tests."""
    uses = {path: _uses(path)
            for top in ("src", "benchmarks", "examples")
            for path in sorted((REPO / top).rglob("*.py"))}
    unused = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                    or re.fullmatch(r"__\w+__", node.name):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            if not any(other != path
                       or not first <= line <= node.end_lineno
                       for other, words in uses.items()
                       for line in words.get(node.name, ())):
                unused.append(f"{path.relative_to(REPO)}:{node.lineno} "
                              f"{node.name}")
    assert not unused, "defined in src/ but used only by the tests:\n" \
        + "\n".join(unused)


def test_build_tree_has_no_size_dispatch_constant():
    import repro.bh.tree
    assert not hasattr(repro.bh.tree, "SMALL_BUILD_CUTOFF")


def test_angle_form_harmonics_live_with_the_fmm_example():
    """The library's solid harmonics are Cartesian recurrences; the
    angle route is only ``examples/fmm/harmonics.py`` (M2L / L2L need
    ``Y`` on shift vectors) and the tests' oracle."""
    import repro.bh.multipole
    for name in ("spherical_coords", "_legendre_table",
                 "spherical_harmonics"):
        assert not hasattr(repro.bh.multipole, name), name


def test_one_far_field_evaluator_and_one_p2p_kernel():
    """The top tree and data shipping hold no private copy of the
    cluster or P2P arithmetic, neither point masses, the series nor the
    direct sum has a numpy kernel beside the C ones (``repro.bh.kernels``
    and the working-set constants are gone), and per-node evaluators
    (the traversal oracle's business) are off the import path."""
    import repro.bh
    from repro.bh import interaction_lists, multipole
    from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
    from repro.core.data_shipping import DataShippingEngine
    from repro.core.tree_merge import TopTree

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.bh.kernels")
    gone = {
        repro.bh: ("MultipoleExpansion3D", "kernels"),
        interaction_lists: ("DEFAULT_WORKING_SET_BYTES", "_series_pass"),
        multipole: ("point_masses", "m2p", "m2p_row_bytes",
                    "MultipoleExpansion3D"),
        MonopoleExpansion: ("node_potential", "node_force",
                            "batch_potential", "batch_force",
                            "batch_row_bytes"),
        TreeMultipoles: ("node_potential", "node_force", "batch_force",
                         "batch_potential", "batch_row_bytes"),
        TopTree: ("node_potential", "node_force", "batch_potential",
                  "batch_force", "batch_row_bytes", "_table"),
        DataShippingEngine: ("_eval_far", "_eval_leaves"),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)


def test_data_shipping_is_rows_not_node_objects():
    """Data shipping ships, mirrors and serves rows of one table keyed
    by anchored ``uint64`` keys: no per-node object, no cache class, no
    per-node export or addressing, no per-node seeding loop."""
    from repro.bh.distributions import plummer
    from repro.core import data_shipping
    from repro.core.config import SchemeConfig
    from repro.core.partition import Cell
    from repro.core.tree_build import build_local_trees, local_branch_infos
    from repro.core.tree_merge import merge_broadcast
    from repro.machine.engine import Engine

    ps = plummer(64, seed=1)
    root = ps.bounding_box()

    def main(comm):
        cfg = SchemeConfig(mode="potential")
        subs = build_local_trees(ps, [Cell(1, j) for j in range(8)], root,
                                 cfg, 10)
        top = merge_broadcast(comm, local_branch_infos(subs, 0, root, 0),
                              root, 0)
        return data_shipping.DataShippingEngine(comm, cfg, top, subs, ps)

    engine = Engine(1).run(main).values[0]
    gone = {
        data_shipping: ("CachedNode", "HashedOctreeCache", "_node_cell",
                        "_export_node", "_node_wire_bytes"),
        engine: ("_seed_cache_from_top", "_local_nodes", "_table_evaluator",
                 "cache", "subtrees"),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)


def test_one_arithmetic_backend():
    """The evaluation passes have one backend each: no second backend
    module, no option that selects one, no evaluator hook that feeds
    one."""
    from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
    from repro.core.config import SchemeConfig

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.bh.compiled")
    with pytest.raises(TypeError):
        SchemeConfig(kernel_tier="numpy")
    for evaluator in (MonopoleExpansion, TreeMultipoles):
        assert not hasattr(evaluator, "compiled_cluster_data"), evaluator
    with pytest.raises(SystemExit) as exc:
        main(["run", "--kernels", "numpy"])
    assert exc.value.code == 2


def test_one_traversal_path():
    """``TraversalEngine.compute`` streams and caches nothing, so no
    walk cache, no repair bookkeeping that only the cache read, and no
    incremental multipole refresh are left beside it."""
    import dataclasses

    from repro.bh import interaction_lists, traversal, tree_repair
    from repro.bh.multipole import TreeMultipoles
    from repro.bh.particles import ParticleSet
    from repro.bh.tree import build_tree

    gone = {
        interaction_lists.TraversalEngine: ("compute_once", "lists_for",
                                            "apply_repair"),
        interaction_lists: ("subset_interaction_lists",),
        tree_repair: ("refresh_multipoles",),
        TreeMultipoles: ("refresh",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    ps = ParticleSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 1.0])
    tree = build_tree(ps)
    with pytest.raises(TypeError):
        interaction_lists.TraversalEngine(tree, ps, cache_size=8)
    with pytest.raises(TypeError):
        traversal.compute_potentials(ps, engine=None)
    assert [f.name for f in dataclasses.fields(tree_repair.RepairResult)] \
        == ["tree", "rebuilt", "n_changed_keys", "nodes_reused",
            "nodes_rebuilt"]


def test_building_a_simulation_loads_no_process_runtime():
    """The restart policy lives with the checkpoints, so the host driver
    holds one without importing the process backend."""
    code = ("import sys; from repro import ParallelBarnesHut, SchemeConfig, "
            "plummer; sim = ParallelBarnesHut(plummer(64, seed=1), "
            "SchemeConfig(), p=2, max_restarts=2); "
            "print(sim.restart_policy.max_restarts, "
            "'repro.runtime' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["2", "False"]


def test_importing_repro_loads_no_tests_or_examples():
    code = ("import sys, repro.__main__, repro.analysis, repro.runtime; "
            "print([m for m in sys.modules "
            "if m.split('.')[0] in ('tests', 'examples', 'fmm')])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_one_top_tree_build():
    """The top tree is built from anchored-key arrays through the local
    trees' own upward passes: no ``set[Cell]`` build beside it, no
    second ancestor walk for the merge charge, and its merged series is
    one ``TreeMultipoles`` that every engine evaluates directly."""
    import dataclasses
    import inspect

    from repro.core import tree_merge
    from repro.core.partition import Cell

    for owner, name in ((tree_merge, "_internal_count"),
                        (tree_merge, "_check_disjoint"),
                        (Cell, "parent")):
        assert not hasattr(owner, name), (owner, name)
    assert [f.name for f in dataclasses.fields(tree_merge.TopTree)] \
        == ["tree", "branch_index", "multipoles"]
    assert list(inspect.signature(tree_merge.build_top_tree).parameters) \
        == ["branches", "root", "degree", "lookup_kind"]


def test_every_receive_names_its_stream():
    """No wildcard, requeue, probe or real-time poll on the rank-program
    side: a receive is one ``(src, tag)`` lookup."""
    from repro.machine import comm, mailbox, transport
    from repro.runtime import process_transport

    gone = {
        mailbox: ("ANY_SOURCE", "ANY_TAG"),
        mailbox.Mailbox: ("requeue", "probe", "pending_count", "_match"),
        transport.Endpoint: ("poll", "requeue", "probe"),
        transport.LocalEndpoint: ("poll", "requeue", "probe"),
        process_transport.ProcessEndpoint: ("poll", "requeue", "probe"),
        comm.Comm: ("ANY_SOURCE", "ANY_TAG", "poll_msg", "probe", "isend"),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)


def test_one_scheduler_owns_every_wait():
    """Thread ranks wait only in ``LocalTransport``'s scheduler: no
    baton, no mailbox ``Condition`` or re-acquire, no waits board, and
    each endpoint's ``get`` raises its own ``DeadlockError``."""
    from repro.machine import comm, mailbox, transport

    gone = {
        mailbox: ("threading",),
        mailbox.Mailbox: ("close", "holds_baton", "_late"),
        transport.LocalTransport: ("baton", "waits", "close_all"),
        transport.Endpoint: ("set_wait", "deadlock_snapshot"),
        comm.Comm: ("_blocking_get",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    box = mailbox.Mailbox(0)
    assert not hasattr(box, "_cond") and not hasattr(box, "_baton")


def test_test_only_helpers_live_in_the_tests():
    """Helpers only tests called are local to those tests, and SPDA's
    partition is the costzones midpoint rule, not a copy of it."""
    import repro.core
    import repro.machine
    from repro.core import load_model, morton_assign
    from repro.machine import topology

    gone = {
        load_model: ("reset_interaction_counters",),
        morton_assign: ("morton_partition", "partition_imbalance"),
        repro.core: ("morton_partition",),
        topology: ("gray_code_rank",),
        repro.machine: ("gray_code_rank",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)


def test_each_step_stage_has_one_home():
    """The exchange, the forest and the advance live in their own
    modules — not copied or re-exported by the driver — and none of
    them reaches back into the driver or the process runtime."""
    import ast
    import inspect

    from repro.core import exchange, forest, simulation, stepping

    gone = {
        simulation: ("_Shard", "_exchange", "_Forest"),
        simulation._RankState: (
            "_do_exchange", "_owners_from_keys", "_build_forest",
            "_refresh_forest", "_merged_forest", "_merge_top",
            "_block_schedule", "_record_loads", "_merge_force"),
        simulation.ParallelBarnesHut: ("_recovery_args", "_initial_args"),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert exchange.Shard.__slots__ == ("particles", "keys", "state")
    for module in (exchange, forest, stepping):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}"
                                for alias in node.names)
        assert not [name for name in imported
                    if name == "repro.core.simulation"
                    or name.split(".")[:2] == ["repro", "runtime"]], module


def test_one_trace_recorder_per_rank():
    """A rank's virtual and wall events live in one ``RankTrace``: no
    machine-wide tracer, no separate wall recorder, one trace hook on
    the clock and the communicator, and engines that take
    ``trace: bool``.  The knobs only tests set are module constants."""
    import inspect

    import repro.machine
    from repro.core.simulation import ParallelBarnesHut
    from repro.machine import comm, engine, trace
    from repro.machine.clock import VirtualClock
    from repro.runtime import ProcessEngine, process_transport

    gone = {
        repro.machine: ("Tracer",),
        trace: ("Tracer", "WallRecorder"),
        trace.Trace: ("adopt_wall_spans", "finish"),
        comm: ("Tracer", "WallRecorder"),
        engine: ("Tracer", "WallRecorder"),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert repro.machine.RankTrace is trace.RankTrace
    clock = VirtualClock()
    assert not {"_tracer", "_wall_tracer", "_rank"} & set(vars(clock))
    for run in (engine.Engine.run, ProcessEngine.run):
        params = inspect.signature(run).parameters
        assert "tracer" not in params
        assert params["trace"].default is False
    assert "tracer" not in inspect.signature(engine.rank_comm).parameters
    assert not {"tracer", "wall_tracer"} & set(
        inspect.signature(comm.Comm).parameters)
    endpoint = process_transport.ProcessEndpoint(0, 1, [None], None)
    assert endpoint.trace is None and not hasattr(endpoint, "wall_tracer")
    assert "engine_options" not in inspect.signature(
        ParallelBarnesHut).parameters
    assert not {"heartbeat_interval", "heartbeat_timeout",
                "telemetry_interval"} & set(
        inspect.signature(ProcessEngine).parameters)
