"""Nothing in ``src/`` exists only for the tests or an example: oracles
live in ``tests/oracles``, demos in ``examples/``."""

import importlib
import pkgutil
import subprocess
import sys

import repro


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


def test_importing_repro_loads_no_tests_or_examples():
    code = ("import sys, repro.__main__, repro.analysis, repro.runtime; "
            "print([m for m in sys.modules "
            "if m.split('.')[0] in ('tests', 'examples', 'fmm')])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
