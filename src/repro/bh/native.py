"""The compiled kernels (``_kernels.c``): built once per source, loaded
by ``ctypes``.

The first import on a host compiles ``_kernels.c`` with the system C
compiler (``$CC``, default ``cc``) and :data:`FLAGS` into the cache
directory ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), under
a name keyed by the SHA-256 of the source, the flags and the machine
architecture; every later import loads that file.  The compiler writes
to a temporary file in the cache directory, which is then renamed into
place, so processes that race on an empty cache each load a complete
library and one file remains.

There is no fallback: a host without the compiler, or with a cache
directory it cannot write, gets a :class:`KernelBuildError` naming the
command or the path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import tempfile
from pathlib import Path

#: The kernel source, shipped as package data.
SOURCE = Path(__file__).with_name("_kernels.c")

#: Fixed compile flags.  ``-ffp-contract=off``: gcc fuses multiply-adds
#: by default where the target has them (aarch64), which changes the
#: bits; no ``-ffast-math`` and no ``-march``, so every host of an
#: architecture computes the same bits.
FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-fno-math-errno",
         "-fPIC", "-shared")


class KernelBuildError(RuntimeError):
    """The kernel library could not be compiled, cached or loaded."""


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, by default ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(root) / "repro"


def cache_key(source: bytes) -> str:
    """SHA-256 of ``source``, :data:`FLAGS` and the machine
    architecture."""
    h = hashlib.sha256(source)
    h.update("\0".join((*FLAGS, platform.machine())).encode())
    return h.hexdigest()


def build(source: Path = SOURCE) -> Path:
    """The cached library of ``source``, compiled first if the cache
    has none."""
    path = cache_dir() / f"kernels-{cache_key(source.read_bytes())[:24]}.so"
    if path.exists():
        return path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".build-",
                                   suffix=".so")
    except OSError as exc:
        raise KernelBuildError(
            f"kernel cache directory {path.parent} is not writable: {exc}"
        ) from exc
    os.close(fd)
    # Imported here: a warm cache never runs a compiler (0.5 MiB less
    # resident in every process that only loads the library).
    import shlex
    import subprocess
    cmd = [*shlex.split(os.environ.get("CC", "cc")), *FLAGS, "-o", tmp,
           str(source)]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(
                f"cannot run the C compiler: {shlex.join(cmd)}: {exc}"
            ) from exc
        if proc.returncode != 0:
            raise KernelBuildError(
                f"{shlex.join(cmd)} failed (exit {proc.returncode}):\n"
                f"{proc.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


_i64, _f64, _ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


def _fields(*groups) -> list:
    """ctypes fields from ``(names, type)`` groups, names space-separated."""
    return [(name, kind) for names, kind in groups for name in names.split()]


class Far(ctypes.Structure):
    """``struct far`` of ``_kernels.c``: the far field of accepted
    pairs, point masses or (``mass`` NULL) a degree >= 1 series."""

    _fields_ = _fields(("x", _ptr), ("x_s0 x_s1 nnodes", _i64),
                       ("mass table factors", _ptr), ("degree", _i64),
                       ("soft2 neg_g", _f64))


class Group(ctypes.Structure):
    """``struct group`` of ``_kernels.c``: one P2P leaf-size group,
    passed by pointer (as 21 arguments it would pass the 19 under which
    CPython 3.11's ``ctypes`` calls kept nothing resident)."""

    _fields_ = _fields(("tgt starts rows", _ptr),
                       ("ntgt nvisits ns nt nsrc", _i64), ("tp", _ptr),
                       ("tp_s0 tp_s1", _i64), ("sp", _ptr),
                       ("sp_s0 sp_s1", _i64), ("sm", _ptr),
                       ("soft2 scale", _f64), ("out", _ptr),
                       ("out_s0 out_s1", _i64))


class Walk(ctypes.Structure):
    """``struct walk`` of ``_kernels.c``, field for field: the ``walk``
    entry takes one pointer, not 60 arguments (see :func:`load`).
    Pointers are addresses, strides are in elements."""

    _fields_ = _fields(
        ("nnodes nchild d", _i64), ("cls children com", _ptr),
        ("com_s0 com_s1", _i64), ("center", _ptr),
        ("center_s0 center_s1", _i64), ("half reach start end", _ptr),
        ("alpha", _f64), ("tp", _ptr),
        ("tp_s0 tp_s1 lo hi chunk stride offset", _i64), ("far", Far),
        ("sp", _ptr), ("sp_s0 sp_s1", _i64), ("sm", _ptr), ("nsrc", _i64),
        ("soft2 scale", _f64), ("force", _i64), ("out", _ptr),
        ("out_s0 out_s1", _i64), ("counts", _ptr), ("counts_s0", _i64),
        ("node_count", _ptr), ("mac_tests clusters p2p", _i64),
        ("rem_node rem_len rem_tgt", _ptr),
        ("nrem nrem_tgt rem_node_cap rem_tgt_cap", _i64), ("arena", _ptr),
        ("arena_cap", _i64), ("stack", _ptr), ("stack_cap", _i64))


def load() -> ctypes.CDLL:
    """Build (if needed) and load the library of :data:`SOURCE`, its
    entry points typed."""
    path = build()
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelBuildError(f"cannot load {path}: {exc}") from exc
    i64, ptr = _i64, _ptr
    lib.p2p_group.restype = ctypes.c_int
    lib.p2p_group.argtypes = (ctypes.POINTER(Group), ctypes.c_int,
                              ctypes.c_int)                    # d, force
    lib.point_masses.restype = ctypes.c_int
    lib.point_masses.argtypes = (
        ptr, i64, i64, ptr, ptr, i64, i64, ctypes.c_int,       # out .. d
        ptr, i64, i64, ctypes.POINTER(Far), ctypes.c_int)      # tp, far ..
    lib.walk.restype = ctypes.c_int
    lib.walk.argtypes = (ctypes.POINTER(Walk),)
    return lib


#: The library of this package's ``_kernels.c``.
LIB = load()
