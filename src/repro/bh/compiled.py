"""Compiled kernel tier: optional numba JIT kernels for the hot loops.

The evaluation pass (:func:`repro.bh.interaction_lists.evaluate_pairs`,
behind every force path) is chunked numpy: the cluster pass gathers a
chunk of (node, target) pairs and calls the evaluator's batch method;
the P2P pass is lane-major — a group's rows run down a contiguous axis,
source ``j`` of every row in lane ``j`` of a scratch view.  This module
provides the same two passes as *fused single-pass* compiled kernels:
one loop nest per pair that gathers, differences, applies the softened
inverse-square law and accumulates in place, multi-threaded with
``numba.prange``.

Tier selection
--------------
Three tier names are accepted everywhere a tier can be configured
(:class:`~repro.core.config.SchemeConfig.kernel_tier`, the CLI
``--kernels`` flag, :class:`~repro.bh.interaction_lists.TraversalEngine`):

* ``"numpy"`` — the chunked numpy evaluation (the reference tier).
* ``"numba"`` — the compiled kernels of this module.  Falls back to
  ``"numpy"`` with a one-line warning when numba is not installed
  (install the ``[perf]`` extra).
* ``"auto"`` — ``"numba"`` when available, else ``"numpy"``; never warns.

The compiled kernels cover point-mass cluster arithmetic and all
particle-particle work.  Eligibility is ``compiled_cluster_data(mode)``,
which the two evaluators alone define: :class:`~repro.bh.multipole.
MonopoleExpansion` always returns ``(com, mass, softening)``;
:class:`~repro.bh.multipole.TreeMultipoles` does in force mode and
returns ``None`` for its degree >= 1 series potentials, whose cluster
pass then silently stays on numpy (per pass: the P2P pass of the same
evaluation still compiles).

Determinism
-----------
Results must be bitwise independent of the thread count (the
cross-backend bitwise contracts depend on it).
Every kernel therefore uses *fixed chunk-to-slot ownership*: the flat
pair range is cut into fixed-size chunks, chunk ``c`` is owned by
accumulation slot ``c % ACCUM_SLOTS``, each slot owns a private
accumulation buffer and processes its chunks in increasing order, and
the ``ACCUM_SLOTS`` buffers are reduced serially in slot order.  The
summation tree is a function of the pair list alone — ``prange``
scheduling can move *slots* between threads but never reorders any
addition — so 1, 2 or 64 threads produce bit-identical values.

Exactness contract: the compiled kernels perform the same per-pair
arithmetic as the numpy tier (softened r^2, guarded rsqrt, mass weight)
but accumulate in slot order rather than chunk-scan order, so values
agree to fp accumulation order (~1e-15 relative, asserted at 1e-12 by
tests and benches) and every interaction counter is exactly equal (the
counters come from the walk, which tiers never touch).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from repro.bh import kernels

#: Accepted tier names, in the order the CLI shows them.
KERNEL_TIERS = ("numpy", "numba", "auto")

#: Fixed number of accumulation slots.  This is a *determinism* constant,
#: not a thread count: it bounds usable parallelism of the compiled
#: passes, and changing it changes result bits (the slot reduction
#: order is part of the summation tree).
ACCUM_SLOTS = 16

#: Pairs per ownership chunk inside the compiled kernels.  Fixed (never
#: derived from the thread count) so the chunk → slot map is stable.
CHUNK_PAIRS = 8192

_EMPTY_2D = np.zeros((1, 1))

_numba_checked = False
_numba = None
_warned_missing = False
_kernel_cache: dict | None = None


def _import_numba():
    global _numba_checked, _numba
    if not _numba_checked:
        _numba_checked = True
        try:
            import numba  # type: ignore[import-not-found]
            _numba = numba
        except ImportError:
            _numba = None
    return _numba


def available() -> bool:
    """True when the numba tier can actually compile and run."""
    return _import_numba() is not None


def numba_version() -> str | None:
    """Installed numba version, or ``None`` without the ``[perf]`` extra."""
    nb = _import_numba()
    return nb.__version__ if nb is not None else None


def resolve_tier(tier: str, warn: bool = False) -> str:
    """Resolve a configured tier name to the tier that will execute.

    ``"auto"`` quietly picks ``"numba"`` when available; an explicit
    ``"numba"`` request without numba installed falls back to
    ``"numpy"``, emitting a one-line warning (once per process) when
    ``warn`` is set.
    """
    if tier not in KERNEL_TIERS:
        raise ValueError(f"kernel tier must be one of {KERNEL_TIERS}, "
                         f"got {tier!r}")
    if tier == "numpy":
        return "numpy"
    if available():
        return "numba"
    if tier == "numba" and warn:
        global _warned_missing
        if not _warned_missing:
            _warned_missing = True
            print("warning: kernel tier 'numba' requested but numba is "
                  "not installed; falling back to numpy kernels "
                  "(pip install 'repro[perf]')", file=sys.stderr)
    return "numpy"


def set_threads(threads: int | None) -> None:
    """Clamp and apply a numba thread count (no-op without numba or
    with ``threads=None``).  Thread count never changes result bits —
    see the module determinism contract."""
    nb = _import_numba()
    if nb is None or threads is None:
        return
    limit = nb.config.NUMBA_NUM_THREADS
    nb.set_num_threads(max(1, min(int(threads), limit)))


# ------------------------------------------------------------ jit kernels
def _kernels() -> dict:
    """Compile (once per process) and return the kernel table."""
    global _kernel_cache
    if _kernel_cache is not None:
        return _kernel_cache
    nb = _import_numba()
    if nb is None:
        raise RuntimeError("numba is not installed; the compiled kernel "
                           "tier is unavailable")
    njit, prange = nb.njit, nb.prange
    SLOTS = ACCUM_SLOTS
    CH = CHUNK_PAIRS

    @njit(parallel=True)
    def cluster_potential(targets, tgt, nodes, com, mass, soft2):
        nt, d = targets.shape
        npairs = tgt.shape[0]
        nchunks = (npairs + CH - 1) // CH
        buf = np.zeros((SLOTS, nt))
        for s in prange(SLOTS):
            for c in range(s, nchunks, SLOTS):
                lo = c * CH
                hi = min(lo + CH, npairs)
                for i in range(lo, hi):
                    t = tgt[i]
                    nd = nodes[i]
                    r2 = soft2
                    for k in range(d):
                        dx = targets[t, k] - com[nd, k]
                        r2 += dx * dx
                    if r2 > 0.0:
                        buf[s, t] += mass[nd] / math.sqrt(r2)
        out = np.zeros(nt)
        for s in range(SLOTS):
            for t in range(nt):
                out[t] += buf[s, t]
        return out

    @njit(parallel=True)
    def cluster_force(targets, tgt, nodes, com, mass, soft2):
        nt, d = targets.shape
        npairs = tgt.shape[0]
        nchunks = (npairs + CH - 1) // CH
        buf = np.zeros((SLOTS, nt, d))
        for s in prange(SLOTS):
            for c in range(s, nchunks, SLOTS):
                lo = c * CH
                hi = min(lo + CH, npairs)
                for i in range(lo, hi):
                    t = tgt[i]
                    nd = nodes[i]
                    r2 = soft2
                    for k in range(d):
                        dx = targets[t, k] - com[nd, k]
                        r2 += dx * dx
                    if r2 > 0.0:
                        inv = 1.0 / math.sqrt(r2)
                        w = mass[nd] * inv * inv * inv
                        for k in range(d):
                            buf[s, t, k] += w * (targets[t, k]
                                                 - com[nd, k])
        out = np.zeros((nt, d))
        for s in range(SLOTS):
            for t in range(nt):
                for k in range(d):
                    out[t, k] += buf[s, t, k]
        return out

    @njit(parallel=True)
    def p2p_potential(tpos, tgt, rows, sp, sm, uniform, soft2, nt):
        n = tgt.shape[0]
        ns = sp.shape[1]
        d = sp.shape[2]
        nchunks = (n + CH - 1) // CH
        buf = np.zeros((SLOTS, nt))
        for s in prange(SLOTS):
            for c in range(s, nchunks, SLOTS):
                lo = c * CH
                hi = min(lo + CH, n)
                for i in range(lo, hi):
                    b = rows[i]
                    acc = 0.0
                    for j in range(ns):
                        r2 = soft2
                        for k in range(d):
                            dx = tpos[i, k] - sp[b, j, k]
                            r2 += dx * dx
                        if r2 > 0.0:
                            w = 1.0 / math.sqrt(r2)
                            if not uniform:
                                w *= sm[b, j]
                            acc += w
                    buf[s, tgt[i]] += acc
        out = np.zeros(nt)
        for s in range(SLOTS):
            for t in range(nt):
                out[t] += buf[s, t]
        return out

    @njit(parallel=True)
    def p2p_force(tpos, tgt, rows, sp, sm, uniform, soft2, nt):
        n = tgt.shape[0]
        ns = sp.shape[1]
        d = sp.shape[2]
        nchunks = (n + CH - 1) // CH
        buf = np.zeros((SLOTS, nt, d))
        for s in prange(SLOTS):
            for c in range(s, nchunks, SLOTS):
                lo = c * CH
                hi = min(lo + CH, n)
                for i in range(lo, hi):
                    b = rows[i]
                    t = tgt[i]
                    for j in range(ns):
                        r2 = soft2
                        for k in range(d):
                            dx = tpos[i, k] - sp[b, j, k]
                            r2 += dx * dx
                        if r2 > 0.0:
                            inv = 1.0 / math.sqrt(r2)
                            w = inv * inv * inv
                            if not uniform:
                                w *= sm[b, j]
                            for k in range(d):
                                buf[s, t, k] += w * (tpos[i, k]
                                                     - sp[b, j, k])
        out = np.zeros((nt, d))
        for s in range(SLOTS):
            for t in range(nt):
                for k in range(d):
                    out[t, k] += buf[s, t, k]
        return out

    _kernel_cache = {
        "cluster_potential": cluster_potential,
        "cluster_force": cluster_force,
        "p2p_potential": p2p_potential,
        "p2p_force": p2p_force,
    }
    return _kernel_cache


def warm_up(mode: str = "force") -> None:
    """Force JIT compilation of the kernels for ``mode`` (both passes)
    on a two-pair toy problem, so timed runs never pay compile cost."""
    targets = np.zeros((2, 3))
    targets[1] = 1.0
    tgt = np.array([0, 1], dtype=np.int64)
    nodes = np.array([0, 0], dtype=np.int64)
    com = np.ones((1, 3))
    mass = np.ones(1)
    cluster_pass(np.zeros(2) if mode == "potential" else np.zeros((2, 3)),
                 targets, tgt, nodes, com, mass, 0.1, mode)
    sp = np.zeros((1, 2, 3))
    sp[0, 1] = 2.0
    p2p_group_pass(np.zeros(2) if mode == "potential"
                   else np.zeros((2, 3)),
                   targets, tgt, np.zeros(2, dtype=np.int64), sp,
                   np.ones((1, 2)), False, 0.1, -kernels.G, mode)


# ------------------------------------------------------------ pass fronts
def cluster_pass(values: np.ndarray, targets: np.ndarray,
                 tgt: np.ndarray, nodes: np.ndarray, com: np.ndarray,
                 mass: np.ndarray, softening: float, mode: str,
                 threads: int | None = None) -> None:
    """Fused monopole cluster pass over flat (node, target) pairs.

    ``com``/``mass`` are indexed by ``nodes``.
    Accumulates ``-G * m / r`` (potential) or ``-G * m * dr / r^3``
    (force) onto ``values`` in place.
    """
    k = _kernels()
    set_threads(threads)
    soft2 = float(softening) ** 2
    fn = k["cluster_potential" if mode == "potential" else "cluster_force"]
    out = fn(targets, np.ascontiguousarray(tgt, dtype=np.int64),
             np.ascontiguousarray(nodes, dtype=np.int64),
             np.ascontiguousarray(com), np.ascontiguousarray(mass),
             soft2)
    out *= -kernels.G
    values += out


def p2p_group_pass(values: np.ndarray, tpos: np.ndarray, tgt: np.ndarray,
                   rows: np.ndarray, sp: np.ndarray,
                   sm: np.ndarray | None, uniform: bool, softening: float,
                   scale: float, mode: str,
                   threads: int | None = None) -> None:
    """Fused particle-particle pass over one leaf-size group.

    The P2P pass of the evaluation feeds each ``(tgt, starts, ns)``
    group as one ``(ns, d)`` source block per row: row ``i`` interacts target position ``tpos[i]`` (accumulated into
    ``values[tgt[i]]``) with source block ``sp[rows[i]]`` (masses
    ``sm[rows[i]]`` unless ``uniform``).  ``scale`` carries ``-G`` and,
    for uniform masses, the common mass factor.
    """
    k = _kernels()
    set_threads(threads)
    soft2 = float(softening) ** 2
    fn = k["p2p_potential" if mode == "potential" else "p2p_force"]
    out = fn(np.ascontiguousarray(tpos),
             np.ascontiguousarray(tgt, dtype=np.int64),
             np.ascontiguousarray(rows, dtype=np.int64),
             np.ascontiguousarray(sp),
             _EMPTY_2D if sm is None else np.ascontiguousarray(sm),
             bool(uniform), soft2, values.shape[0])
    out *= scale
    values += out

