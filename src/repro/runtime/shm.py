"""Shared-memory payload codec for the process transport.

Messages between rank processes carry arbitrary Python payloads
(particle sets, branch-node dicts, request bins).  Small payloads ride
the pipe as ordinary pickle bytes, but the hot payloads of every scheme
are large numpy arrays — particle coordinate blocks moving through the
balancing exchange — and pushing those through a pipe means two extra
copies through kernel buffers.  This codec lifts every large, simple-
dtype array out of the pickle stream into one per-message
``multiprocessing.shared_memory`` block:

* :func:`encode` pickles the payload with a ``persistent_id`` hook that
  replaces each qualifying array with a slot index, then copies all
  extracted arrays into one freshly created shared-memory block.  The
  sender immediately closes its mapping and *unregisters* the block
  from its own ``resource_tracker`` — ownership transfers with the
  message.
* :func:`decode` attaches the named block, copies each array out (the
  receiver owns its data; no lifetime coupling), then closes **and
  unlinks** the block.  Exactly one unlink per block, by the receiver.

Bitwise fidelity: arrays are transported as raw bytes of a C-contiguous
copy, so values round-trip exactly; pickle round-trips Python floats
exactly as well.  Aliasing of one array referenced twice inside a
payload is preserved (both references decode to the same object).

If the platform has no usable shared memory the codec degrades to plain
pickling (``threshold=None`` disables extraction explicitly).
"""

from __future__ import annotations

import atexit
import io
import itertools
import os
import pickle
import signal
import threading
from typing import Any

import numpy as np

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shm
    from multiprocessing import resource_tracker as _tracker
except ImportError:  # pragma: no cover
    _shm = None
    _tracker = None

#: Arrays at or above this many bytes go to shared memory by default.
#: Below it, the pickle-stream copy is cheaper than a block handoff.
DEFAULT_SHM_THRESHOLD = 1 << 14  # 16 KiB

_name_counter = itertools.count()


def _eligible(obj: Any, threshold: int) -> bool:
    # Simple numeric dtypes only: structured/void/object dtypes do not
    # survive the ``dtype.str`` round trip and ride the pickle stream.
    return (type(obj) is np.ndarray
            and obj.nbytes >= threshold
            and obj.dtype.kind in "biufc")


class _ExtractingPickler(pickle.Pickler):
    """Pickler that swaps large arrays for ``("a", slot)`` persistent ids."""

    def __init__(self, file, threshold: int):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.threshold = threshold
        self.arrays: list[np.ndarray] = []
        self._slots: dict[int, int] = {}

    def persistent_id(self, obj):
        if not _eligible(obj, self.threshold):
            return None
        slot = self._slots.get(id(obj))
        if slot is None:
            slot = len(self.arrays)
            self._slots[id(obj)] = slot
            self.arrays.append(np.ascontiguousarray(obj))
        return ("a", slot)


class _ResolvingUnpickler(pickle.Unpickler):
    def __init__(self, file, arrays: list[np.ndarray]):
        super().__init__(file)
        self.arrays = arrays

    def persistent_load(self, pid):
        kind, slot = pid
        if kind != "a":  # pragma: no cover - future-proofing
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        return self.arrays[slot]


def _forget(shm) -> None:
    """Drop a freshly created block from this process's resource tracker.

    The receiver unlinks the block; without this, the creator's tracker
    would warn about (or double-unlink) blocks it no longer owns.
    """
    if _tracker is None:  # pragma: no cover
        return
    try:
        _tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker is best-effort
        pass


def encode(payload: Any, name_prefix: str = "repro",
           threshold: int | None = DEFAULT_SHM_THRESHOLD) -> tuple:
    """Encode ``payload`` into ``(pickle_bytes, block_info)``.

    ``block_info`` is ``None`` when everything fits the pickle stream,
    else ``(block_name, [(offset, dtype_str, shape), ...])`` describing
    one shared-memory block holding the extracted arrays in order.
    """
    if _shm is None or threshold is None:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL), None
    buf = io.BytesIO()
    pickler = _ExtractingPickler(buf, threshold)
    pickler.dump(payload)
    arrays = pickler.arrays
    if not arrays:
        return buf.getvalue(), None
    total = sum(a.nbytes for a in arrays)
    name = f"{name_prefix}_{os.getpid()}_{next(_name_counter)}"
    block = _shm.SharedMemory(create=True, size=max(total, 1), name=name)
    descs = []
    offset = 0
    for a in arrays:
        dest = np.ndarray(a.shape, dtype=a.dtype, buffer=block.buf,
                          offset=offset)
        dest[...] = a
        descs.append((offset, a.dtype.str, a.shape))
        offset += a.nbytes
    _forget(block)
    block.close()
    return buf.getvalue(), (block.name, descs)


def decode(data: bytes, block_info) -> Any:
    """Decode :func:`encode` output; unlinks the shared block if any."""
    if block_info is None:
        return pickle.loads(data)
    name, descs = block_info
    block = _shm.SharedMemory(name=name)
    try:
        arrays = [
            np.ndarray(shape, dtype=np.dtype(dt), buffer=block.buf,
                       offset=off).copy()
            for off, dt, shape in descs
        ]
        return _ResolvingUnpickler(io.BytesIO(data), arrays).load()
    finally:
        block.close()
        try:
            block.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass


# ------------------------------------------------------- crash-safe sweeping
#
# Ownership of an in-flight block belongs to the *message*: the sender
# forgets it, the receiver unlinks it.  When the receiver is killed
# mid-flight (a SIGKILL'd worker, a host dying on an exception path
# that never reaches its ``finally``), nobody unlinks and the block
# outlives the run.  The host therefore registers each run's block
# prefix here; an ``atexit`` hook and a chained ``SIGTERM`` handler
# sweep every registered prefix on the way down.  Engines release their
# prefix after their own (more precise) teardown sweep, so on healthy
# runs these hooks find nothing to do.

_active_prefixes: set[str] = set()
_prefix_lock = threading.Lock()
_hooks_installed = False
_prev_sigterm = None


def _sweep_registered() -> int:
    with _prefix_lock:
        prefixes = list(_active_prefixes)
    return sum(cleanup_blocks(p) for p in prefixes)


def _sigterm_sweep(signum, frame):  # pragma: no cover - signal path
    _sweep_registered()
    handler = _prev_sigterm
    if callable(handler):
        handler(signum, frame)
    else:
        # Restore default disposition and re-deliver so the process
        # still dies with the conventional SIGTERM status.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)


def _install_cleanup_hooks() -> None:
    global _hooks_installed, _prev_sigterm
    if _hooks_installed:
        return
    _hooks_installed = True
    atexit.register(_sweep_registered)
    # Signal handlers can only be installed from the main thread; an
    # engine driven from a worker thread still gets the atexit sweep.
    if threading.current_thread() is threading.main_thread():
        try:
            prev = signal.getsignal(signal.SIGTERM)
            if prev not in (signal.SIG_IGN,):
                _prev_sigterm = None if prev is signal.SIG_DFL else prev
                signal.signal(signal.SIGTERM, _sigterm_sweep)
        except (ValueError, OSError):  # pragma: no cover
            pass


def register_prefix(name_prefix: str) -> None:
    """Arm the crash sweep for one run's block prefix."""
    _install_cleanup_hooks()
    with _prefix_lock:
        _active_prefixes.add(name_prefix)


def release_prefix(name_prefix: str) -> None:
    """Disarm the crash sweep after a run's own teardown sweep ran."""
    with _prefix_lock:
        _active_prefixes.discard(name_prefix)


def forget_inherited_state() -> None:
    """Reset fork-inherited sweep state inside a new worker process.

    A forked worker inherits the host's registered prefixes and SIGTERM
    handler; if the host later terminates that worker mid-run, the
    inherited handler would sweep blocks of messages still in flight to
    *other* ranks.  Workers call this first: clear the registry and put
    SIGTERM back to its default disposition.
    """
    global _hooks_installed, _prev_sigterm
    with _prefix_lock:
        _active_prefixes.clear()
    if _hooks_installed:
        _hooks_installed = False
        if threading.current_thread() is threading.main_thread():
            try:
                if signal.getsignal(signal.SIGTERM) is _sigterm_sweep:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
            except (ValueError, OSError):  # pragma: no cover
                pass
        _prev_sigterm = None


def cleanup_blocks(name_prefix: str) -> int:
    """Best-effort unlink of leftover blocks with ``name_prefix``.

    Messages in flight when a run is torn down (a worker was terminated
    after another rank failed) would otherwise leak their blocks until
    reboot; the process engine's teardown reclaims through this sweep
    alone.  Returns the number of blocks reclaimed.  POSIX-only; a
    no-op where ``/dev/shm`` does not exist.
    """
    if _shm is None:
        return 0
    reclaimed = 0
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return 0
    for fname in names:
        if not fname.startswith(name_prefix):
            continue
        try:
            block = _shm.SharedMemory(name=fname)
        except FileNotFoundError:
            continue
        block.close()
        try:
            block.unlink()  # unlink also unregisters from the tracker
            reclaimed += 1
        except FileNotFoundError:  # pragma: no cover
            pass
    return reclaimed
