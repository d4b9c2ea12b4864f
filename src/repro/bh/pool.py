"""The traversal's worker threads: one pool per process, each worker
pinned to one CPU.

A traversal split over T threads (:func:`repro.bh.interaction_lists._walk`)
hands each worker one C ``walk`` call, which releases the GIL, and the
calling thread waits for all of them.  Each worker pins itself to its
CPU (``os.sched_setaffinity`` on a thread sets that thread's mask):
unpinned, the OS kept scheduling a worker onto the waiting caller's
CPU while another CPU stood idle.

Which CPUs a rank's walks use (:func:`rank_cpus`): on the virtual
backend the thread ranks run one at a time, so the running rank may use
every CPU of the process's affinity mask; on the process backend each
rank process gets ``cpus // p`` of them (at least one), its own slice.
One CPU means no pool: the walk runs on the rank's own thread.  The
mask is the one knob: ``taskset -c 0`` runs every walk on one thread.

The pool starts on first use, never at import, and belongs to the
process that made it: a forked child starts without it (the fork hook
below) and makes its own.
"""

from __future__ import annotations

import os
import queue
import threading


def host_cpus() -> tuple[int, ...]:
    """The CPUs this process may run on, ascending."""
    try:
        return tuple(sorted(os.sched_getaffinity(0)))
    except AttributeError:                  # no affinity API (macOS)
        return tuple(range(os.cpu_count() or 1))


def rank_cpus(p: int, backend: str) -> list[tuple[int, ...]]:
    """Per rank, the CPU of each of its traversal threads (see the
    module docstring)."""
    cpus = host_cpus()
    if backend != "process":
        return [cpus] * p
    k = max(1, len(cpus) // p)
    return [tuple(cpus[(r * k + i) % len(cpus)] for i in range(k))
            for r in range(p)]


class _Pool:
    """One worker thread per entry of ``cpus``, pinned to it."""

    def __init__(self, cpus: tuple[int, ...]):
        self.cpus = cpus
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._inboxes = [queue.SimpleQueue() for _ in cpus]
        self._workers = [
            threading.Thread(target=self._serve, args=(cpu, inbox),
                             name=f"repro-walk-{k}", daemon=True)
            for k, (cpu, inbox) in enumerate(zip(cpus, self._inboxes))]
        for worker in self._workers:
            worker.start()

    def _serve(self, cpu: int, inbox: queue.SimpleQueue) -> None:
        try:
            os.sched_setaffinity(0, {cpu})
        except (AttributeError, OSError):   # no affinity API, or not allowed
            pass
        while (task := inbox.get()) is not None:
            k, fn = task
            try:
                self._done.put((k, fn(), None))
            except BaseException as exc:    # re-raised by the caller
                self._done.put((k, None, exc))

    def run(self, tasks: list) -> list:
        for k, fn in enumerate(tasks):
            self._inboxes[k].put((k, fn))
        results = [None] * len(tasks)
        errors = []
        for _ in tasks:
            k, value, exc = self._done.get()
            results[k] = value
            if exc is not None:
                errors.append(exc)
        if errors:
            raise errors[0]
        return results

    def close(self) -> None:
        for inbox in self._inboxes:
            inbox.put(None)
        for worker in self._workers:
            worker.join()


_pool: _Pool | None = None
_lock = threading.Lock()


def run(cpus: tuple[int, ...], tasks: list) -> list:
    """``tasks[k]()`` on the worker pinned to ``cpus[k]``, all at once
    (``len(tasks) <= len(cpus)``); their results in order once every
    one has returned, or the first exception raised.  The pool of
    ``cpus`` is made on first use and replaces a pool of other CPUs."""
    global _pool
    with _lock:
        if _pool is None or _pool.cpus != cpus:
            if _pool is not None:
                _pool.close()
            _pool = _Pool(cpus)
        return _pool.run(tasks)


def _forget_pool() -> None:
    """In a forked child: the parent's workers did not come along."""
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
