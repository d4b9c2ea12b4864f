"""Coordinated checkpoint/restart for the parallel simulation.

Recovery model: every rank snapshots its cross-step state (particles,
measured loads, key boundaries, and its comm's machine state: virtual
clock, communication accounting, tag and message sequence numbers)
into a :class:`DiskCheckpointStore` at step boundaries.  When a rank crashes
(:class:`~repro.machine.faults.RankCrashedError`) or a worker process is
lost (:class:`~repro.runtime.process_engine.WorkerLostError`), the host
rolls *every* rank back to the last step boundary all ranks completed —
a coordinated global rollback, the textbook recovery for
message-passing programs whose steps are separated by collective
operations — replaces the dead node, and re-runs from there.  Because
the machine is deterministic, the re-executed steps reproduce the
fault-free trajectory bitwise.

Snapshots are taken at a quiescent point (between steps, no messages
in flight), so no channel state needs saving; ``save`` pickles a
snapshot before its rank moves on, so the snapshot may share the rank's
live arrays.

One store serves both backends: :class:`DiskCheckpointStore` keeps one
file per ``(rank, step)`` in a directory — the run's ``checkpoint_dir``
(which survives the host, for ``--resume``) or a temporary one removed
when the run ends.  Files are written atomically (temp file + fsync +
rename) with a versioned header and a content digest, so a torn or
bit-rotted file is detected on load instead of unpickling garbage;
``keep``-based pruning bounds the directory to the newest levels per
rank.  The directory is the only state: a read always loads the file,
so checkpoints written by the rank processes of the process backend are
visible to the host without any message traffic.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import struct
import tempfile
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any

import numpy as np

from repro.bh.particles import ParticleSet
from repro.machine.faults import FaultPlan, RankCrashedError
from repro.machine.metrics import MetricsRegistry

#: On-disk checkpoint format version.  Bumped whenever the pickled
#: payload or the header layout changes incompatibly; files written by
#: a *newer* version are rejected with :class:`CheckpointVersionError`.
DISK_FORMAT_VERSION = 1

#: File magic of one checkpoint file (header = magic + u16 version +
#: 16-byte blake2b digest of the payload, then the pickled payload).
CHECKPOINT_MAGIC = b"RPCKPT"

_HEADER = struct.Struct(f"<{len(CHECKPOINT_MAGIC)}sH16s")

_FILE_RE = re.compile(r"^r(\d{4})\.s(\d{8})\.ckpt$")

META_NAME = "meta.json"


class CheckpointError(RuntimeError):
    """Base class of durable-checkpoint failures."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed its magic or content-digest check."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint file was written by an incompatible format version."""


@dataclass(frozen=True)
class RestartPolicy:
    """The host's respawn budget for lost workers, with backoff.

    At most ``max_restarts`` respawns per run (a planned virtual crash
    costs none: its fault is spent on restart).  ``delay(n)`` is the
    wait before respawn ``n`` (0-based): ``backoff_seconds * factor**n``,
    capped at ``cap``.
    """

    max_restarts: int = 3
    backoff_seconds: float = 0.25
    #: Growth of the delay per respawn, and its ceiling (real seconds).
    factor = 2.0
    cap = 10.0

    def __post_init__(self):
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.backoff_seconds < 0:
            raise ValueError("restart backoff must be non-negative")

    def delay(self, restart_no: int) -> float:
        return min(self.backoff_seconds * self.factor ** restart_no,
                   self.cap)


class Rollback:
    """The host's side of the recovery model above, for one run:
    ``plan`` is the next attempt's fault plan, ``metrics`` the host's
    ``recovery.*`` series.  Without a store every failure is fatal."""

    def __init__(self, store: DiskCheckpointStore | None,
                 policy: RestartPolicy, plan: FaultPlan | None):
        self.store = store
        self.policy = policy
        self.plan = plan
        self.recoveries = 0
        self.respawns = 0
        self.metrics = MetricsRegistry()
        # Explicit zeros, not absence, for a clean checkpointed run.
        self.metrics.counter("recovery.restarts")
        self.metrics.counter("recovery.rollback_steps")

    def recover(self, failure: BaseException, quiesce_seconds: float
                ) -> tuple[int, list[RankCheckpoint] | None, int]:
        """Roll back after ``failure`` (re-raised without a store or
        respawn budget).  Returns the step every rank restarts from,
        their checkpoints there (``None``: a rank failed before every
        rank had written step 0, so restart from the initial deal), and
        the steps of progress lost."""
        if self.store is None:
            raise failure
        t0 = time.monotonic()
        level = self.store.latest_intact()
        if isinstance(failure, RankCrashedError):
            # Replace the failed node; its planned crash is spent and
            # must not fire in the re-execution.
            self.plan = self.plan.without_crash(failure.rank)
        else:
            # Real worker loss: bounded respawn budget with exponential
            # backoff before the next attempt.
            if self.respawns >= self.policy.max_restarts:
                raise failure
            if self.plan is not None:
                self.plan = self.plan.without_process_faults(failure.rank)
            time.sleep(self.policy.delay(self.respawns))
            self.respawns += 1
        step, checkpoints = level if level is not None else (0, None)
        # Rollback depth: furthest boundary any rank had durably reached
        # beyond the restart point (plus the failing attempt's own
        # progress reports).
        furthest = max((sf[-1] for sf in map(self.store.steps_for,
                                              range(self.store.size))
                        if sf), default=step)
        for d in getattr(failure, "diagnostics", []) or []:
            furthest = max(furthest, d.last_step)
        lost = max(0, furthest - step)
        self.recoveries += 1
        self.metrics.counter("recovery.restarts").inc()
        self.metrics.counter("recovery.rollback_steps").inc(lost)
        self.metrics.histogram("recovery.quiesce_seconds").observe(
            quiesce_seconds)
        self.metrics.histogram("recovery.wall_seconds").observe(
            quiesce_seconds + time.monotonic() - t0)
        return step, checkpoints, lost


@dataclass
class RankCheckpoint:
    """One rank's cross-step state at a step boundary.

    ``step`` is the index of the *next* step to execute on restore; all
    ``results`` entries cover steps ``0 .. step-1``.  ``clock_now``,
    ``phase_seconds``, ``comm_stats``, ``metrics``, ``coll_seq``,
    ``seq``, ``fault_counts`` and ``trace_events`` are the machine
    half, as
    :meth:`~repro.machine.comm.Comm.machine_state` yields it and
    :meth:`~repro.machine.comm.Comm.restore_machine_state` adopts it;
    the rest is simulation state.  ``comm_stats`` and ``metrics``
    carry the rank's communication accounting so a recovered run
    reports totals bitwise identical to an uninterrupted one (they are
    ``None`` in pre-recovery-era checkpoints).
    """

    rank: int
    step: int
    particles: ParticleSet
    cluster_owners: np.ndarray | None
    cluster_load: np.ndarray | None
    key_boundaries: np.ndarray | None
    my_particle_loads: np.ndarray | None
    last_values: np.ndarray | None
    clock_now: float
    phase_seconds: dict[str, float]
    results: list[Any] = field(default_factory=list)
    comm_stats: Any = None      # CommStats at the boundary
    metrics: Any = None         # MetricsRegistry at the boundary
    #: The comm's sequence counters at the boundary: collective calls
    #: made (the next collective tag) and messages sent (the next
    #: ``Message.seq``).  Restored so a recovered run's tag and message
    #: streams continue where the checkpoint left off: per-tag byte
    #: accounting and message ids match an uninterrupted run exactly.
    #: A checkpoint written before ``seq`` existed resumes from 0.
    coll_seq: int = 0
    seq: int = 0
    #: The fault injector's transmission counters of this rank's
    #: channels, ``{(rank, dst, tag): sends}`` (``None``: no fault plan,
    #: or a checkpoint written before they were carried).  Restored so
    #: the delays a re-executed step draws are the uninterrupted run's.
    fault_counts: Any = None
    #: Trace events recorded up to the boundary — a ``(phases, sends,
    #: recvs)`` tuple of this rank's virtual-trace lists, or ``None``
    #: when the run was untraced.  Restored so a recovered traced run's
    #: virtual tracks are identical to an uninterrupted run's (without
    #: it, a respawned worker's fresh trace would only cover the
    #: post-rollback steps).
    trace_events: Any = None
    #: Block-timestep bin state (``timestep="block"``): per-particle
    #: rungs and the stored accelerations that source opening
    #: half-kicks.  Restored verbatim so a recovered block-timestep run
    #: re-executes the exact same substep schedule and kicks — bitwise
    #: identical to the uninterrupted trajectory.  ``None`` on
    #: fixed-timestep runs and in pre-block-timestep checkpoints.
    rungs: Any = None
    accel: Any = None


class DiskCheckpointStore:
    """Durable checkpoint store: one versioned file per (rank, step).

    Write protocol (crash-safe on POSIX): pickle the checkpoint, frame
    it with ``CHECKPOINT_MAGIC + format version + blake2b digest``,
    write to a temp file in the same directory, ``fsync``, then
    atomically ``rename`` into place (and fsync the directory), so a
    reader never observes a half-written checkpoint.  Each rank prunes
    only its own files, so concurrent rank threads or processes writing
    into one directory need no lock.  Only the newest ``keep`` step
    levels are retained per rank.
    """

    def __init__(self, root: str | os.PathLike, size: int, keep: int = 2,
                 fsync: bool = True):
        if size < 1:
            raise ValueError("store needs at least one rank")
        if keep < 1:
            raise ValueError("must keep at least one checkpoint level")
        self.size = size
        self.keep = keep
        self.root = os.fspath(root)
        self.fsync = bool(fsync)
        os.makedirs(self.root, exist_ok=True)
        self._init_meta()

    # ------------------------------------------------------------- layout
    def _path(self, rank: int, step: int) -> str:
        return os.path.join(self.root, f"r{rank:04d}.s{step:08d}.ckpt")

    def _init_meta(self) -> None:
        path = os.path.join(self.root, META_NAME)
        if os.path.exists(path):
            with open(path) as fh:
                meta = json.load(fh)
            if meta.get("format_version", 0) > DISK_FORMAT_VERSION:
                raise CheckpointVersionError(
                    f"checkpoint directory {self.root!r} was written by "
                    f"format version {meta['format_version']}; this build "
                    f"reads up to version {DISK_FORMAT_VERSION} — upgrade "
                    f"repro to resume it"
                )
            if meta.get("size") != self.size:
                raise ValueError(
                    f"checkpoint directory {self.root!r} holds a "
                    f"{meta.get('size')}-rank run; cannot open it for "
                    f"{self.size} ranks"
                )
            return
        meta = {"format_version": DISK_FORMAT_VERSION, "size": self.size,
                "keep": self.keep}
        self._atomic_write(path, json.dumps(meta, indent=2).encode())

    def _atomic_write(self, final_path: str, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, final_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.fsync:
            # Persist the rename itself: fsync the directory entry.
            try:
                dfd = os.open(self.root, os.O_RDONLY)
            except OSError:  # pragma: no cover - exotic filesystems
                return
            try:
                os.fsync(dfd)
            finally:
                os.close(dfd)

    # ---------------------------------------------------------------- API
    def save(self, ckpt: RankCheckpoint) -> None:
        payload = pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL)
        digest = blake2b(payload, digest_size=16).digest()
        header = _HEADER.pack(CHECKPOINT_MAGIC, DISK_FORMAT_VERSION, digest)
        self._atomic_write(self._path(ckpt.rank, ckpt.step),
                           header + payload)
        # Each rank prunes its own files.
        steps = self.steps_for(ckpt.rank)
        while len(steps) > self.keep:
            try:
                os.unlink(self._path(ckpt.rank, steps.pop(0)))
            except FileNotFoundError:  # pragma: no cover - racing prune
                pass

    def steps_for(self, rank: int) -> list[int]:
        steps = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        for name in names:
            m = _FILE_RE.match(name)
            if m and int(m.group(1)) == rank:
                steps.append(int(m.group(2)))
        return sorted(steps)

    def latest_common_step(self) -> int | None:
        """Newest step boundary every rank has a checkpoint for."""
        common = set.intersection(*(set(self.steps_for(r))
                                    for r in range(self.size)))
        return max(common) if common else None

    def latest_intact(self) -> tuple[int, list[RankCheckpoint]] | None:
        """The newest common step with every rank's checkpoint there.
        A corrupt level (torn by the crash that triggered recovery, or
        bit-rotted) is discarded and the previous one tried."""
        while True:
            step = self.latest_common_step()
            if step is None:
                return None
            try:
                return step, [self.get(r, step) for r in range(self.size)]
            except CheckpointCorruptError:
                self.discard_step(step)

    def get(self, rank: int, step: int) -> RankCheckpoint:
        """Read, verify and unpickle one checkpoint file."""
        path = self._path(rank, step)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            raise KeyError(path) from None
        if len(blob) < _HEADER.size:
            raise CheckpointCorruptError(
                f"checkpoint {path!r} is truncated "
                f"({len(blob)} bytes < {_HEADER.size}-byte header)"
            )
        magic, version, digest = _HEADER.unpack(blob[:_HEADER.size])
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointCorruptError(
                f"checkpoint {path!r} has bad magic {magic!r} — not a "
                f"repro checkpoint file"
            )
        if version > DISK_FORMAT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint {path!r} is format version {version}; this "
                f"build reads up to version {DISK_FORMAT_VERSION} — "
                f"upgrade repro to read it"
            )
        payload = blob[_HEADER.size:]
        actual = blake2b(payload, digest_size=16).digest()
        if actual != digest:
            raise CheckpointCorruptError(
                f"checkpoint {path!r} failed its content-digest check "
                f"(stored {digest.hex()}, computed {actual.hex()}) — "
                f"file is corrupt"
            )
        return pickle.loads(payload)

    def discard_step(self, step: int) -> None:
        """Drop one step level for every rank (e.g. a corrupt level, so
        recovery can fall back to the previous common boundary)."""
        for rank in range(self.size):
            try:
                os.unlink(self._path(rank, step))
            except FileNotFoundError:
                pass
