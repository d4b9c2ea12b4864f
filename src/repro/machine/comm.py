"""MPI-like communicator bound to one virtual rank.

Timing rules (documented once here, relied on everywhere):

* ``send``: the sender's clock advances by ``t_s + nbytes * t_w`` (it owns
  the channel for the start-up and the transfer).  The message's virtual
  *arrival* time is the sender's clock after that charge plus the per-hop
  network term ``hops(src, dst) * t_h``.
* ``recv``: the receiver first waits (virtually) until the message's
  arrival time, then pays a copy-out charge of ``nbytes * t_w``.
* ``compute(flops)``: advances the clock by ``flops / flops_per_second``.

All collectives are implemented over these primitives
(:mod:`repro.machine.collectives`), so their virtual cost automatically
reflects the machine's topology and parameters.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

import numpy as np

from repro.machine.clock import PhaseTimings, VirtualClock
from repro.machine.costmodel import CostModel
from repro.machine.faults import FaultInjector
from repro.machine.mailbox import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.transport import Endpoint
from repro.machine.metrics import BYTE_BUCKETS, MetricsRegistry
from repro.machine.trace import RankTrace, RecvEvent, SendEvent
from repro.machine import collectives as _coll


def _format_pending(held: dict) -> str:
    if not held:
        return "empty"
    return ", ".join(f"(src={s}, tag={t}) x{n}"
                     for (s, t), n in sorted(held.items()))


class DeadlockError(RuntimeError):
    """A blocking receive that can never be satisfied.

    Carries a structured picture of the machine at detection time: for
    every rank the transport can see, the ``(src, tag)`` it is parked on
    (``blocked``; ``None`` for a rank whose program returned) and what
    its mailbox still holds (``summaries``), so the blocked cycle can be
    read straight off the message.  Thread ranks raise it the moment no
    rank can run, with the whole machine and the wait-for chain; a
    process rank raises it when its receive outlasts ``timeout`` real
    seconds, with its own mailbox only (the host engine stitches the
    per-rank views together).
    """

    def __init__(self, rank: int, src: int, tag: int,
                 waits: "list[tuple[int, int] | None] | None" = None,
                 summaries: "dict[int, dict] | None" = None,
                 timeout: float | None = None):
        self.rank = rank
        self.src = src
        self.tag = tag
        self.timeout = timeout
        self.blocked = list(waits) if waits is not None else None
        self.summaries = dict(summaries) if summaries is not None else None
        why = (f"timed out after {timeout}s — likely deadlock"
               if timeout is not None
               else "can never complete — deadlock: no rank can run")
        lines = [f"rank {rank}: recv(src={src}, tag={tag}) {why}"]
        if waits is not None:
            chain, r = [rank], src
            while r not in chain and r < len(waits) and waits[r] is not None:
                chain.append(r)
                r = waits[r][0]
            end = (f"{r}" if r in chain else f"{r} (returned)"
                   if r < len(waits) else f"{r} (no such rank)")
            lines.append("  wait-for: " + " -> ".join(map(str, chain))
                         + f" -> {end}")
            for r, w in enumerate(waits):
                state = (f"blocked on recv(src={w[0]}, tag={w[1]})"
                         if w is not None else "returned")
                held = (summaries or {}).get(r, {})
                lines.append(f"  rank {r}: {state}; mailbox holds "
                             f"{_format_pending(held)}")
        elif summaries:
            for r in sorted(summaries):
                lines.append(f"  rank {r}: mailbox holds "
                             f"{_format_pending(summaries[r])}")
        super().__init__("\n".join(lines))


def estimate_nbytes(payload: Any) -> int:
    """Estimate the wire size of a payload.

    Algorithms that care about exact wire sizes (function-shipping bins,
    multipole series) pass ``nbytes`` explicitly; this estimator covers
    control messages.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, np.integer)):
        return 8
    if isinstance(payload, (float, np.floating)):
        return 8
    if isinstance(payload, complex):
        return 16
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, dict):
        return sum(estimate_nbytes(k) + estimate_nbytes(v)
                   for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(estimate_nbytes(v) for v in payload)
    if hasattr(payload, "nbytes"):
        nb = payload.nbytes
        return int(nb() if callable(nb) else nb)
    # Unknown object: charge a pointer-sized token.  Tests pin this.
    return 8


@dataclass
class CommStats:
    """Per-rank communication counters (payload bytes, not headers)."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    bytes_by_tag: dict[int, int] = field(default_factory=dict)
    recv_bytes_by_tag: dict[int, int] = field(default_factory=dict)
    #: Messages given extra latency by a fault plan (0 without one).
    delays_injected: int = 0

    def record_send(self, tag: int, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self.bytes_by_tag[tag] = self.bytes_by_tag.get(tag, 0) + nbytes

    def record_recv(self, tag: int, nbytes: int) -> None:
        self.messages_received += 1
        self.bytes_received += nbytes
        self.recv_bytes_by_tag[tag] = \
            self.recv_bytes_by_tag.get(tag, 0) + nbytes


class Comm:
    """Communicator handed to each rank's main function."""

    def __init__(self, rank: int, size: int, cost: CostModel,
                 endpoint: "Endpoint",
                 injector: FaultInjector | None = None,
                 trace: RankTrace | None = None):
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size
        self.cost = cost
        self.clock = VirtualClock()
        self.stats = CommStats()
        #: This rank's event recorder (``None``: untraced).  Pure
        #: observation — never charges the clock.
        self.trace = trace
        self.clock._trace = trace
        #: Per-rank metrics registry (merged machine-wide by the engine).
        self.metrics = MetricsRegistry()
        self._m_msg_bytes = self.metrics.histogram(
            "comm.msg_bytes", bounds=BYTE_BUCKETS)
        self._m_wait = self.metrics.histogram("comm.recv_wait_seconds")
        #: Transport endpoint: how messages physically move.  Everything
        #: virtual-time related happens here in Comm; the endpoint only
        #: stores and forwards already-priced messages.
        self.endpoint = endpoint
        self._injector = injector
        #: Sends made so far: the next one's ``Message.seq``.
        self._seq = 0
        #: Collective calls made so far (each takes the next tag).
        self._coll_seq = 0
        self.slowdown = injector.slowdown(rank) if injector else 1.0

    # ------------------------------------------------------ machine state
    def machine_state(self) -> dict[str, Any]:
        """This rank's machine state, keyed as the
        :class:`~repro.core.checkpoint.RankCheckpoint` fields that carry
        it: what a checkpoint needs to resume the rank, and what an
        engine reports when the rank ends.

        ``comm_stats`` and ``metrics`` are copies, the metrics with the
        endpoint's queue-depth high-water mark folded in as the
        ``mailbox.max_pending`` gauge, so a boundary is self-contained.
        The fold max-merges because a restored rank's gauge already
        holds what the previous endpoint saw up to the boundary.  The
        clock's phase dict and the trace's event lists are shared, not
        copied: a checkpoint is pickled before the rank moves on.
        """
        stats = copy.deepcopy(self.stats)
        metrics = copy.deepcopy(self.metrics)
        g = metrics.gauge("mailbox.max_pending")
        g.set(max(g.value, self.endpoint.max_pending))
        trace = self.trace
        return {
            "clock_now": self.clock.now,
            "phase_seconds": self.clock.timings.seconds,
            "comm_stats": stats,
            "metrics": metrics,
            "coll_seq": self._coll_seq,
            "seq": self._seq,
            "fault_counts": (None if self._injector is None else
                             self._injector.channel_counts(self.rank)),
            "trace_events": (None if trace is None else
                             (trace.phases, trace.sends, trace.recvs)),
        }

    def restore_machine_state(self, ckpt) -> None:
        """Adopt the machine fields of checkpoint ``ckpt`` (rollback).

        The clock, the accounting (absent from pre-recovery-era
        checkpoints), the collective-tag and message-seq streams, the
        fault injector's counters of this rank's channels and this
        rank's trace events continue where the boundary left them, so a
        re-executed step sends, delays, counts and traces exactly what
        the uninterrupted run did.
        """
        self.clock.now = ckpt.clock_now
        self.clock.timings = PhaseTimings(ckpt.phase_seconds)
        if ckpt.comm_stats is not None and ckpt.metrics is not None:
            self.stats = ckpt.comm_stats
            self.metrics = ckpt.metrics
            # Rebind the hot-path shortcuts around registry lookups.
            self._m_msg_bytes = self.metrics.histogram(
                "comm.msg_bytes", bounds=BYTE_BUCKETS)
            self._m_wait = self.metrics.histogram("comm.recv_wait_seconds")
        self._coll_seq = ckpt.coll_seq
        self._seq = ckpt.seq
        if ckpt.fault_counts is not None and self._injector is not None:
            self._injector.adopt_counts(ckpt.fault_counts)
        trace = self.trace
        if ckpt.trace_events is not None and trace is not None:
            trace.phases, trace.sends, trace.recvs = ckpt.trace_events

    # ----------------------------------------------------------------- time
    def compute(self, flops: float) -> None:
        """Charge ``flops`` floating-point operations of local work.

        A rank under an injected slowdown pays ``slowdown`` times the
        profile's flop time — its effective ``flops_per_second`` is
        degraded, which the load balancers observe and respond to.
        """
        self.clock.advance(
            self.cost.compute_time(flops, slowdown=self.slowdown))

    def phase(self, name: str):
        """Context manager attributing virtual time to phase ``name``."""
        return self.clock.phase(name)

    @property
    def now(self) -> float:
        return self.clock.now

    # ----------------------------------------------------- point to point
    def send(self, payload: Any, dst: int, tag: int = 0,
             nbytes: int | None = None) -> None:
        """Send ``payload`` to rank ``dst`` (non-blocking buffered send).

        The message takes this rank's next ``seq``.  A local send is
        free and never delayed.  With a fault injector attached, a
        transmission may be delayed: the extra latency is added to its
        virtual arrival.
        """
        if not 0 <= dst < self.size:
            raise ValueError(f"destination rank {dst} out of range")
        if nbytes is None:
            nbytes = estimate_nbytes(payload)
        self._m_msg_bytes.observe(nbytes)
        t_begin = arrival = self.clock.now
        delay = 0.0
        if dst != self.rank:
            p = self.cost.profile
            if self._injector is not None:
                delay = self._injector.delay(self.rank, dst, tag)
            self.clock.advance(p.t_s + nbytes * p.t_w)
            if delay > 0:
                self.stats.delays_injected += 1
            arrival = (self.clock.now
                       + self.cost.topology.hops(self.rank, dst) * p.t_h
                       + delay)
        self.stats.record_send(tag, nbytes)
        seq = self._seq
        self._seq += 1
        self.endpoint.deliver(dst, Message(
            arrival=arrival, src=self.rank, seq=seq, tag=tag,
            payload=payload, nbytes=nbytes))
        if self.trace is not None:
            self.trace.sends.append(SendEvent(
                seq=seq, src=self.rank, dst=dst, tag=tag, nbytes=nbytes,
                t_begin=t_begin, t_end=self.clock.now, arrival=arrival,
                extra_delay=delay,
            ))

    def recv_msg(self, src: int, tag: int = 0) -> Message:
        """Blocking receive of the next ``(src, tag)`` message, returning
        the full message record.  There are no wildcards: every receive
        names its stream (``tag`` defaults to :meth:`send`'s)."""
        msg = self.endpoint.get(src, tag)
        self.charge_recv(msg)
        return msg

    def recv(self, src: int, tag: int = 0) -> Any:
        """Blocking ``(src, tag)`` receive returning just the payload."""
        return self.recv_msg(src, tag).payload

    def recv_sorted(self, counts: dict[int, int], tag: int):
        """Receive an exact multiset of messages in virtual-arrival order.

        ``counts`` maps source rank -> number of messages to receive with
        ``tag``.  The messages are first collected (blocking in real time
        only — senders have already fired them, so this cannot deadlock),
        sorted by virtual arrival, and then *yielded* one at a time with
        the clock charged per message — modelling a processor that polls
        its queue and handles work FIFO by arrival.  Work the caller does
        between yields lands between the arrival waits, exactly like
        service time would on the real machine.
        """
        raw: list[Message] = []
        for src in sorted(counts):
            for _ in range(counts[src]):
                raw.append(self.endpoint.get(src, tag))
        raw.sort(key=lambda m: (m.arrival, m.src, m.seq))
        for msg in raw:
            self.charge_recv(msg)
            yield msg

    def collect_raw(self, src: int, tag: int, stop) -> list[Message]:
        """Collect messages from ``src`` without charging the clock,
        until ``stop(payload)`` is true (the stop message is included).

        Real-time blocking only; the caller is responsible for charging
        the clock later via :meth:`charge_recv`, typically after sorting
        a whole batch by virtual arrival.  Safe only for fire-and-forget
        streams whose completion does not depend on this rank acting.
        """
        out: list[Message] = []
        while True:
            msg = self.endpoint.get(src, tag)
            out.append(msg)
            if stop(msg.payload):
                return out

    def charge_recv(self, msg: Message) -> None:
        """Charge the clock and counters for one received message: wait
        until its arrival, then pay the copy-out (free for a local
        message).  Every receive path ends here; a caller of
        :meth:`collect_raw` calls it directly."""
        t_begin = self.clock.now
        self.clock.wait_until(msg.arrival)
        if msg.src != self.rank:
            self.clock.advance(msg.nbytes * self.cost.profile.t_w)
        self.stats.record_recv(msg.tag, msg.nbytes)
        self._m_wait.observe(max(0.0, msg.arrival - t_begin))
        if self.trace is not None:
            self.trace.recvs.append(RecvEvent(
                seq=msg.seq, rank=self.rank, src=msg.src, tag=msg.tag,
                nbytes=msg.nbytes, t_begin=t_begin, arrival=msg.arrival,
                t_end=self.clock.now, waited=msg.arrival > t_begin,
            ))

    # ------------------------------------------------------- collectives
    def barrier(self) -> None:
        _coll.barrier(self)

    def bcast(self, payload: Any, root: int = 0, nbytes: int | None = None) -> Any:
        return _coll.bcast(self, payload, root=root, nbytes=nbytes)

    def reduce(self, value: Any, op: Callable[[Any, Any], Any], root: int = 0) -> Any:
        return _coll.reduce(self, value, op, root=root)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]) -> Any:
        return _coll.allreduce(self, value, op)

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        return _coll.gather(self, value, root=root)

    def allgather(self, value: Any) -> list[Any]:
        return _coll.allgather(self, value)

    def alltoall(self, values: list[Any]) -> list[Any]:
        return _coll.alltoall(self, values)

    def scan(self, value: Any, op: Callable[[Any, Any], Any]) -> Any:
        return _coll.scan(self, value, op)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Comm(rank={self.rank}, size={self.size})"
