"""Deterministic fault injection for the virtual machine.

The paper's machines (nCUBE2, CM5) are modelled as perfectly reliable,
and both transports deliver every message exactly once, in send order
per source.  This module lets a run declare, up front, exactly which
imperfections the virtual network and processors should exhibit:

* **extra delay / jitter** — a deterministic extra latency is added to a
  message's virtual arrival time;
* **rank crash** — a rank's virtual clock trips a deadline and the rank
  dies at virtual time ``T`` (:class:`RankCrashedError`);
* **rank slowdown** — a rank's effective ``flops_per_second`` is divided
  by a factor, as if the node were thermally throttled or oversubscribed;
* **process kill** — on the process backend only, a rank worker
  SIGKILLs itself at the start of real step ``k`` (``kill``), modelling
  an OOM kill or node loss that the supervisor must recover from;
* **heartbeat stall** — on the process backend only, a rank worker
  stops heartbeating at step ``k`` and hangs (``stall_heartbeat``),
  modelling a livelocked or swapping node.

Every delay is a pure function of ``(plan.seed, src, dst, tag, n)``
where ``n`` is a per-channel transmission counter kept by the *sender's*
injector state.  Since each channel counter is touched only by its own
sender thread, the decisions are bit-reproducible across runs regardless
of real thread scheduling — the property all determinism tests pin.  A
plan that injects no delay charges exactly the virtual times of a run
without a plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from hashlib import blake2b
from typing import Any


class RankCrashedError(RuntimeError):
    """A virtual rank died at its planned crash time."""

    def __init__(self, rank: int, at_time: float):
        self.rank = rank
        self.at_time = at_time
        super().__init__(
            f"rank {rank} crashed at virtual time {at_time:.6f}s"
        )


@dataclass
class FaultPlan:
    """Declarative, seeded description of every fault a run injects.

    Parameters
    ----------
    seed:
        Root of the decision hash; two runs with equal plans make
        identical per-message decisions.
    delay_rate:
        Per-transmission probability of a delay (matching tags only).
    delay_seconds:
        Extra latency added to a delayed message's virtual arrival; the
        actual delay is jittered deterministically in
        ``[0.5, 1.5) * delay_seconds``.
    tags:
        Restrict delays to these message tags (``None`` = all).
    crash:
        ``rank -> virtual time`` at which that rank dies.
    slowdown:
        ``rank -> factor >= 1`` dividing that rank's effective
        ``flops_per_second``.
    kill:
        ``rank -> step`` at which that rank's *worker process* SIGKILLs
        itself (process backend only; the virtual backend rejects it).
    stall_heartbeat:
        ``rank -> step`` at which that rank's worker stops heartbeating
        and hangs (process backend only).
    """

    seed: int = 0
    delay_rate: float = 0.0
    delay_seconds: float = 0.0
    tags: frozenset[int] | None = None
    crash: dict[int, float] = field(default_factory=dict)
    slowdown: dict[int, float] = field(default_factory=dict)
    kill: dict[int, int] = field(default_factory=dict)
    stall_heartbeat: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.delay_rate <= 1.0:
            raise ValueError(
                f"delay_rate must lie in [0, 1], got {self.delay_rate}")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")
        if self.tags is not None:
            self.tags = frozenset(int(t) for t in self.tags)
        self.crash = {int(r): float(t) for r, t in self.crash.items()}
        self.slowdown = {int(r): float(f)
                         for r, f in self.slowdown.items()}
        for r, t in self.crash.items():
            if t < 0:
                raise ValueError(f"crash time for rank {r} is negative")
        for r, f in self.slowdown.items():
            if f < 1.0:
                raise ValueError(
                    f"slowdown factor for rank {r} must be >= 1, got {f}"
                )
        self.kill = {int(r): int(s) for r, s in self.kill.items()}
        self.stall_heartbeat = {int(r): int(s)
                                for r, s in self.stall_heartbeat.items()}
        for name in ("kill", "stall_heartbeat"):
            for r, s in getattr(self, name).items():
                if s < 0:
                    raise ValueError(
                        f"{name} step for rank {r} is negative"
                    )

    # ------------------------------------------------------------- queries
    @property
    def any_process_faults(self) -> bool:
        """True if the plan demands real OS-process actions (process
        backend only — the virtual machine cannot execute them)."""
        return bool(self.kill) or bool(self.stall_heartbeat)

    def matches_tag(self, tag: int) -> bool:
        return self.tags is None or tag in self.tags

    def without_crash(self, rank: int) -> "FaultPlan":
        """The plan after ``rank`` has been restarted (its crash spent)."""
        remaining = {r: t for r, t in self.crash.items() if r != rank}
        return replace(self, crash=remaining)

    def without_process_faults(self, rank: int) -> "FaultPlan":
        """The plan after ``rank``'s worker was respawned: its kill and
        heartbeat-stall actions are spent and must not fire again."""
        return replace(
            self,
            kill={r: s for r, s in self.kill.items() if r != rank},
            stall_heartbeat={r: s for r, s in self.stall_heartbeat.items()
                             if r != rank},
        )

    # ------------------------------------------------------- serialization
    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultPlan":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        kw = dict(d)
        if kw.get("tags") is not None:
            kw["tags"] = frozenset(kw["tags"])
        return cls(**kw)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as f:
            return cls.from_json(f.read())


def _unit_hash(seed: int, salt: str, src: int, dst: int, tag: int,
               n: int) -> float:
    """Uniform deviate in [0, 1) from a stable hash of the decision key."""
    key = f"{seed}:{salt}:{src}:{dst}:{tag}:{n}".encode()
    h = blake2b(key, digest_size=8).digest()
    return int.from_bytes(h, "big") / 2.0 ** 64


class FaultInjector:
    """Binds a :class:`FaultPlan` to one engine run.

    Per-channel transmission counters live here; each ``(src, dst, tag)``
    counter is only ever advanced by rank ``src``'s thread, so decision
    sequences are deterministic under any real-time interleaving.
    """

    def __init__(self, plan: FaultPlan, size: int):
        self.plan = plan
        self.size = size
        for r in (list(plan.crash) + list(plan.slowdown)
                  + list(plan.kill) + list(plan.stall_heartbeat)):
            if not 0 <= r < size:
                raise ValueError(
                    f"fault plan names rank {r}, machine has {size}"
                )
        self._counts: dict[tuple[int, int, int], int] = {}

    def delay(self, src: int, dst: int, tag: int) -> float:
        """Extra latency of the next transmission on channel
        ``(src, dst, tag)`` (0.0: on time)."""
        plan = self.plan
        if plan.delay_rate == 0:
            return 0.0
        key = (src, dst, tag)
        n = self._counts.get(key, 0)
        self._counts[key] = n + 1
        if not (plan.matches_tag(tag) and plan.delay_seconds > 0
                and _unit_hash(plan.seed, "delay", src, dst, tag, n)
                < plan.delay_rate):
            return 0.0
        jitter = _unit_hash(plan.seed, "jitter", src, dst, tag, n)
        return plan.delay_seconds * (0.5 + jitter)

    def channel_counts(self, src: int) -> dict[tuple[int, int, int], int]:
        """A copy of the transmission counters of sender ``src``'s
        channels: the part of the injector a checkpoint of rank ``src``
        carries."""
        return {key: n for key, n in self._counts.items() if key[0] == src}

    def adopt_counts(self, counts: dict[tuple[int, int, int], int]) -> None:
        """Continue the channels of ``counts`` from those counts
        (rollback), so a re-executed step draws the delays the
        uninterrupted run drew."""
        self._counts.update(counts)

    def crash_time(self, rank: int) -> float | None:
        return self.plan.crash.get(rank)

    def slowdown(self, rank: int) -> float:
        return self.plan.slowdown.get(rank, 1.0)
