"""Collective operations built on point-to-point messages.

The paper's schemes lean on two collectives — the *all-to-all broadcast*
(branch-node exchange) and the *all-to-all personalized communication*
(DPDA particle movement), both straight out of Kumar et al. [20].  The
implementations here are the textbook algorithms (binomial trees,
recursive doubling, pairwise exchange), so their virtual cost has the
right ``t_s log p + t_w m p``-type structure on the simulated machines.

Tag discipline: every collective call consumes a fresh tag above
``COLL_TAG_BASE`` from a per-communicator sequence counter.  Since ranks
execute collectives in the same program order (SPMD), call *i* on one rank
matches call *i* everywhere, and collective traffic can never be confused
with user point-to-point traffic.
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.comm import Comm

COLL_TAG_BASE = 1 << 30


def _next_tag(comm: "Comm") -> int:
    comm._coll_seq += 1
    return COLL_TAG_BASE + comm._coll_seq


def bcast(comm: "Comm", payload: Any, root: int = 0,
          nbytes: int | None = None) -> Any:
    """Binomial-tree one-to-all broadcast; returns the payload everywhere."""
    tag = _next_tag(comm)
    p, rank = comm.size, comm.rank
    if not 0 <= root < p:
        raise ValueError(f"broadcast root {root} out of range")
    if p == 1:
        return payload
    vrank = (rank - root) % p
    mask = 1
    while mask < p:
        if vrank < mask:
            dst = vrank + mask
            if dst < p:
                comm.send(payload, (dst + root) % p, tag=tag, nbytes=nbytes)
        elif vrank < 2 * mask:
            payload = comm.recv(src=(vrank - mask + root) % p, tag=tag)
        mask <<= 1
    return payload


def reduce(comm: "Comm", value: Any, op: Callable[[Any, Any], Any],
           root: int = 0) -> Any:
    """Binomial-tree all-to-one reduction; result valid only at ``root``."""
    tag = _next_tag(comm)
    p, rank = comm.size, comm.rank
    if not 0 <= root < p:
        raise ValueError(f"reduce root {root} out of range")
    vrank = (rank - root) % p
    mask = 1
    while mask < p:
        if vrank & mask:
            comm.send(value, (vrank - mask + root) % p, tag=tag)
            return None
        src = vrank + mask
        if src < p:
            value = op(value, comm.recv(src=(src + root) % p, tag=tag))
        mask <<= 1
    return value


def allreduce(comm: "Comm", value: Any, op: Callable[[Any, Any], Any]) -> Any:
    """All-reduce as reduce-to-0 followed by broadcast (works for any p)."""
    return bcast(comm, reduce(comm, value, op, root=0), root=0)


def barrier(comm: "Comm") -> None:
    """Synchronise all ranks; every clock leaves at >= the max entry time."""
    allreduce(comm, None, lambda a, b: None)


def gather(comm: "Comm", value: Any, root: int = 0) -> list[Any] | None:
    """Binomial-tree gather; returns rank-ordered list at ``root``."""
    tag = _next_tag(comm)
    p, rank = comm.size, comm.rank
    if not 0 <= root < p:
        raise ValueError(f"gather root {root} out of range")
    vrank = (rank - root) % p
    bucket: dict[int, Any] = {rank: value}
    mask = 1
    while mask < p:
        if vrank & mask:
            comm.send(bucket, (vrank - mask + root) % p, tag=tag)
            return None
        src = vrank + mask
        if src < p:
            bucket.update(comm.recv(src=(src + root) % p, tag=tag))
        mask <<= 1
    return [bucket[r] for r in range(p)]


def allgather(comm: "Comm", value: Any) -> list[Any]:
    """All-to-all broadcast (recursive doubling; ring for non-power-of-2).

    This is the operation the paper uses to make branch nodes and the top
    tree levels "available to all the processors".
    """
    tag = _next_tag(comm)
    p, rank = comm.size, comm.rank
    bucket: dict[int, Any] = {rank: value}
    if p & (p - 1) == 0:
        mask = 1
        while mask < p:
            partner = rank ^ mask
            comm.send(bucket, partner, tag=tag)
            bucket = {**bucket, **comm.recv(src=partner, tag=tag)}
            mask <<= 1
    else:
        chunk: dict[int, Any] = {rank: value}
        for _ in range(p - 1):
            comm.send(chunk, (rank + 1) % p, tag=tag)
            chunk = comm.recv(src=(rank - 1) % p, tag=tag)
            bucket.update(chunk)
    return [bucket[r] for r in range(p)]


def alltoall(comm: "Comm", values: list[Any]) -> list[Any]:
    """All-to-all personalized communication via pairwise exchange.

    ``values[j]`` is delivered to rank ``j``; the return list holds what
    every rank sent to this one, rank-ordered.  This is the collective the
    DPDA scheme uses to move particles to their new owners.
    """
    tag = _next_tag(comm)
    p, rank = comm.size, comm.rank
    if len(values) != p:
        raise ValueError(
            f"alltoall needs exactly {p} entries, got {len(values)}"
        )
    result: list[Any] = [None] * p
    result[rank] = values[rank]
    for i in range(1, p):
        dst = (rank + i) % p
        src = (rank - i) % p
        comm.send(values[dst], dst, tag=tag)
        result[src] = comm.recv(src=src, tag=tag)
    return result


def scan(comm: "Comm", value: Any, op: Callable[[Any, Any], Any]) -> Any:
    """Inclusive prefix scan over ranks (recursive doubling, any p)."""
    tag = _next_tag(comm)
    p, rank = comm.size, comm.rank
    result = value
    mask = 1
    while mask < p:
        dst = rank + mask
        if dst < p:
            comm.send(result, dst, tag=tag)
        src = rank - mask
        if src >= 0:
            result = op(comm.recv(src=src, tag=tag), result)
        mask <<= 1
    return result
