"""The indexed mailbox against the list scan it replaced, end to end.

``Mailbox`` matches receives from per-``(src, tag)`` heaps; the scan of
``tests/oracles/mailbox.py`` looked at every pending message.  Both
select the earliest ``(arrival, src, seq)`` match and ``seq`` is unique,
so a whole run must not be able to tell them apart.  p = 16 puts ~15
sources' bins and sentinels in every mailbox at once, a regime no
two-rank run reaches: clocks, phase timings, comm and shipping counters,
the metrics snapshot and the physics must be bitwise equal.

One number is exempt at p = 16: ``mailbox.max_pending``.  A queue's
high-water mark depends on which parked rank takes the baton next when
several were woken, and that is the OS's choice — two runs of the same
build already differ (222-275 on a 2-vCPU host).  With two ranks there is
never more than one contender, so at p = 2 it is compared too.
"""

import numpy as np
import pytest

import repro.machine.transport as transport
from repro import NCUBE2, ParallelBarnesHut, SchemeConfig, plummer
from tests.oracles.mailbox import ScanMailbox

N, STEPS, DT = 2_000, 2, 0.01


def _run(scheme, p):
    cfg = SchemeConfig(scheme=scheme, alpha=0.67, mode="force")
    return ParallelBarnesHut(plummer(N, seed=3), cfg, p=p, profile=NCUBE2,
                             recv_timeout=120.0).run(steps=STEPS, dt=DT)


@pytest.mark.parametrize("p", [2, 16])
@pytest.mark.parametrize("scheme", ["spsa", "spda", "dpda"])
def test_heaps_equal_the_scan(monkeypatch, scheme, p):
    heaps = _run(scheme, p)
    with monkeypatch.context() as m:
        m.setattr(transport, "Mailbox", ScanMailbox)
        scan = _run(scheme, p)
    for a, b in zip(heaps.run.ranks, scan.run.ranks, strict=True):
        assert a.time == b.time
        assert a.timings.seconds == b.timings.seconds
        assert a.stats == b.stats
    for sa, sb in zip(heaps.steps, scan.steps, strict=True):
        assert [r.force.ship for r in sa] == [r.force.ship for r in sb]
        assert [r.virtual_seconds for r in sa] == \
            [r.virtual_seconds for r in sb]
    snapshots = [r.metrics_summary().snapshot() for r in (heaps, scan)]
    depth = snapshots[0]["mailbox.max_pending"]["value"]
    if p > 2:
        for snap in snapshots:
            del snap["mailbox.max_pending"]
    assert snapshots[0] == snapshots[1]
    for name in ("values", "positions", "velocities"):
        assert np.array_equal(getattr(heaps, name), getattr(scan, name)), \
            name
    # not vacuous: many messages queued at once, bins really shipped
    assert depth > 8 * p
    assert sum(r.force.ship.request_bins_sent for r in heaps.steps[-1]) > p
