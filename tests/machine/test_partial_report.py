"""Failed ranks still yield well-formed RankResults (both engines)."""

import pytest

from repro.machine.engine import Engine
from repro.machine.profiles import NCUBE2


def _early_death(comm):
    # Dies before ever touching its clock: the regression this pins is
    # that such a rank used to be indistinguishable from a missing one.
    if comm.rank == 1:
        raise KeyError("dead before the first tick")
    with comm.phase("work"):
        comm.compute(1000.0)
    return "ok"


def test_rank_failing_before_first_tick_is_reported():
    with pytest.raises(RuntimeError, match="rank 1") as ei:
        Engine(4, NCUBE2, recv_timeout=5.0).run(_early_death)
    report = ei.value.partial_report
    assert report is not None
    assert report.size == 4
    failed = report.ranks[1]
    assert failed.rank == 1
    assert failed.value is None
    assert failed.error == "KeyError: 'dead before the first tick'"
    assert failed.time == 0.0
    assert failed.timings.seconds == {}
    assert failed.stats.messages_sent == 0
    # Survivors keep what they accumulated.
    assert report.ranks[0].value == "ok"
    assert report.ranks[0].error is None
    assert report.ranks[0].time > 0.0
    # Aggregates over the partial report stay computable.
    assert report.parallel_time == max(r.time for r in report.ranks)


def _late_death(comm):
    with comm.phase("work"):
        comm.compute(5000.0)
    if comm.rank == 0:
        raise ValueError("died mid-run")
    return comm.rank


def test_failed_rank_keeps_accumulated_clock():
    with pytest.raises(RuntimeError) as ei:
        Engine(2, NCUBE2, recv_timeout=5.0).run(_late_death)
    failed = ei.value.partial_report.ranks[0]
    assert failed.error.startswith("ValueError")
    assert failed.time > 0.0
    assert failed.timings.get("work") > 0.0


def test_successful_run_has_no_error_fields():
    def ok(comm):
        return comm.rank

    report = Engine(2).run(ok)
    assert [r.error for r in report.ranks] == [None, None]
