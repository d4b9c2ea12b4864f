"""Checkpoint store semantics: eviction, common-step logic, durability.

The disk store backs recovery on both backends: the host's recovery
path (``latest_common_step`` -> ``get``) runs over it, and it must
survive reopening, detect corruption instead of unpickling garbage, and
refuse files from a future format version.
"""

import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import plummer
from repro.bh.particles import ParticleSet
from repro.core.checkpoint import (
    CHECKPOINT_MAGIC,
    DISK_FORMAT_VERSION,
    CheckpointCorruptError,
    CheckpointVersionError,
    DiskCheckpointStore,
    RankCheckpoint,
)
from repro.core.config import SchemeConfig
from repro.core.simulation import _RankState
from repro.machine.engine import Engine
from repro.machine.profiles import ZERO_COST


def ckpt(rank: int, step: int, n: int = 8) -> RankCheckpoint:
    ps = plummer(n, seed=rank * 100 + step)
    return RankCheckpoint(
        rank=rank, step=step, particles=ps,
        cluster_owners=np.arange(4), cluster_load=np.ones(4),
        key_boundaries=np.array([0, 10, 20]),
        my_particle_loads=np.ones(n),
        last_values=np.zeros((n, 3)),
        clock_now=float(step), phase_seconds={"force computation": 1.0},
    )


@pytest.fixture(params=["disk"])
def make_store(tmp_path):
    def factory(size, keep=2):
        return DiskCheckpointStore(tmp_path / "ckpt", size, keep=keep)
    return factory


# ------------------------------------------------------------ API contract

def test_latest_common_step_uneven_progress(make_store):
    store = make_store(3, keep=3)
    # Rank 0 reached boundary 3, rank 1 boundary 2, rank 2 boundary 1.
    for rank, top in ((0, 3), (1, 2), (2, 1)):
        for step in range(1, top + 1):
            store.save(ckpt(rank, step))
    assert store.latest_common_step() == 1
    store.save(ckpt(2, 2))
    assert store.latest_common_step() == 2


def test_latest_common_step_none_when_any_rank_empty(make_store):
    store = make_store(2)
    store.save(ckpt(0, 1))
    assert store.latest_common_step() is None


def test_latest_common_step_none_when_no_overlap(make_store):
    store = make_store(2, keep=1)
    store.save(ckpt(0, 1))
    store.save(ckpt(1, 2))
    assert store.latest_common_step() is None


def test_keep_evicts_oldest_levels(make_store):
    store = make_store(1, keep=2)
    for step in (1, 2, 3, 4):
        store.save(ckpt(0, step))
    assert store.steps_for(0) == [3, 4]
    with pytest.raises(KeyError):
        store.get(0, 1)


def test_keep_one_retains_only_newest(make_store):
    store = make_store(2, keep=1)
    for step in (1, 2):
        store.save(ckpt(0, step))
        store.save(ckpt(1, step))
    assert store.steps_for(0) == [2]
    assert store.latest_common_step() == 2


def test_discard_step_drops_level_for_all_ranks(make_store):
    store = make_store(2, keep=3)
    for rank in (0, 1):
        for step in (1, 2):
            store.save(ckpt(rank, step))
    store.discard_step(2)
    assert store.steps_for(0) == [1]
    assert store.steps_for(1) == [1]
    assert store.latest_common_step() == 1
    store.discard_step(7)   # absent level is a no-op


def test_store_validates_construction(make_store):
    with pytest.raises(ValueError, match="rank"):
        make_store(0)
    with pytest.raises(ValueError, match="keep"):
        make_store(2, keep=0)


# -------------------------------------------------------------- disk extras

def test_disk_store_survives_reopen(tmp_path):
    root = tmp_path / "ckpt"
    store = DiskCheckpointStore(root, 2, keep=2)
    for rank in (0, 1):
        store.save(ckpt(rank, 3))
    # A fresh store over the same directory (new host process after a
    # crash) sees everything and reloads bitwise-equal state.
    reopened = DiskCheckpointStore(root, 2, keep=2)
    assert reopened.latest_common_step() == 3
    back = reopened.get(1, 3)
    orig = store.get(1, 3)
    assert np.array_equal(back.particles.positions, orig.particles.positions)
    assert back.clock_now == orig.clock_now


def test_disk_pruning_deletes_files(tmp_path):
    root = tmp_path / "ckpt"
    store = DiskCheckpointStore(root, 1, keep=2)
    for step in (1, 2, 3):
        store.save(ckpt(0, step))
    names = sorted(n for n in os.listdir(root) if n.endswith(".ckpt"))
    assert names == ["r0000.s00000002.ckpt", "r0000.s00000003.ckpt"]


def test_disk_corruption_detected(tmp_path):
    root = tmp_path / "ckpt"
    store = DiskCheckpointStore(root, 1)
    store.save(ckpt(0, 1))
    path = root / "r0000.s00000001.ckpt"

    # Flip one payload byte: the digest must catch it.
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    fresh = DiskCheckpointStore(root, 1)
    with pytest.raises(CheckpointCorruptError, match="digest"):
        fresh.get(0, 1)

    # Truncation below the header is caught before unpacking.
    path.write_bytes(b"RP")
    with pytest.raises(CheckpointCorruptError, match="truncated"):
        fresh.get(0, 1)

    # A foreign file is rejected by magic, not unpickled.
    path.write_bytes(b"not a checkpoint at all, padded out to length")
    with pytest.raises(CheckpointCorruptError, match="magic"):
        fresh.get(0, 1)


def test_disk_future_version_rejected(tmp_path):
    import struct

    from repro.core.checkpoint import _HEADER

    root = tmp_path / "ckpt"
    store = DiskCheckpointStore(root, 1)
    store.save(ckpt(0, 1))
    path = root / "r0000.s00000001.ckpt"
    blob = path.read_bytes()
    _, _, digest = _HEADER.unpack(blob[:_HEADER.size])
    header = _HEADER.pack(CHECKPOINT_MAGIC, DISK_FORMAT_VERSION + 1, digest)
    path.write_bytes(header + blob[_HEADER.size:])
    fresh = DiskCheckpointStore(root, 1)
    with pytest.raises(CheckpointVersionError, match="upgrade"):
        fresh.get(0, 1)


def test_disk_meta_guards_directory_reuse(tmp_path):
    import json

    root = tmp_path / "ckpt"
    DiskCheckpointStore(root, 4)
    # Opening the directory for a different rank count is an error —
    # resuming a 4-rank run with p=2 would silently drop state.
    with pytest.raises(ValueError, match="4-rank"):
        DiskCheckpointStore(root, 2)
    # A directory stamped by a newer build is refused outright.
    meta = json.loads((root / "meta.json").read_text())
    meta["format_version"] = DISK_FORMAT_VERSION + 1
    (root / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(CheckpointVersionError, match="upgrade"):
        DiskCheckpointStore(root, 4)


def test_disk_store_pickles_to_coordinates_only(tmp_path):
    root = tmp_path / "ckpt"
    store = DiskCheckpointStore(root, 2, keep=3, fsync=False)
    store.save(ckpt(0, 1))
    back = pickle.loads(pickle.dumps(store))
    assert (back.root, back.size, back.keep, back.fsync) == \
        (store.root, store.size, store.keep, False)
    # The clone reads the same directory (same files).
    assert back.steps_for(0) == [1]
    assert np.array_equal(back.get(0, 1).particles.positions,
                          store.get(0, 1).particles.positions)


def test_disk_missing_checkpoint_is_keyerror(tmp_path):
    store = DiskCheckpointStore(tmp_path / "ckpt", 1)
    with pytest.raises(KeyError):
        store.get(0, 5)


# ------------------------------------------------------ round-trip property

def _f64(shape, **bounds):
    return hnp.arrays(np.float64, shape, elements=st.floats(**bounds))


def _i64(shape):
    return hnp.arrays(np.int64, shape)


@st.composite
def rank_checkpoints(draw):
    """Any state a rank may carry: 2-D or 3-D, empty or not, each
    cluster/DPDA array present or not, bin state all or nothing."""
    n = draw(st.integers(0, 40))
    d = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(0, 9))
    particles = ParticleSet(
        positions=draw(_f64((n, d))),
        masses=draw(_f64(n, min_value=1e-300, allow_infinity=False)),
        velocities=draw(_f64((n, d))), ids=draw(_i64(n)))
    bins = draw(st.booleans())
    return RankCheckpoint(
        rank=draw(st.integers(0, 3)), step=draw(st.integers(0, 10 ** 6)),
        particles=particles,
        cluster_owners=draw(st.none() | _i64(k)),
        cluster_load=draw(st.none() | _f64(k)),
        key_boundaries=draw(st.none() | _i64(k + 1)),
        my_particle_loads=draw(st.none() | _f64(n)),
        last_values=draw(st.none() | _f64(draw(st.sampled_from(
            ((n,), (n, d)))))),
        clock_now=draw(st.floats(0.0, 1e9)),
        phase_seconds={"force computation": draw(st.floats(0.0, 1e9))},
        rungs=draw(_i64(n)) if bins else None,
        accel=draw(_f64((n, d))) if bins else None,
    )


CHECKPOINT_ARRAYS = ("cluster_owners", "cluster_load", "key_boundaries",
                     "my_particle_loads", "last_values", "rungs", "accel")


def _assert_same_bits(got, want, name):
    if want is None:
        assert got is None, name
        return
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert got.tobytes() == want.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(original=rank_checkpoints())
def test_disk_round_trip_is_bitwise(original):
    with tempfile.TemporaryDirectory() as root:
        DiskCheckpointStore(root, 4, fsync=False).save(original)
        back = DiskCheckpointStore(root, 4, fsync=False).get(
            original.rank, original.step)
    for name in CHECKPOINT_ARRAYS:
        _assert_same_bits(getattr(back, name), getattr(original, name), name)
    for name in ("positions", "masses", "velocities", "ids"):
        _assert_same_bits(getattr(back.particles, name),
                          getattr(original.particles, name), name)
    for name in ("rank", "step", "clock_now", "phase_seconds"):
        assert getattr(back, name) == getattr(original, name), name


def test_pickle_without_bin_state_restores_none(tmp_path):
    """A checkpoint pickled before ``rungs``/``accel`` existed reads the
    class defaults, so restore leaves no stale bin state behind."""
    old = ckpt(0, 1)
    del old.__dict__["rungs"], old.__dict__["accel"]
    DiskCheckpointStore(tmp_path, 1, fsync=False).save(old)
    back = DiskCheckpointStore(tmp_path, 1, fsync=False).get(0, 1)
    assert "rungs" not in vars(back) and "accel" not in vars(back)

    def restore(comm):
        state = _RankState(comm, SchemeConfig(),
                           back.particles.bounding_box(), 10, back.particles)
        state.rungs, state.accel = np.zeros(8, np.int64), np.ones((8, 3))
        state.restore(back)
        return state.rungs, state.accel

    assert Engine(1, ZERO_COST).run(restore).values == [(None, None)]
