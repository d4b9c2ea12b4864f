"""The kernel loader: one compile per source into the cache, no compile
on a warm cache, safe racing builds, typed errors."""

import importlib.resources
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bh import native


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty kernel cache under ``tmp_path``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "repro"


def _libraries(cache):
    return sorted(p.name for p in cache.iterdir())


def test_source_ships_as_package_data():
    assert (importlib.resources.files("repro.bh") / "_kernels.c").is_file()


def test_cold_cache_compiles_and_warm_cache_does_not(cache, monkeypatch):
    calls = []
    run = subprocess.run

    def counted(cmd, *args, **kwargs):
        calls.append(cmd)
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    path = native.build()
    assert len(calls) == 1 and path.parent == cache
    assert _libraries(cache) == [path.name]
    lib = native.load()
    assert lib.p2p_group is not None
    assert len(calls) == 1            # load found the library: no cc
    monkeypatch.setenv("CC", str(cache / "no-such-cc"))
    assert native.build() == path and len(calls) == 1


def test_racing_processes_both_load_and_one_library_remains(cache):
    """Two interpreters import the package at once on an empty cache:
    both compile, both load, one library file is left."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache.parent),
               PYTHONPATH=str(Path(native.__file__).parents[2]))
    code = ("from repro.bh import native; "
            "assert native.LIB.p2p_group; print(native.build())")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs[0] == outs[1]
    assert _libraries(cache) == [Path(outs[0]).name]


def test_missing_compiler_names_the_command(cache, monkeypatch):
    missing = str(cache.parent / "bin" / "cc-missing")
    monkeypatch.setenv("CC", missing)
    with pytest.raises(native.KernelBuildError, match=missing):
        native.build()
    assert not cache.exists() or _libraries(cache) == []


def test_compiler_not_on_path_names_the_command(cache, monkeypatch,
                                                tmp_path):
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(native.KernelBuildError,
                       match=r"cannot run the C compiler: cc "):
        native.build()


def test_unwritable_cache_names_the_path(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    with pytest.raises(native.KernelBuildError, match=str(blocker)):
        native.build()


def test_edited_source_gets_a_new_key(cache, tmp_path):
    text = native.SOURCE.read_bytes()
    edited = tmp_path / "_kernels.c"
    edited.write_bytes(text + b"\n/* edited */\n")
    assert native.cache_key(edited.read_bytes()) != native.cache_key(text)
    assert native.build(edited) != native.build()
    assert len(_libraries(cache)) == 2
