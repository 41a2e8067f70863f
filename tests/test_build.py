"""The on-demand build of the compiled kernel.

Without an installed ``flipdist._core``, importing flipdist compiles
``_core.c`` once into ``$XDG_CACHE_HOME/flipdist/<source hash>/`` and later
imports load it from there.  Each test runs fresh interpreters against its
own empty cache directory.
"""

from __future__ import annotations

import importlib.machinery
import os
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import flipdist
from flipdist.instances import Instance, gen_convex, initial_triangulation, serialize

from conftest import can_build_core, compiler_command

PACKAGE = Path(flipdist.__file__).resolve().parent
PROBE = "import flipdist; from flipdist import _kernel; print(_kernel.compiled_available())"
LIBRARY = "_core" + sysconfig.get_config_var("EXT_SUFFIX")

pytestmark = pytest.mark.skipif(
    any((PACKAGE / f"_core{s}").exists() for s in importlib.machinery.EXTENSION_SUFFIXES),
    reason="an installed _core extension is loaded instead of the cache")
needs_compiler = pytest.mark.skipif(not can_build_core(),
                                    reason="no C compiler on PATH or no Python.h")


def environ(cache: Path, cc: str) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, XDG_CACHE_HOME=str(cache), CC=cc)


def probe(env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=300)


def cache_files(cache: Path) -> list[str]:
    return sorted(str(p.relative_to(cache / "flipdist")) for p in cache.rglob("*") if p.is_file())


@pytest.fixture
def recording_cc(tmp_path) -> tuple[str, Path]:
    """A $CC that logs each call, then runs the real compiler."""
    log = tmp_path / "cc.log"
    script = tmp_path / "cc"
    script.write_text(f"#!/bin/sh\necho called >> {shlex.quote(str(log))}\n"
                      f'exec {shlex.join(compiler_command())} "$@"\n')
    script.chmod(0o755)
    return shlex.quote(str(script)), log


@needs_compiler
def test_concurrent_first_imports_share_one_library(tmp_path, recording_cc):
    cc, log = recording_cc
    env = environ(tmp_path / "cache", cc)
    procs = [subprocess.Popen([sys.executable, "-c", PROBE], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for _ in range(2)]
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert [out for out, _ in outs] == ["True\n", "True\n"]
    assert log.exists()
    files = cache_files(tmp_path / "cache")
    assert len(files) == 1  # one library, no temp files left behind
    assert Path(files[0]).name == LIBRARY


@needs_compiler
def test_second_import_does_not_compile(tmp_path, recording_cc):
    cc, log = recording_cc
    env = environ(tmp_path / "cache", cc)
    assert probe(env).stdout == "True\n"
    assert log.read_text() == "called\n"
    assert probe(env).stdout == "True\n"
    assert log.read_text() == "called\n"


@pytest.mark.parametrize("broken", ["missing compiler", "cache is a file"])
def test_unusable_build_falls_back_to_pure(tmp_path, broken):
    if broken == "missing compiler":
        env = environ(tmp_path / "cache", str(tmp_path / "no-such-cc"))
    else:
        (tmp_path / "cache").write_text("")
        env = environ(tmp_path / "cache", " ".join(map(shlex.quote, compiler_command())))
    proc = probe(env)
    assert proc.returncode == 0
    assert proc.stdout == "False\n"
    # equal endpoints: the bound answers before any kernel would run
    start = initial_triangulation(gen_convex(8))
    instance = tmp_path / "equal.flipdist"
    instance.write_text(serialize(Instance(ps=start.ps, t_start=start, t_end=start)),
                        encoding="utf-8")
    solve = subprocess.run([sys.executable, "-m", "flipdist", "solve", "--backend", "compiled",
                            "--in", str(instance)],
                           env=env, capture_output=True, text=True, timeout=300)
    assert solve.returncode == 2
    assert solve.stdout == ""
