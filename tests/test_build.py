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
from flipdist.cli import main
from flipdist.instances import (
    Instance,
    gen_convex,
    initial_triangulation,
    random_walk_triangulation,
    serialize,
)

from conftest import can_build_core, compiler_command

PACKAGE = Path(flipdist.__file__).resolve().parent
PROBE = "import flipdist; from flipdist import _kernel; print(_kernel.compiled_available())"
CLI = "import sys; from flipdist.cli import main; sys.exit(main(sys.argv[1:]))"
NO_PASSWD_ENTRY = ("import pwd\n"
                   "def getpwuid(uid): raise KeyError(uid)\n"
                   "pwd.getpwuid = getpwuid\n")
LIBRARY = "_core" + sysconfig.get_config_var("EXT_SUFFIX")

pytestmark = pytest.mark.skipif(
    any((PACKAGE / f"_core{s}").exists() for s in importlib.machinery.EXTENSION_SUFFIXES),
    reason="an installed _core extension is loaded instead of the cache")
needs_compiler = pytest.mark.skipif(not can_build_core(),
                                    reason="no C compiler on PATH or no Python.h")


def environ(cache: Path, cc: str) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, XDG_CACHE_HOME=str(cache), CC=cc)


def probe(env: dict[str, str], prelude: str = "") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", prelude + PROBE], env=env, capture_output=True,
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


@pytest.mark.parametrize("broken", ["missing compiler", "cache is a file", "no home directory",
                                    "malformed CC"])
def test_unusable_build_falls_back_to_pure(tmp_path, capsys, broken):
    cc = " ".join(map(shlex.quote, compiler_command()))
    env = environ(tmp_path / "cache", cc)
    prelude = ""
    if broken == "missing compiler":
        env["CC"] = str(tmp_path / "no-such-cc")
    elif broken == "cache is a file":
        (tmp_path / "cache").write_text("")
    elif broken == "no home directory":
        # no $HOME, no $XDG_CACHE_HOME and no passwd entry for this uid
        env.pop("HOME", None)
        env.pop("XDG_CACHE_HOME")
        prelude = NO_PASSWD_ENTRY
    else:
        env["CC"] = cc + ' "'  # an unclosed quote
    proc = probe(env, prelude)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    # the pure kernel prints what this process, on the compiled kernel where
    # one can be built, prints
    start = initial_triangulation(gen_convex(8))
    end = random_walk_triangulation(start, 5, 3)
    instance = tmp_path / "walk.flipdist"
    instance.write_text(serialize(Instance(ps=start.ps, t_start=start, t_end=end)),
                        encoding="utf-8")
    args = ["solve", "--trace", "--in", str(instance)]
    assert main(args) == 0
    solve = subprocess.run([sys.executable, "-c", prelude + CLI, *args],
                           env=env, capture_output=True, text=True, timeout=300)
    assert solve.returncode == 0, solve.stderr
    assert solve.stdout == capsys.readouterr().out
