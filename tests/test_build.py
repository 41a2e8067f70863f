"""The one build of the compiled kernel.

Importing flipdist compiles ``_core.c`` once into
``$XDG_CACHE_HOME/flipdist/<source hash>/`` and later imports load it from
there; nothing else builds or loads ``flipdist._core``.  A library lying
beside ``_core.c`` in the package directory is ignored, an installed copy
(``build_py`` output) builds on first import as a checkout does, and with no
compiler or no usable cache the pure kernel runs.  Each test runs fresh
interpreters against its own empty cache directory.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import shutil
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
LOADED = "from flipdist import _kernel; print(_kernel._core.__file__); print(_kernel._core.__doc__)"
CLI = "import sys; from flipdist.cli import main; sys.exit(main(sys.argv[1:]))"
NO_PASSWD_ENTRY = ("import pwd\n"
                   "def getpwuid(uid): raise KeyError(uid)\n"
                   "pwd.getpwuid = getpwuid\n")
LIBRARY = "_core" + sysconfig.get_config_var("EXT_SUFFIX")

needs_compiler = pytest.mark.skipif(not can_build_core(),
                                    reason="no C compiler on PATH or no Python.h")


def environ(cache: Path, cc: str, src: Path = PACKAGE.parent) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, XDG_CACHE_HOME=str(cache), CC=cc)


def probe(env: dict[str, str], prelude: str = "") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", prelude + PROBE], env=env, capture_output=True,
                          text=True, timeout=300)


def cache_files(cache: Path) -> list[str]:
    return sorted(str(p.relative_to(cache / "flipdist")) for p in cache.rglob("*") if p.is_file())


def copy_package(dest: Path) -> Path:
    """A copy of the flipdist package, with no library or bytecode in it,
    at dest/flipdist; returns its _core.c."""
    shutil.copytree(PACKAGE, dest / "flipdist",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
    return dest / "flipdist" / "_core.c"


def loaded_core(env: dict[str, str]) -> tuple[Path, str]:
    """The file and doc of the _core a fresh interpreter loads."""
    proc = subprocess.run([sys.executable, "-c", LOADED], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    path, doc = proc.stdout.splitlines()
    return Path(path), doc


def digest_dir(cache: Path, source: Path) -> Path:
    return cache / "flipdist" / hashlib.sha256(source.read_bytes()).hexdigest()


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


@needs_compiler
def test_library_beside_the_source_is_ignored(tmp_path):
    # a stray library built from an edited _core.c, left where an in-place
    # extension build would put it
    cc = shlex.join(compiler_command())
    edited = copy_package(tmp_path / "edited")
    text = edited.read_text()
    real_doc = "Compiled search kernel, general-position screen and triangulation certificate."
    assert real_doc in text
    edited.write_text(text.replace(real_doc, "A stale build of an edited source."))
    stale, doc = loaded_core(environ(tmp_path / "stale-cache", cc, edited.parents[1]))
    assert doc == "A stale build of an edited source."
    source = copy_package(tmp_path / "pkg")
    shutil.copy(stale, source.with_name(LIBRARY))
    cache = tmp_path / "cache"
    lib, doc = loaded_core(environ(cache, cc, source.parents[1]))
    assert lib == digest_dir(cache, source) / LIBRARY
    assert doc == real_doc


@needs_compiler
def test_built_package_compiles_on_first_import(tmp_path):
    pytest.importorskip("setuptools")
    # build_py writes src/flipdist.egg-info, so it runs on a copy
    project = tmp_path / "project"
    copy_package(project / "src")
    shutil.copy(PACKAGE.parents[1] / "pyproject.toml", project)
    build = tmp_path / "build"
    proc = subprocess.run([sys.executable, "-c", "import setuptools; setuptools.setup()",
                           "build_py", "--build-lib", str(build)],
                          cwd=project, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    source = build / "flipdist" / "_core.c"
    assert source.read_bytes() == (PACKAGE / "_core.c").read_bytes()
    cache = tmp_path / "cache"
    env = environ(cache, shlex.join(compiler_command()), build)
    assert probe(env).stdout == "True\n"
    lib, _ = loaded_core(env)
    assert lib == digest_dir(cache, source) / LIBRARY
