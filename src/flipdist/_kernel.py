"""Search kernel selection: compiled extension when available, else pure Python.

The compiled kernel is the C extension ``_core``, which also holds the
general-position screen ``slope_repeat`` and the triangulation certificate
``apex_rows``.  ``PointSet`` and ``build`` read them from here whenever
``_core`` is loaded, and run their pure twins, ``geometry._slope_repeat``
and ``triangulation._apex_rows``, when it is not; neither has a point cap,
and each twin returns the same values.  ``_core`` is built in one way
only: ``_core.c``, which ships as package data, is compiled on first import
with ``$CC`` (default: the compiler Python was built with) into
``${XDG_CACHE_HOME:-~/.cache}/flipdist/<sha256 of the source>/``, and later
imports load it from there.  The cache is keyed by the source, so an edited
``_core.c`` is always rebuilt, and a library lying beside it in the package
directory is never imported.  Without a working compiler, or a writable cache
and a home directory to find it in, the pure kernel is used, in a checkout
and an installed copy alike, and nothing is printed.

Both kernels return identical witnesses, so the choice changes only speed and
is made from facts alone: the compiled kernel whenever it is loaded and the
point set fits it.  It indexes edges as a * n + b in flat arrays, so it is
capped at COMPILED_MAX_POINTS; larger point sets run on the dict-based pure
kernel.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Callable, Optional

from . import _searchpure
from .triangulation import Triangulation


def _build_core() -> Optional[ModuleType]:
    """Load ``_core`` from the per-user cache, compiling it there first if
    needed; None when the source, the compiler or the cache is unusable."""
    source = Path(__file__).with_name("_core.c")
    try:
        digest = hashlib.sha256(source.read_bytes()).hexdigest()
    except OSError:
        return None
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    except RuntimeError:  # no $HOME and no passwd entry for this uid
        return None
    lib = cache / "flipdist" / digest / ("_core" + suffix)
    if not lib.exists():
        try:
            cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
        except ValueError:  # unbalanced quotes in $CC
            return None
        includes = {sysconfig.get_paths()["include"], sysconfig.get_paths()["platinclude"]}
        flags = ["-undefined", "dynamic_lookup"] if sys.platform == "darwin" else []
        try:
            lib.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=suffix, dir=lib.parent)
            os.close(fd)
            try:
                # concurrent builders each write their own temp file; the
                # rename is atomic, so a reader never sees a partial library
                subprocess.run(cc + ["-O3", "-shared", "-fPIC", *flags,
                                     *(f"-I{d}" for d in sorted(includes)),
                                     str(source), "-o", tmp],
                               stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, check=True)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except (OSError, subprocess.CalledProcessError):
            return None
    spec = importlib.util.spec_from_file_location(f"{__package__}._core", lib)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError:
        return None
    sys.modules[spec.name] = module
    return module


_core = _build_core()

COMPILED_MAX_POINTS = 1024

RunFn = Callable[[_searchpure.Prep, int], Optional[_searchpure.Accept]]


def compiled_available() -> bool:
    return _core is not None


def resolve_backend(n: int) -> str:
    """The kernel for an n-point search: compiled when loaded and n fits its cap."""
    return "compiled" if _core is not None and n <= COMPILED_MAX_POINTS else "pure"


def kernel_for(name: str) -> RunFn:
    if name == "compiled":
        if _core is None:
            raise RuntimeError("compiled backend is not built")
        return _core.run_budget
    if name == "pure":
        return _searchpure.run_budget
    raise ValueError(f"unknown backend {name!r}")


def make_prep(t_start: Triangulation, t_end: Triangulation) -> _searchpure.Prep:
    """The pair as the kernels take it: the coordinates and the two apex maps
    themselves, uncopied.  The kernels only read them and sort the necessary
    edges they start from, so a map's key order changes no witness."""
    return (len(t_start.ps), t_start.ps.xs, t_start.ps.ys, t_start.apex, t_end.apex)
