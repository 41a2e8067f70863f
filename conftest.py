"""Session set-up shared by ``tests/`` and ``perfbench/``.

Importing flipdist compiles its kernel into
``${XDG_CACHE_HOME:-~/.cache}/flipdist/`` (see ``flipdist._kernel``).  A test
run points XDG_CACHE_HOME at a fresh temporary directory, so the session and
every subprocess it starts build into that directory, which is removed when
the session ends.  The suite thus leaves the user's cache as it found it, at
the price of one compile per run.  This is done on import, not in a hook:
pytest imports this file before ``tests/conftest.py`` and the test modules,
which import flipdist as they load.  For the same reason it puts ``src/`` first
on ``sys.path`` and on ``PYTHONPATH``, so ``python3 -m pytest`` runs from a
fresh checkout with no install step, and so do the tests' subprocesses.
"""

import os
import shutil
import sys
import tempfile

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

_CACHE = tempfile.mkdtemp(prefix="flipdist-test-cache-")
os.environ["XDG_CACHE_HOME"] = _CACHE


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_CACHE, ignore_errors=True)
