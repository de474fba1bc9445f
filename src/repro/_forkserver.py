"""The start method of every process the package starts.

Pool workers, their respawns and background rebuilds are all forked from
one process-wide ``multiprocessing`` forkserver whose server has imported
:mod:`repro.serve` (numpy, ``scipy.sparse`` and the query engine).  Only
the first start in a process pays for a new interpreter and its imports;
every later one is a ``fork`` of that warm server.  On a platform without
``forkserver`` the default is ``spawn``.

The server exits when the process that started it does (it watches a pipe
only its owner holds), so it outlives no benchmark or CLI run.  Its
environment is the owner's at the first start, plus the package on
``PYTHONPATH`` (see :func:`_ensure_server`); a worker inherits that
environment, not the one its pool's process has at the time.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
from pathlib import Path
from typing import Optional

#: What the forkserver imports once, before it forks any process.
PRELOAD = ["repro.serve"]

#: The directory the package is imported from (``src`` in a checkout).
_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent)

_LOCK = threading.Lock()


def process_context(start_method: Optional[str] = None):
    """The ``multiprocessing`` context to start a worker or rebuild with.

    ``None`` is the preloaded forkserver, or ``spawn`` where the platform
    has no ``forkserver``.  An explicit method is used as given; an
    explicit ``"forkserver"`` gets the preload too.
    """
    if start_method is None:
        start_method = (
            "forkserver" if "forkserver" in mp.get_all_start_methods() else "spawn"
        )
    context = mp.get_context(start_method)
    if start_method == "forkserver":
        _ensure_server(context)
    return context


def _ensure_server(context) -> None:
    """Start the forkserver with :data:`PRELOAD` unless it is running.

    The server is a new interpreter.  On Python 3.11 it ignores the
    ``sys_path`` it is handed and swallows a failed preload import, so a
    caller that put the package on ``sys.path`` only (``perfbench/run.py``
    does) would fork every worker from a server with nothing loaded.  The
    package's parent directory therefore goes first on ``PYTHONPATH``
    while the server starts: it imports the same package as this process.
    """
    from multiprocessing import forkserver

    with _LOCK:
        context.set_forkserver_preload(PRELOAD)
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            path for path in (_PACKAGE_PARENT, saved) if path
        )
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
