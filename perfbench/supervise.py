"""Run the benchmark in a child process and reap every process it leaves.

The benchmark starts processes of its own (the pool's worker) and Python
starts some behind its back (``multiprocessing``'s resource tracker, which
outlives the process that started it by a moment).  The supervisor makes
itself the *child subreaper* (Linux ``PR_SET_CHILD_SUBREAPER``), so every
orphaned descendant is re-parented to it rather than to init.  After the
benchmark exits, it waits for each descendant to end, escalating from
SIGTERM to SIGKILL past a grace period, and reaps it.  It returns only
when it has no descendant left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from typing import List

PR_SET_CHILD_SUBREAPER = 36
#: Seconds a leftover descendant gets to end by itself, then after SIGTERM.
GRACE_S = 5.0


def become_subreaper() -> bool:
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):  # not Linux: the process group still works
        return False


def children() -> List[int]:
    """Live processes whose parent is this one."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # ended while listing
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def reap() -> bool:
    """Reap every child that has ended; ``False`` once none is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def signal_all(group: int, sig: int) -> None:
    """Send ``sig`` to the benchmark's process group and to every child."""
    try:
        os.killpg(group, sig)
    except (ProcessLookupError, PermissionError):
        pass
    for pid in children():
        try:
            os.kill(pid, sig)
        except (ProcessLookupError, PermissionError):
            pass


def supervise(command: List[str], env: dict) -> int:
    """Run ``command`` (standard streams inherited) in a process group of
    its own; return its exit code once it and every descendant has ended."""
    become_subreaper()
    child = subprocess.Popen(command, env=env, start_new_session=True)

    def forward(signum, _frame):
        signal_all(child.pid, signum)

    previous = {s: signal.signal(s, forward) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        code = child.wait()
    finally:
        for escalate in (None, signal.SIGTERM, signal.SIGKILL):
            if escalate is not None:
                signal_all(child.pid, escalate)
            deadline = time.monotonic() + GRACE_S
            while reap() and time.monotonic() < deadline:
                time.sleep(0.02)
            if not reap():
                break
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return code
