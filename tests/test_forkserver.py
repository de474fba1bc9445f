"""Pool workers are forked from one preloaded forkserver.

The server is a new interpreter that imports :mod:`repro.serve` once;
every pool, respawn and background rebuild after the first is a fork of
it.  The preload is only worth anything if the server really imported the
package, which Python 3.11 does not check, so these tests look at the
server process itself.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.persistence import save_artifacts
from repro.serve import WorkerPool

SRC = Path(__file__).parents[1] / "src"

needs_forkserver = pytest.mark.skipif(
    "forkserver" not in mp.get_all_start_methods(), reason="no forkserver here"
)
needs_proc = pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="no /proc"
)


def parent_pid(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[1])


@pytest.fixture(scope="module")
def artifact_dir(small_graph, tmp_path_factory):
    from repro import BePI

    path = tmp_path_factory.mktemp("forkserver") / "solver"
    save_artifacts(BePI(tol=1e-9).preprocess(small_graph), path)
    return path


#: Boots a pool from a script that puts ``src`` on ``sys.path`` only, the
#: way ``perfbench/run.py`` does, and reports the worker's parent (the
#: server) and whether that server has ``scipy.sparse``'s extensions mapped.
SCRIPT = """\
import json, os, sys
sys.path.insert(0, {src!r})
from repro.serve import WorkerPool


def parent_pid(pid):
    with open(f"/proc/{{pid}}/stat") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[1])


if __name__ == "__main__":
    with WorkerPool({artifacts!r}, n_workers=1, timeout=120) as pool:
        server = parent_pid(pool.worker_stats()[0]["pid"])
        with open(f"/proc/{{server}}/maps") as maps:
            mapped = maps.read()
    print(json.dumps({{
        "me": os.getpid(),
        "server": server,
        "sparse": "/scipy/sparse/" in mapped,
        "numpy": "/numpy/" in mapped,
    }}))
"""


@needs_forkserver
@needs_proc
def test_server_preloads_the_package_when_src_is_only_on_sys_path(
    artifact_dir, tmp_path
):
    script = tmp_path / "boot.py"
    script.write_text(SCRIPT.format(src=str(SRC), artifacts=str(artifact_dir)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=120, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["server"] != report["me"]  # forked from a server
    assert report["numpy"] and report["sparse"], report


@needs_forkserver
@needs_proc
def test_pools_fork_from_one_server_and_spawn_stays_available(artifact_dir):
    servers = set()
    for _ in range(2):
        with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
            servers.add(parent_pid(pool.worker_stats()[0]["pid"]))
    assert len(servers) == 1 and os.getpid() not in servers
    with WorkerPool(artifact_dir, n_workers=1, start_method="spawn") as pool:
        assert parent_pid(pool.worker_stats()[0]["pid"]) == os.getpid()
