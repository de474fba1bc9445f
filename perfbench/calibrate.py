"""The machine's speed during a run, from a fixed reference kernel.

The sizing machine is a 2-vCPU share of a busy host.  Its speed flips
between states up to 1.9x apart within a minute and drifts over minutes
(README "Measured steadiness"), so raw times from runs minutes apart
differ by more than any regression bound.  The benchmark therefore times
a fixed kernel at points spread through the run -- before each set-up
round, and once at the end -- and scales each time it measures to a
reference speed, by the kernel's time interpolated to the moment the
measurement was made:

    reported = measured * REFERENCE_S / kernel_s(when measured)

The metrics are then taken over the scaled times.  The
kernel runs in a helper process of its own, while the benchmark waits for
it and the program has no request in flight, so it shares no interpreter
lock with the program and a single program thread left busy would run on
the other core rather than slow it.  It uses numpy and scipy alone, never
the program, so no change to the program changes it.  Its parts mirror
where the program spends time: an incomplete LU factorization (set-up is
mostly ILU), an ILU-preconditioned GMRES solve (queries), and a Python
loop over a dict (serving, update batches).  Each run prints the
metrics from unscaled times and the samples in its settings line.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import numpy as np

#: Kernel seconds at the reference speed: a round figure near the sizing
#: machine's usual kernel median, so reported times read close to raw ones.
REFERENCE_S = 0.2
#: Kernel repetitions per sample; the sample is their median.
REPEATS = 2


def _problem():
    """The 5-point Laplacian of a 128 x 128 grid (16,384 rows, the
    benchmark graph's size) and a fixed right-hand side."""
    import scipy.sparse as sp

    side = 128
    path = sp.diags([1.0, 1.0], [-1, 1], shape=(side, side))
    eye = sp.identity(side)
    matrix = (4.0 * sp.identity(side * side) - sp.kron(eye, path)
              - sp.kron(path, eye)).tocsc()
    return matrix, np.random.default_rng(0).standard_normal(side * side)


def _kernel(matrix, rhs) -> float:
    import scipy.sparse.linalg as spla

    start = time.perf_counter()
    ilu = spla.spilu(matrix, drop_tol=1e-4, fill_factor=10)
    preconditioner = spla.LinearOperator(matrix.shape, ilu.solve)
    spla.gmres(matrix, rhs, M=preconditioner, restart=30, maxiter=1)
    counts: dict = {}
    for i in range(100_000):
        key = (i * 7919) % 4096
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def serve() -> None:
    """Helper process: after one untimed kernel, answer each line on
    standard input with one sample (seconds) until standard input closes."""
    matrix, rhs = _problem()
    _kernel(matrix, rhs)
    print("ready", flush=True)
    for _ in sys.stdin:
        sample = statistics.median(_kernel(matrix, rhs) for _ in range(REPEATS))
        print(repr(sample), flush=True)


class Meter:
    """Kernel samples taken in a helper process, on request."""

    def __init__(self) -> None:
        root = Path(__file__).resolve().parent.parent
        self.samples: List[float] = []
        #: ``perf_counter`` at the middle of each sample.
        self.times: List[float] = []
        self._process = subprocess.Popen(
            [sys.executable, "-c", "from perfbench.calibrate import serve; serve()"],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._process.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration helper failed to start")

    def sample(self) -> float:
        start = time.perf_counter()
        self._process.stdin.write("sample\n")
        self._process.stdin.flush()
        self.samples.append(float(self._process.stdout.readline()))
        self.times.append((start + time.perf_counter()) / 2)
        return self.samples[-1]

    def factor_at(self, when: float) -> float:
        """Scale from a time measured at ``perf_counter`` ``when`` to one
        at the reference speed, from the samples on either side of it
        (the nearest one outside the sampled span)."""
        return REFERENCE_S / float(np.interp(when, self.times, self.samples))

    def close(self) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()
