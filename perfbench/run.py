"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload online --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer budget.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
are a readable report and the run settings (``settings: {...}``), which is
everything needed to rerun the same inputs on another commit.

The command runs the benchmark in a child process and returns only once
that child and every process it left behind have ended
(``perfbench/supervise.py``).

See ``perfbench/README.md`` for the workloads, metrics and their rationale.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread in this process and in the pool worker it spawns (which
# inherits the environment); must be set before numpy is first imported.
BLAS_THREADS = "1"
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

WORK_DIR = ROOT / ".perfbench_work"
#: Set in the child that runs the benchmark under the supervisor.
CHILD_ENV = "PERFBENCH_SUPERVISED"


def parse_args(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if os.environ.get(CHILD_ENV) != "1":
        # Run the benchmark in a child and wait for every process it
        # started, so none outlives this command.
        from perfbench.supervise import supervise

        return supervise([sys.executable, str(Path(__file__).resolve()), *argv],
                         dict(os.environ, **{CHILD_ENV: "1"}))
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    from perfbench.report import run_workload

    WORK_DIR.mkdir(exist_ok=True)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), WORK_DIR)


if __name__ == "__main__":
    sys.exit(main())
