"""The benchmark's inputs are a pure function of the workload seed, the
oracle accepts exact answers and rejects wrong ones, and the code's
workload and metric names match ``BENCHMARK.json``.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, oracle, system, workloads
from perfbench.workloads import WORKLOADS


@pytest.fixture(scope="module")
def graph():
    return workloads.make_graph()


def _inputs(graph, name, seed, seconds=4.0):
    return workloads.make_inputs(WORKLOADS[name], graph, seconds, seed, checks_per_update=2)


def _as_bytes(value):
    if isinstance(value, dict):
        return b"".join(k.encode() + _as_bytes(v) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return b"".join(_as_bytes(v) for v in value)
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(graph, name):
    assert _as_bytes(_inputs(graph, name, 7)) == _as_bytes(_inputs(graph, name, 7))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_changes_every_input(graph, name):
    first, second = _inputs(graph, name, 7), _inputs(graph, name, 8)
    assert set(first) == set(second)
    for key in first:
        assert _as_bytes(first[key]) != _as_bytes(second[key]), key


def test_schedule_and_popularity_shape(graph):
    plan = _inputs(graph, "online", 3, seconds=40.0)["plan"]
    assert plan["seeds"].size == plan["times"].size == 40 * WORKLOADS["online"].rate
    assert np.all(np.diff(plan["times"]) > 0)
    # Deadends have no out-edges and are never drawn.
    assert np.all(graph.out_degrees()[plan["seeds"]] > 0)
    # Zipf(0.7) popularity: some requests repeat a seed, most do not, so
    # p50 stays inside the cache-miss group.
    assert 0.05 < workloads.repeat_share(plan["seeds"]) < 0.35


def test_blocks_are_distinct_seeds(graph):
    blocks = _inputs(graph, "batch", 5)["blocks"]
    assert blocks.shape == (WORKLOADS["batch"].n_blocks, workloads.BLOCK_SIZE)
    assert np.unique(blocks).size == blocks.size


def test_update_batches_keep_the_original_pattern(graph):
    workload = WORKLOADS["online"]
    inputs = _inputs(graph, "online", 2)
    batches = inputs["updates"]
    assert len(batches) == workload.updates == len(inputs["check_seeds"])
    original = {tuple(e) for e in graph.edges().tolist()}
    for reweighted, weights, removed in batches:
        assert len(reweighted) + len(removed) == workload.update_size
        assert len(weights) == len(reweighted)
        assert set(reweighted) | set(removed) <= original


def test_oracle_accepts_exact_rows_and_rejects_wrong_ones():
    from repro import BePI, generate_rmat
    from repro.core.topk import to_pairs, topk_from_scores

    small = generate_rmat(8, 1500, seed=3)
    solver = BePI(c=workloads.RESTART, tol=workloads.TOLERANCE).preprocess(small)
    h = oracle.build_h(small.adjacency, workloads.RESTART)
    seeds = [int(s) for s in np.flatnonzero(small.out_degrees() > 0)[:4]]
    rows = solver.query_many(seeds)
    assert np.all(oracle.residuals(h, workloads.RESTART, seeds, rows) < oracle.RESIDUAL_L1)
    assert np.all(oracle.residuals(h, workloads.RESTART, seeds[::-1], rows) > oracle.RESIDUAL_L1)
    reply = to_pairs(topk_from_scores(rows[0], seeds[0], workloads.TOP_K))
    assert oracle.topk_matches(reply, rows[0], seeds[0], workloads.TOP_K)
    assert not oracle.topk_matches(reply, rows[1], seeds[1], workloads.TOP_K)
    wrong = reply.copy()
    wrong["score"][0] += 1e-3
    assert not oracle.topk_matches(wrong, rows[0], seeds[0], workloads.TOP_K)


def test_names_match_the_declaration():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.MOVES)
    # Every probe round gets the same number of update batches.
    assert all(w.updates % system.SLICES == 0 for w in WORKLOADS.values())


def test_plan_slices_cover_the_schedule_in_order(graph):
    seconds = 12.0
    times = _inputs(graph, "online", 4, seconds=seconds)["plan"]["times"]
    parts = system.plan_slices(times, seconds)
    assert len(parts) == system.SLICES
    assert parts[0].start == 0 and parts[-1].stop == times.size
    for index, (part, after) in enumerate(zip(parts, parts[1:])):
        assert part.stop == after.start
        assert np.all(times[part] < (index + 1) * seconds / system.SLICES)


def test_supervisor_waits_for_orphaned_descendants(tmp_path):
    import os
    import sys

    from perfbench.supervise import supervise

    # The child starts a grandchild in a session of its own that outlives
    # it by a moment, writes its pid, and exits at once.
    pid_file = tmp_path / "orphan.pid"
    script = (
        "import subprocess, sys\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(0.5)'],"
        " start_new_session=True)\n"
        f"open({str(pid_file)!r}, 'w').write(str(p.pid))\n"
    )
    assert supervise([sys.executable, "-c", script + "sys.exit(3)\n"],
                     dict(os.environ)) == 3
    orphan = int(pid_file.read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(orphan, 0)


def test_meter_samples_in_a_helper_that_ends_on_close():
    from perfbench.calibrate import REFERENCE_S, Meter

    meter = Meter()
    try:
        samples = [meter.sample(), meter.sample()]
    finally:
        meter.close()
    assert all(0 < s < 60 for s in samples) and meter.samples == samples
    first, second = meter.times
    assert first < second
    # Interpolated between the samples, held at the nearest one outside.
    middle = REFERENCE_S / ((samples[0] + samples[1]) / 2)
    assert meter.factor_at((first + second) / 2) == pytest.approx(middle)
    assert meter.factor_at(first - 10) == pytest.approx(REFERENCE_S / samples[0])
    assert meter.factor_at(second + 10) == pytest.approx(REFERENCE_S / samples[1])
    assert meter._process.poll() == 0
