"""Tests for the Schur solve's safety net: GMRES, then the power rung.

The engine solves ``S r2 = q2~`` with GMRES (SGS-preconditioned for BePI)
and finishes any column GMRES leaves unconverged with the power rung.
The rung needs no factorization: for the Schur complement of any RWR
system ``diag(S) > 0`` and ``‖I - S‖₁ ≤ 1 - c``, so it contracts by
``1 - c`` per step.  ``TestSchurContraction`` checks that argument on
random graphs; it is why no other rung or build-time fallback exists.
"""

import importlib
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BePI, BePIS
from repro.telemetry import (
    FALLBACK_RESIDUAL,
    FALLBACK_RUNG_PREFIX,
    FALLBACK_TOTAL,
)

from .conftest import exact_rwr
from .test_query_paths import graphs

gmres_module = importlib.import_module("repro.linalg.gmres")

POWER = FALLBACK_RUNG_PREFIX + "power"


def _stagnated(n: int):
    """What a stagnated right-hand side reports: no progress at all."""
    return gmres_module.GMRESResult(
        x=np.zeros(n), converged=False, n_iterations=0, residual_norms=[1.0]
    )


@pytest.fixture
def stagnate(monkeypatch):
    """``stagnate(n)`` makes the next ``n`` GMRES right-hand sides stagnate.

    Both GMRES engines are wrapped; right-hand sides are counted in call
    order (the first columns of a block first).  ``stagnate.left()`` is
    the budget no GMRES call has taken.
    """
    budget = [0]
    run_single = gmres_module._run_gmres
    run_block = gmres_module._run_gmres_block

    def take(requested: int) -> int:
        taken = min(budget[0], requested)
        budget[0] -= taken
        return taken

    def single(matvec, precondition, b, *args):
        if take(1):
            return _stagnated(b.shape[0])
        return run_single(matvec, precondition, b, *args)

    def block(matvec, precondition, b, *args):
        batch = run_block(matvec, precondition, b, *args)
        hit = take(b.shape[1])
        if not hit:
            return batch
        x = np.array(batch.x)
        x[:, :hit] = 0.0
        columns = [_stagnated(b.shape[0]) for _ in range(hit)]
        return gmres_module.GMRESBatchResult(
            x=x, columns=columns + batch.columns[hit:]
        )

    monkeypatch.setattr(gmres_module, "_run_gmres", single)
    monkeypatch.setattr(gmres_module, "_run_gmres_block", block)

    def arm(n: int) -> None:
        budget[0] = n

    arm.left = lambda: budget[0]
    return arm


def fallback_counters(solver) -> dict:
    return {
        name: entry["value"]
        for name, entry in solver.telemetry.snapshot()["counters"].items()
        if name.startswith(FALLBACK_TOTAL)
    }


def counter_delta(before: dict, after: dict) -> dict:
    """Non-zero counter increments (the solver fixture is shared)."""
    delta = {
        name: value - before.get(name, 0.0) for name, value in after.items()
    }
    return {name: value for name, value in delta.items() if value}


@pytest.fixture(scope="module")
def solver(small_graph):
    return BePI(tol=1e-10, hub_ratio=0.3).preprocess(small_graph)


class TestFallbackChain:
    def test_forced_stagnation_still_answers_within_tolerance(
        self, solver, small_graph, stagnate
    ):
        baseline = solver.query(3)
        before = fallback_counters(solver)
        stagnate(1)
        recovered = solver.query(3)
        assert np.allclose(recovered, exact_rwr(small_graph, 0.05, 3), atol=1e-8)
        assert np.allclose(recovered, baseline, atol=1e-8)
        delta = counter_delta(before, fallback_counters(solver))
        assert delta == {FALLBACK_TOTAL: 1.0, POWER: 1.0}
        assert solver.stats["unconverged_queries"] == 0

    def test_power_rung_does_not_rerun_gmres(self, solver, small_graph, stagnate):
        # Budget 2 on one column: GMRES takes one, the power rung none.
        before = fallback_counters(solver)
        stagnate(2)
        recovered = solver.query(5)
        assert stagnate.left() == 1
        assert np.allclose(recovered, exact_rwr(small_graph, 0.05, 5), atol=1e-8)
        delta = counter_delta(before, fallback_counters(solver))
        assert delta == {FALLBACK_TOTAL: 1.0, POWER: 1.0}
        assert solver.stats["unconverged_queries"] == 0

    def test_batched_queries_recover_per_column(
        self, solver, small_graph, stagnate
    ):
        before = fallback_counters(solver)
        stagnate(2)
        scores = solver.query_many([0, 1, 2])
        for seed, row in zip([0, 1, 2], scores):
            assert np.allclose(row, exact_rwr(small_graph, 0.05, seed), atol=1e-8)
        # Two columns stagnated and the power rung recovered both.
        delta = counter_delta(before, fallback_counters(solver))
        assert delta == {FALLBACK_TOTAL: 2.0, POWER: 2.0}
        assert solver.stats["unconverged_queries"] == 0

    def test_unpreconditioned_variant_recovers_too(self, small_graph, stagnate):
        solver = BePIS(tol=1e-10).preprocess(small_graph)
        stagnate(1)
        recovered = solver.query(4)
        assert np.allclose(recovered, exact_rwr(small_graph, 0.05, 4), atol=1e-8)
        assert fallback_counters(solver) == {FALLBACK_TOTAL: 1.0, POWER: 1.0}

    def test_fallback_residual_histogram_recorded(self, solver, stagnate):
        stagnate(1)
        solver.query(1)
        histogram = solver.telemetry.snapshot()["histograms"][FALLBACK_RESIDUAL]
        assert histogram["count"] >= 1
        assert histogram["sum"] <= 1e-10 * histogram["count"]

    def test_fallback_counters_exported_to_prometheus(self, solver, stagnate):
        stagnate(1)
        solver.query(2)
        text = solver.telemetry.to_prometheus()
        assert "rwr_queries_fallback" in text
        assert "rwr_queries_fallback_power" in text

    def test_spent_deadline_skips_the_rung(self, solver, stagnate, monkeypatch):
        engine = solver.engine

        def not_run(rhs):
            raise AssertionError("the power rung ran after the deadline")

        monkeypatch.setattr(engine, "_power_block", not_run)
        before = fallback_counters(solver)
        stagnate(1)
        rhs = np.zeros((engine.n_nodes, 1))
        rhs[3, 0] = 1.0
        _, _, extras = engine.query_block(rhs, deadline=time.monotonic() - 1.0)
        assert not extras["converged"][0]
        assert counter_delta(before, fallback_counters(solver)) == {}


class TestPowerRung:
    def test_power_rung_solves_the_schur_system(self, solver):
        engine = solver.engine
        schur = engine.artifacts.preprocess.schur
        rng = np.random.default_rng(7)
        rhs = rng.random((schur.shape[0], 2))
        x, iterations, converged, residuals = engine._power_block(rhs)
        assert converged.all()
        assert (iterations > 0).all()
        for j in range(rhs.shape[1]):
            residual = np.linalg.norm(rhs[:, j] - schur @ x[:, j])
            assert residual <= 1e-10 * np.linalg.norm(rhs[:, j]) * 10


class TestSchurContraction:
    """Why GMRES needs one safety net and the build none: on every RWR
    graph ``S`` has a positive diagonal (so its SGS factors exist) and
    ``‖I - S‖₁ ≤ 1 - c`` (so the power rung converges)."""

    @given(
        graph=graphs,
        c=st.sampled_from([0.05, 0.15, 0.5, 0.85]),
        hub_ratio=st.sampled_from([0.1, 0.25, 0.5]),
        rhs_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_diagonal_contraction_and_power_convergence(
        self, graph, c, hub_ratio, rhs_seed
    ):
        solver = BePI(c=c, tol=1e-9, hub_ratio=hub_ratio).preprocess(graph)
        schur = solver.artifacts.schur
        n2 = schur.shape[0]
        if n2 == 0:
            return
        # diag(S) = 1 - diag(I - S) >= c > 0: the SGS factors always exist.
        assert np.all(schur.diagonal() >= c - 1e-12)
        off = sp.identity(n2, format="csr") - schur
        assert abs(off).sum(axis=0).max() <= 1.0 - c + 1e-12
        engine = solver.engine
        rhs = np.random.default_rng(rhs_seed).standard_normal((n2, 2))
        _, iterations, converged, residuals = engine._power_block(rhs)
        assert converged.all(), residuals
        # ‖b - S x_k‖₂ ≤ (1 - c)^k ‖b‖₁ ≤ (1 - c)^k √n2 ‖b‖₂ bounds the steps.
        bound = np.ceil(np.log(1e-9 / np.sqrt(n2)) / np.log(1.0 - c))
        assert (iterations <= bound + 1).all(), (iterations, bound)
        assert bound < engine.FALLBACK_POWER_ITERATIONS
