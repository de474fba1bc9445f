"""Tests for the solver fallback chain (GMRES → Jacobi → BiCGSTAB → power)."""

import importlib
import warnings

import numpy as np
import pytest

from repro import BePI
from repro.exceptions import ConvergenceWarning
from repro.telemetry import (
    FALLBACK_RUNG_PREFIX,
    FALLBACK_TOTAL,
)

from .conftest import exact_rwr

gmres_module = importlib.import_module("repro.linalg.gmres")


def _stagnated(n: int):
    """What a stagnated right-hand side reports: no progress at all."""
    return gmres_module.GMRESResult(
        x=np.zeros(n), converged=False, n_iterations=0, residual_norms=[1.0]
    )


@pytest.fixture
def stagnate(monkeypatch):
    """``stagnate(n)`` makes the next ``n`` GMRES right-hand sides stagnate.

    Both GMRES engines are wrapped; right-hand sides are counted in call
    order (the first columns of a block first), so a fallback rung that
    retries GMRES spends more of the budget.
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
        assert delta[FALLBACK_TOTAL] == 1.0
        assert delta[FALLBACK_RUNG_PREFIX + "gmres_jacobi"] == 1.0
        assert solver.stats["unconverged_queries"] == 0

    def test_chain_degrades_to_bicgstab_when_jacobi_rung_also_stagnates(
        self, solver, small_graph, stagnate
    ):
        # Budget 2: the primary GMRES(ILU) solve and the GMRES(Jacobi) rung
        # both stagnate; BiCGSTAB is the first rung that can answer.
        before = fallback_counters(solver)
        stagnate(2)
        recovered = solver.query(5)
        assert np.allclose(recovered, exact_rwr(small_graph, 0.05, 5), atol=1e-8)
        delta = counter_delta(before, fallback_counters(solver))
        assert delta[FALLBACK_RUNG_PREFIX + "bicgstab"] == 1.0
        assert FALLBACK_RUNG_PREFIX + "gmres_jacobi" not in delta
        assert solver.stats["unconverged_queries"] == 0

    def test_batched_queries_recover_per_column(
        self, solver, small_graph, stagnate
    ):
        before = fallback_counters(solver)
        stagnate(2)
        scores = solver.query_many([0, 1, 2])
        for seed, row in zip([0, 1, 2], scores):
            assert np.allclose(row, exact_rwr(small_graph, 0.05, seed), atol=1e-8)
        # Two columns stagnated and the Jacobi rung recovered both.
        delta = counter_delta(before, fallback_counters(solver))
        assert delta[FALLBACK_RUNG_PREFIX + "gmres_jacobi"] == 2.0
        assert solver.stats["unconverged_queries"] == 0

    def test_fallback_residual_histogram_recorded(self, solver, stagnate):
        stagnate(1)
        solver.query(1)
        histograms = solver.telemetry.snapshot()["histograms"]
        assert "rwr.queries.fallback.residual" in histograms

    def test_fallback_counters_exported_to_prometheus(self, solver, stagnate):
        stagnate(1)
        solver.query(2)
        text = solver.telemetry.to_prometheus()
        assert "rwr_queries_fallback" in text
        assert "rwr_queries_fallback_gmres_jacobi" in text

    def test_disabled_chain_surfaces_the_stagnation(self, small_graph, stagnate):
        solver = BePI(tol=1e-10, hub_ratio=0.3, fallback_chain=False).preprocess(
            small_graph
        )
        stagnate(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solver.query(0)
        assert solver.stats["unconverged_queries"] >= 1
        assert fallback_counters(solver) == {}


class TestRungSelection:
    def test_ilu_primary_keeps_all_rungs(self, solver):
        assert solver.engine._fallback_rungs() == (
            "gmres_jacobi",
            "bicgstab",
            "power",
        )

    def test_jacobi_primary_skips_equivalent_rung(self, small_graph):
        solver = BePI(tol=1e-10, hub_ratio=0.3, ilu_engine="jacobi").preprocess(
            small_graph
        )
        assert solver.engine._fallback_rungs() == ("bicgstab", "power")

    def test_bicgstab_primary_skips_equivalent_rung(self, small_graph):
        solver = BePI(
            tol=1e-10,
            hub_ratio=0.3,
            iterative_method="bicgstab",
            ilu_engine="jacobi",
        ).preprocess(small_graph)
        assert solver.engine._fallback_rungs() == ("gmres_jacobi", "power")


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


class TestPreconditionerBuildFallback:
    def test_failed_ilu_degrades_to_jacobi_with_warning(
        self, small_graph, monkeypatch
    ):
        import repro.core.bepi as bepi_module

        def broken_ilu(*args, **kwargs):
            raise RuntimeError("synthetic factorization breakdown")

        monkeypatch.setattr(bepi_module, "sgs_factors", broken_ilu)
        with pytest.warns(ConvergenceWarning, match="falling back"):
            solver = BePI(tol=1e-10, hub_ratio=0.3).preprocess(small_graph)
        assert solver.stats["preconditioner_fallback"] == "jacobi"
        scores = solver.query(0)
        assert np.allclose(scores, exact_rwr(small_graph, 0.05, 0), atol=1e-8)
