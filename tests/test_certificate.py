"""The error certificate of a truncated Algorithm-4 solve, against a dense solve.

Whatever iterate ``r2`` the Schur solve stops at, lines 5 and 6 of
Algorithm 4 leave ``H r - c q`` zero outside the hub block and equal to
``S r2 - q~2`` inside it, so with ``||H^{-1}||_1 <= 1/c`` each column's
``extras["certificate"] = ||S r2 - q~2||_1 / c`` bounds its L1 distance to
the exact scores.  The gateway's degraded rung replies with that bound.
"""

import asyncio
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BePI
from repro.gateway import BackendError, CertifiedAnswerer, Gateway
from repro.linalg.rwr_matrix import build_h_matrix
from repro.persistence import save_artifacts

from .test_incremental import _generated_graph

#: Round-off allowance of the comparison (the dense solve's and the
#: block elimination's own), far below any truncated solve's certificate.
ROUNDOFF = 1e-13


def _dense_scores(graph, c):
    """Row ``s`` is the exact RWR answer for seed ``s``."""
    h = build_h_matrix(graph.adjacency, c).toarray()
    return np.linalg.solve(h, c * np.eye(graph.n_nodes)).T


def _one_hot(n, seeds):
    rhs = np.zeros((n, len(seeds)), dtype=np.float64)
    rhs[seeds, np.arange(len(seeds))] = 1.0
    return rhs


class TestCertificateProperty:
    @given(
        st.sampled_from(["rmat", "erdos_renyi", "hub_and_spoke", "preferential"]),
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from([0.05, 0.15]),
        st.sampled_from([0.1, 0.25]),
        st.booleans(),
        st.one_of(st.integers(min_value=1, max_value=8), st.just("spent")),
    )
    @settings(max_examples=40, deadline=None)
    def test_certificate_dominates_dense_error(
        self, family, seed, c, hub_ratio, preconditioned, cap
    ):
        graph = _generated_graph(family, seed)
        engine = BePI(
            c=c,
            tol=1e-11,
            hub_ratio=hub_ratio,
            use_preconditioner=preconditioned,
            max_iterations=None if cap == "spent" else cap,
        ).preprocess(graph).engine
        dense = _dense_scores(graph, c)
        n = graph.n_nodes
        seeds = np.arange(n)

        def check(columns):
            deadline = time.monotonic() if cap == "spent" else None
            scores, iterations, extras = engine.query_block(
                _one_hot(n, columns), deadline=deadline
            )
            if cap == "spent":
                assert not iterations.any()
            observed = np.abs(scores.T - dense[columns]).sum(axis=1)
            certificate = extras["certificate"]
            assert certificate.shape == (len(columns),)
            assert np.all(observed <= certificate + ROUNDOFF), (
                observed.max(), certificate[observed.argmax()])

        check(seeds)  # one block: the lockstep block engine
        for s in seeds[:: max(1, n // 8)]:  # width one: the single-RHS engine
            check(np.array([s]))


@pytest.fixture(scope="module")
def artifact_dir(small_graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("certificate") / "solver"
    save_artifacts(BePI(tol=1e-9, hub_ratio=0.2).preprocess(small_graph), path)
    return path


class _DownBackend:
    """A replica that never answers: every request reaches the rung."""

    name = "down"

    async def query_many(self, seeds, trace=()):
        raise BackendError("down")

    async def query_topk_many(self, seeds, k, exclude_seed, trace=()):
        raise BackendError("down")

    async def stats(self):
        return {"queue_depth": 0}

    async def close(self):
        pass


class TestDegradedRungBound:
    @pytest.mark.parametrize("deadline_ms", [0.0, None])
    def test_reply_bound_dominates_dense_distance(
        self, artifact_dir, small_graph, deadline_ms
    ):
        """A spent deadline (the 0-iteration iterate) and no deadline (every
        replica down: the solve runs to ``tol``)."""
        seeds = [0, 5, 9, 40]

        async def scenario():
            gateway = Gateway(
                [_DownBackend()],
                health_interval=0,
                degraded_answerer=CertifiedAnswerer(artifact_dir),
                answer_cache_size=0,
            )
            async with gateway:
                return [
                    await gateway.query_detailed(s, deadline_ms=deadline_ms)
                    for s in seeds
                ]

        dense = _dense_scores(small_graph, 0.05)
        results = asyncio.run(scenario())
        for seed, result in zip(seeds, results):
            assert result.degraded and result.source == "approx"
            gap = float(np.abs(result.value - dense[seed]).sum())
            assert gap <= result.error_bound + ROUNDOFF, (seed, gap, result)
        if deadline_ms is None:
            # Run to tol, the certificate is tight to the solve's tolerance.
            assert max(r.error_bound for r in results) < 1e-6
