"""Soak: generation hot swaps under concurrent query load.

A foreground publisher applies edge-update batches and publishes new
generations into an :class:`~repro.store.ArtifactStore` while dense,
top-k, and gateway-coalesced queries hammer pools following the same
store.  The zero-downtime contract under test:

- no query errors while generations swap underneath the workers;
- every reply is **bit-exact** against one published generation — the
  old one or the new one, never a blend of artifacts;
- after a swap is acknowledged (``refresh_generation``), replies come
  from the freshly published generation only — no stale answers.
"""

import asyncio
import threading
import time

import numpy as np

from repro import BePI, DynamicRWR, generate_rmat
from repro.gateway import Gateway, LocalBackend
from repro.serve import WorkerPool, open_query_engine
from repro.store import ArtifactStore

SEEDS = [0, 3, 7, 11]
TOP_K = 8
N_BATCHES = 3


def _update_batches(graph):
    """Three effective batches: reweight, remove, insert-new."""
    edges = [(int(u), int(v)) for u, v in graph.edges()]
    present = set(edges)
    fresh = []
    for u in range(graph.n_nodes):
        for v in range(graph.n_nodes):
            if u != v and (u, v) not in present:
                fresh.append((u, v))
            if len(fresh) == 3:
                break
        if len(fresh) == 3:
            break
    return [
        lambda d: d.add_edges(edges[:3], weights=[2.5, 0.5, 4.0]),
        lambda d: d.remove_edges(edges[3:6]),
        lambda d: d.add_edges(fresh),
    ]


def _matching_generations(reply, references):
    """Names of generations whose reference answer equals ``reply`` bit
    for bit.  An empty list means the reply blends artifacts."""
    matches = []
    for name, ref in references.items():
        if isinstance(reply, np.ndarray):
            if np.array_equal(reply, ref):
                matches.append(name)
        elif np.array_equal(reply.ids, ref.ids) and np.array_equal(
            reply.scores, ref.scores
        ):
            matches.append(name)
    return matches


class TestSwapSoak:
    def test_queries_never_blend_generations(self, tmp_path):
        graph = generate_rmat(7, 700, seed=21)
        solver = BePI(tol=1e-11, hub_ratio=0.2).preprocess(graph)
        store = ArtifactStore(tmp_path / "store")
        store.publish(solver)

        publisher = DynamicRWR.from_store(store)
        batches = _update_batches(graph)

        stop = threading.Event()
        pool_lock = threading.Lock()  # the pool serves one caller at a time
        errors = []
        dense_replies = []    # (seed, row)
        topk_replies = []     # (seed, TopKResult)
        gateway_replies = []  # (seed, row)

        pool = WorkerPool(store.root, n_workers=2, timeout=120)
        gw_pool = WorkerPool(store.root, n_workers=1, timeout=120)
        try:
            def dense_loop():
                i = 0
                try:
                    while not stop.is_set():
                        seed = SEEDS[i % len(SEEDS)]
                        with pool_lock:
                            row = pool.query_many([seed])[0]
                        dense_replies.append((seed, row.copy()))
                        i += 1
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(("dense", exc))

            def topk_loop():
                i = 0
                try:
                    while not stop.is_set():
                        seed = SEEDS[i % len(SEEDS)]
                        with pool_lock:
                            result = pool.query_topk(seed, TOP_K)
                        topk_replies.append((seed, result))
                        i += 1
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(("topk", exc))

            def gateway_loop():
                async def run():
                    gateway = Gateway(
                        [LocalBackend(gw_pool, name="soak")],
                        health_interval=0.05,
                    )
                    async with gateway:
                        i = 0
                        while not stop.is_set():
                            seed = SEEDS[i % len(SEEDS)]
                            row = await gateway.query(seed)
                            gateway_replies.append(
                                (seed, np.asarray(row).copy())
                            )
                            i += 1

                try:
                    asyncio.run(run())
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(("gateway", exc))

            threads = [
                threading.Thread(target=fn)
                for fn in (dense_loop, topk_loop, gateway_loop)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)  # let every query mode hit gen-000001 first

            for apply in batches:
                apply(publisher)
                publisher.rebuild()
                time.sleep(0.3)

            # Swap acknowledged: from here on, only the final generation.
            final_generation = store.generations()[-1]
            with pool_lock:
                assert pool.refresh_generation() == final_generation
                post_ack = {
                    seed: pool.query_many([seed])[0].copy() for seed in SEEDS
                }
            assert gw_pool.refresh_generation() == final_generation

            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            stop.set()
            pool.stop()
            gw_pool.stop()

        assert errors == []
        names = store.generations()
        assert len(names) == 1 + N_BATCHES

        # Reference answers straight from each published generation's
        # artifacts, computed with the same single-seed batch shape the
        # soak loops used (batch composition affects bits).
        dense_refs = {}
        topk_refs = {}
        for name in names:
            engine = open_query_engine(store.generations_dir / name)
            dense_refs[name] = {
                seed: engine.query_many([seed])[0] for seed in SEEDS
            }
            topk_refs[name] = {
                seed: engine.query_topk_many([seed], TOP_K)[0]
                for seed in SEEDS
            }

        # The soak has teeth only if consecutive generations disagree.
        for old, new in zip(names, names[1:]):
            assert any(
                not np.array_equal(dense_refs[old][s], dense_refs[new][s])
                for s in SEEDS
            ), f"{old} and {new} answer identically; updates were no-ops"

        # Every reply from every mode matches one whole generation.
        seen = set()
        for mode, replies, refs in (
            ("dense", dense_replies, dense_refs),
            ("topk", topk_replies, topk_refs),
            ("gateway", gateway_replies, dense_refs),
        ):
            assert replies, f"{mode} loop never completed a query"
            for seed, reply in replies:
                matches = _matching_generations(
                    reply, {name: refs[name][seed] for name in names}
                )
                assert matches, (
                    f"{mode} reply for seed {seed} matches no published "
                    f"generation — artifacts were blended mid-swap"
                )
                seen.update(matches)

        # The load actually spanned the swap: replies were served from
        # more than one generation over the soak.
        assert len(seen) >= 2

        # No stale replies after the swap ack.
        for seed in SEEDS:
            assert np.array_equal(
                post_ack[seed], dense_refs[final_generation][seed]
            )
