"""Tests for saving / loading preprocessed solvers."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import BePI, BePIS, GraphFormatError, NotPreprocessedError, generate_rmat
from repro.exceptions import ArtifactIntegrityError
from repro.persistence import (
    artifact_nbytes,
    load_artifacts,
    load_solver,
    save_artifacts,
    save_solver,
    verify_artifacts,
)

from .conftest import exact_rwr

FIXTURE_DIR = Path(__file__).parent / "fixtures"


class TestRoundtrip:
    def test_loaded_solver_matches_original(self, medium_graph, tmp_path):
        path = tmp_path / "solver.npz"
        original = BePI(tol=1e-11).preprocess(medium_graph)
        save_solver(original, path)
        loaded = load_solver(path)
        for seed in (0, 7, 100):
            assert np.allclose(loaded.query(seed), original.query(seed), atol=1e-12)

    def test_loaded_solver_is_exact(self, small_graph, tmp_path):
        path = tmp_path / "solver.npz"
        save_solver(BePI(tol=1e-12).preprocess(small_graph), path)
        loaded = load_solver(path)
        assert np.allclose(loaded.query(1), exact_rwr(small_graph, 0.05, 1), atol=1e-8)

    def test_configuration_preserved(self, small_graph, tmp_path):
        path = tmp_path / "solver.npz"
        original = BePI(c=0.15, tol=1e-7, hub_ratio=0.3).preprocess(small_graph)
        save_solver(original, path)
        loaded = load_solver(path)
        assert loaded.c == 0.15
        assert loaded.tol == 1e-7
        assert loaded.stats["hub_ratio"] == 0.3

    def test_stats_reconstructed(self, small_graph, tmp_path):
        path = tmp_path / "solver.npz"
        original = BePI().preprocess(small_graph)
        save_solver(original, path)
        loaded = load_solver(path)
        for key in ("n1", "n2", "n3", "nnz_schur"):
            assert loaded.stats[key] == original.stats[key]
        assert loaded.memory_bytes() == original.memory_bytes()

    def test_unpreconditioned_variant(self, small_graph, tmp_path):
        path = tmp_path / "solver.npz"
        original = BePIS(tol=1e-11).preprocess(small_graph)
        save_solver(original, path)
        loaded = load_solver(path)
        assert loaded.ilu_factors is None
        assert np.allclose(loaded.query(0), original.query(0), atol=1e-12)

    def test_jacobi_variant(self, small_graph, tmp_path):
        path = tmp_path / "solver.npz"
        original = BePI(ilu_engine="jacobi", tol=1e-11).preprocess(small_graph)
        save_solver(original, path)
        loaded = load_solver(path)
        assert np.allclose(loaded.query(2), original.query(2), atol=1e-12)

    def test_graph_available_after_load(self, small_graph, tmp_path):
        path = tmp_path / "solver.npz"
        save_solver(BePI().preprocess(small_graph), path)
        loaded = load_solver(path)
        assert loaded.graph == small_graph

    def test_applications_work_on_loaded_solver(self, medium_graph, tmp_path):
        from repro.applications import top_k

        path = tmp_path / "solver.npz"
        original = BePI(tol=1e-10).preprocess(medium_graph)
        save_solver(original, path)
        loaded = load_solver(path)
        assert top_k(loaded, 0, 5) == top_k(original, 0, 5)


class TestFormatVersions:
    def test_v2_archive_omits_h11(self, medium_graph, tmp_path):
        """The current format stores only the inverted factors, not H11."""
        path = tmp_path / "solver.npz"
        save_solver(BePI().preprocess(medium_graph), path)
        with np.load(path) as archive:
            names = set(archive.files)
        assert not any(name.startswith("H11") for name in names)
        assert {"L1_inv_data", "U1_inv_data", "H12_data", "H21_data"} <= names

    def test_loaded_blocks_lack_h11(self, small_graph, tmp_path):
        path = tmp_path / "solver.npz"
        save_solver(BePI().preprocess(small_graph), path)
        loaded = load_solver(path)
        assert "H11" not in loaded.artifacts.blocks
        assert set(loaded.artifacts.blocks) == {"H12", "H21", "H22", "H31", "H32"}

    def test_v1_archive_still_loads(self, medium_graph, tmp_path):
        """A v1 archive (with H11, format_version=1) loads transparently."""
        import json

        import scipy.sparse as sp

        original = BePI(tol=1e-11).preprocess(medium_graph)
        v2_path = tmp_path / "v2.npz"
        save_solver(original, v2_path)

        # Rewrite as a faithful v1 archive: add the H11 arrays back and
        # stamp the old version number.
        with np.load(v2_path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(arrays["meta_json"]).decode())
        meta["format_version"] = 1
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        h11 = sp.csr_matrix(original.artifacts.blocks["H11"])
        arrays["H11_data"] = h11.data
        arrays["H11_indices"] = h11.indices
        arrays["H11_indptr"] = h11.indptr
        arrays["H11_shape"] = np.asarray(h11.shape, dtype=np.int64)
        v1_path = tmp_path / "v1.npz"
        np.savez_compressed(v1_path, **arrays)

        loaded = load_solver(v1_path)
        for seed in (0, 7):
            assert np.allclose(loaded.query(seed), original.query(seed), atol=1e-12)

    def test_future_version_rejected(self, small_graph, tmp_path):
        import json

        path = tmp_path / "solver.npz"
        save_solver(BePI().preprocess(small_graph), path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(arrays["meta_json"]).decode())
        meta["format_version"] = 99
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        future_path = tmp_path / "future.npz"
        np.savez_compressed(future_path, **arrays)
        with pytest.raises(GraphFormatError):
            load_solver(future_path)

    def test_accuracy_bound_works_without_h11(self, medium_graph, tmp_path):
        """Theorem 4 ingredients are computable on a loaded (H11-less) solver."""
        from repro import accuracy_bound

        path = tmp_path / "solver.npz"
        original = BePI(tol=1e-11).preprocess(medium_graph)
        save_solver(original, path)
        loaded = load_solver(path)
        bound_fresh = accuracy_bound(original, 0)
        bound_loaded = accuracy_bound(loaded, 0)
        assert np.isclose(
            bound_loaded.sigma_min_h11, bound_fresh.sigma_min_h11, rtol=1e-6
        )
        assert np.isclose(
            bound_loaded.error_bound(1e-9), bound_fresh.error_bound(1e-9), rtol=1e-5
        )


class TestSuffixNormalization:
    """save/load agree on the file name whether or not .npz is given."""

    def test_save_without_suffix_load_without_suffix(self, small_graph, tmp_path):
        original = BePI(tol=1e-11).preprocess(small_graph)
        written = save_solver(original, tmp_path / "model")
        assert written == tmp_path / "model.npz"
        assert written.is_file()
        loaded = load_solver(tmp_path / "model")
        assert np.array_equal(loaded.query(0), original.query(0))

    def test_save_without_suffix_load_with_suffix(self, small_graph, tmp_path):
        save_solver(BePI().preprocess(small_graph), tmp_path / "model")
        assert load_solver(tmp_path / "model.npz").is_preprocessed

    def test_save_with_suffix_load_without_suffix(self, small_graph, tmp_path):
        save_solver(BePI().preprocess(small_graph), tmp_path / "model.npz")
        assert load_solver(tmp_path / "model").is_preprocessed

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(GraphFormatError, match="no such saved solver"):
            load_solver(tmp_path / "absent")


class TestHubspokePermutation:
    def test_roundtrip_preserves_real_permutation(self, small_graph, tmp_path):
        """The loaded partition carries the actual hub-and-spoke ordering,
        not a fabricated identity."""
        original = BePI().preprocess(small_graph)
        save_solver(original, tmp_path / "solver.npz")
        loaded = load_solver(tmp_path / "solver.npz")
        fresh = original.artifacts.hubspoke.permutation
        assert not np.array_equal(fresh.order, np.arange(len(fresh)))
        assert np.array_equal(
            loaded.artifacts.hubspoke.permutation.order, fresh.order
        )

    def test_legacy_archive_reports_permutation_unavailable(
        self, small_graph, tmp_path
    ):
        """Pre-hubspoke_order archives load with permutation=None instead of
        silently lying with an identity."""
        save_solver(BePI().preprocess(small_graph), tmp_path / "solver.npz")
        with np.load(tmp_path / "solver.npz") as archive:
            arrays = {
                name: archive[name]
                for name in archive.files
                if name != "hubspoke_order"
            }
        np.savez_compressed(tmp_path / "legacy.npz", **arrays)
        loaded = load_solver(tmp_path / "legacy.npz")
        assert loaded.artifacts.hubspoke.permutation is None
        assert np.array_equal(loaded.query(0), load_solver(tmp_path / "solver.npz").query(0))


class TestArtifactDirectory:
    """Format v3: directory of raw .npy files, loaded zero-copy via mmap."""

    @pytest.mark.parametrize(
        "make_solver",
        [
            lambda: BePI(tol=1e-11),
            lambda: BePIS(tol=1e-11),
            lambda: BePI(tol=1e-11, ilu_engine="jacobi"),
            lambda: BePI(tol=1e-11, ilu_engine="spilu"),
        ],
        ids=["ilu", "none", "jacobi", "spilu"],
    )
    def test_roundtrip_is_bit_equal(self, small_graph, tmp_path, make_solver):
        original = make_solver().preprocess(small_graph)
        save_artifacts(original, tmp_path / "artifacts")
        loaded = load_solver(tmp_path / "artifacts")
        seeds = [0, 3, 9]
        assert np.array_equal(loaded.query_many(seeds), original.query_many(seeds))
        for seed in seeds:
            assert np.array_equal(loaded.query(seed), original.query(seed))

    def test_mmap_arrays_are_read_only(self, small_graph, tmp_path):
        save_artifacts(BePI().preprocess(small_graph), tmp_path / "artifacts")
        bundle = load_artifacts(tmp_path / "artifacts")
        schur = bundle.preprocess.schur
        assert not schur.data.flags.writeable
        with pytest.raises(ValueError):
            schur.data[0] = 123.0

    def test_mmap_arrays_share_the_file_mapping(self, small_graph, tmp_path):
        """Zero-copy: the CSR buffers must be backed by the file mapping, not
        private copies."""
        import mmap as mmap_module

        save_artifacts(BePI().preprocess(small_graph), tmp_path / "artifacts")
        bundle = load_artifacts(tmp_path / "artifacts")
        for matrix in (bundle.preprocess.schur, bundle.graph.adjacency):
            for part in (matrix.data, matrix.indices, matrix.indptr):
                base = part
                while getattr(base, "base", None) is not None:
                    base = base.base
                assert isinstance(base, mmap_module.mmap)

    def test_eager_load_matches_mmap(self, small_graph, tmp_path):
        original = BePI(tol=1e-11).preprocess(small_graph)
        save_artifacts(original, tmp_path / "artifacts")
        eager = load_artifacts(tmp_path / "artifacts", mmap=False)
        mapped = load_artifacts(tmp_path / "artifacts", mmap=True)
        assert np.array_equal(
            eager.preprocess.schur.toarray(), mapped.preprocess.schur.toarray()
        )

    def test_artifact_nbytes(self, small_graph, tmp_path):
        save_artifacts(BePI().preprocess(small_graph), tmp_path / "artifacts")
        nbytes = artifact_nbytes(tmp_path / "artifacts")
        payload = sum(
            f.stat().st_size for f in (tmp_path / "artifacts" / "arrays").iterdir()
        )
        assert nbytes == payload > 0

    def test_loaded_stats_and_config(self, small_graph, tmp_path):
        original = BePI(c=0.1, tol=1e-8, hub_ratio=0.3).preprocess(small_graph)
        save_artifacts(original, tmp_path / "artifacts")
        loaded = load_solver(tmp_path / "artifacts")
        assert loaded.c == 0.1
        assert loaded.tol == 1e-8
        assert loaded.stats["n1"] == original.stats["n1"]
        assert loaded.stats["loaded_from"] == str(tmp_path / "artifacts")

    def test_unknown_version_rejected(self, small_graph, tmp_path):
        save_artifacts(BePI().preprocess(small_graph), tmp_path / "artifacts")
        manifest_path = tmp_path / "artifacts" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(GraphFormatError, match="unsupported artifact format"):
            load_artifacts(tmp_path / "artifacts")

    def test_directory_without_manifest_rejected(self, tmp_path):
        (tmp_path / "junk").mkdir()
        with pytest.raises(GraphFormatError, match="no manifest"):
            load_solver(tmp_path / "junk")

    def test_save_unpreprocessed_raises(self, tmp_path):
        with pytest.raises(NotPreprocessedError):
            save_artifacts(BePI(), tmp_path / "artifacts")


class TestSpiluRoundtrip:
    """SuperLU's row and column permutations survive both formats."""

    @pytest.fixture(scope="class")
    def spilu_solver(self):
        return BePI(ilu_engine="spilu", tol=1e-10).preprocess(generate_rmat(11, 12000, seed=3))

    @pytest.mark.parametrize("save", [save_solver, save_artifacts], ids=["npz", "directory"])
    def test_preconditioner_and_iterations_survive(self, spilu_solver, tmp_path, save):
        loaded = load_solver(save(spilu_solver, tmp_path / "saved"))
        original_m = spilu_solver.solver_artifacts.preconditioner
        loaded_m = loaded.solver_artifacts.preconditioner
        assert loaded_m.perm_r is not None and loaded_m.perm_c is not None
        rng = np.random.default_rng(0)
        for shape in [original_m.l.shape[0], (original_m.l.shape[0], 24)]:
            rhs = rng.standard_normal(shape)
            want = original_m.solve(rhs)
            assert np.abs(loaded_m.solve(rhs) - want).max() <= 1e-12 * np.abs(want).max()
        seeds = [5, 17, 300]
        assert np.array_equal(
            loaded.query_many_detailed(seeds).iterations,
            spilu_solver.query_many_detailed(seeds).iterations,
        )

    def test_ilu0_artifacts_store_no_permutations(self, small_graph, tmp_path):
        save_artifacts(BePI().preprocess(small_graph), tmp_path / "artifacts")
        names = {p.name for p in (tmp_path / "artifacts" / "arrays").iterdir()}
        assert not {"perm_r.npy", "perm_c.npy"} & names


class TestArtifactChecksums:
    """Format v4: the manifest carries per-array SHA-256 checksums."""

    def test_manifest_records_a_checksum_per_array(self, small_graph, tmp_path):
        save_artifacts(BePI().preprocess(small_graph), tmp_path / "artifacts")
        manifest = json.loads((tmp_path / "artifacts" / "manifest.json").read_text())
        assert manifest["format_version"] == 4
        arrays = {f.name for f in (tmp_path / "artifacts" / "arrays").iterdir()}
        assert set(manifest["checksums"]) == arrays
        assert all(len(digest) == 64 for digest in manifest["checksums"].values())

    def test_verify_artifacts_passes_on_fresh_save(self, small_graph, tmp_path):
        save_artifacts(BePI().preprocess(small_graph), tmp_path / "artifacts")
        assert verify_artifacts(tmp_path / "artifacts") > 0

    def test_corrupt_byte_fails_verification_and_load(self, small_graph, tmp_path):
        save_artifacts(BePI().preprocess(small_graph), tmp_path / "artifacts")
        target = tmp_path / "artifacts" / "arrays" / "S.data.npy"
        data = bytearray(target.read_bytes())
        data[-1] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError, match="corrupt"):
            verify_artifacts(tmp_path / "artifacts")
        with pytest.raises(ArtifactIntegrityError):
            load_artifacts(tmp_path / "artifacts")
        # Opting out of verification still loads (the bytes are the
        # caller's problem then).
        assert load_artifacts(tmp_path / "artifacts", verify=False) is not None

    def test_missing_array_fails_verification(self, small_graph, tmp_path):
        save_artifacts(BePI().preprocess(small_graph), tmp_path / "artifacts")
        (tmp_path / "artifacts" / "arrays" / "S.data.npy").unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            verify_artifacts(tmp_path / "artifacts")

    def test_v3_manifest_without_checksums_still_loads(
        self, small_graph, tmp_path
    ):
        original = BePI(tol=1e-11).preprocess(small_graph)
        save_artifacts(original, tmp_path / "artifacts")
        manifest_path = tmp_path / "artifacts" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 3
        del manifest["checksums"]
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_solver(tmp_path / "artifacts")
        assert np.array_equal(loaded.query_many([0, 3]), original.query_many([0, 3]))
        # Nothing to verify, nothing to fail on.
        assert verify_artifacts(tmp_path / "artifacts") == 0


class TestFixtureArchives:
    """Archives written by older releases keep loading byte-for-byte.

    The fixtures are checked-in binaries (see ``fixtures/make_fixtures.py``
    for their provenance); correctness is judged against the dense oracle
    on the identical ``small_graph`` recipe rather than against bytes the
    current writer happens to produce.
    """

    def test_v1_fixture_loads_and_is_exact(self, small_graph):
        loaded = load_solver(FIXTURE_DIR / "solver_v1.npz")
        assert loaded.graph == small_graph
        assert loaded.artifacts.hubspoke.permutation is None
        assert np.allclose(
            loaded.query(1), exact_rwr(small_graph, 0.05, 1), atol=1e-8
        )

    def test_v2_legacy_fixture_loads_and_is_exact(self, small_graph):
        loaded = load_solver(FIXTURE_DIR / "solver_v2_legacy.npz")
        assert loaded.graph == small_graph
        assert loaded.artifacts.hubspoke.permutation is None
        assert np.allclose(
            loaded.query(1), exact_rwr(small_graph, 0.05, 1), atol=1e-8
        )


class TestErrors:
    def test_save_unpreprocessed_raises(self, tmp_path):
        with pytest.raises(NotPreprocessedError):
            save_solver(BePI(), tmp_path / "nope.npz")

    def test_load_garbage_raises(self, tmp_path):
        path = tmp_path / "garbage.npz"
        np.savez(path, junk=np.arange(3))
        with pytest.raises(GraphFormatError):
            load_solver(path)
