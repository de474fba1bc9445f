"""Tests for saving / loading preprocessed solvers."""

import hashlib
import json
import shutil

import numpy as np
import pytest

from repro import (
    BePI,
    BePIB,
    BePIS,
    GraphFormatError,
    NotPreprocessedError,
    generate_rmat,
)
from repro.exceptions import ArtifactIntegrityError
from repro.linalg.ilu import ILUFactors
from repro.persistence import (
    artifact_nbytes,
    load_artifacts,
    load_solver,
    save_artifacts,
    solver_from_config,
    verify_artifacts,
)

from .conftest import exact_rwr


class TestRoundtrip:
    def test_loaded_solver_matches_original(self, medium_graph, tmp_path):
        path = tmp_path / "artifacts"
        original = BePI(tol=1e-11).preprocess(medium_graph)
        save_artifacts(original, path)
        loaded = load_solver(path)
        for seed in (0, 7, 100):
            assert np.allclose(loaded.query(seed), original.query(seed), atol=1e-12)

    def test_loaded_solver_is_exact(self, small_graph, tmp_path):
        path = tmp_path / "artifacts"
        save_artifacts(BePI(tol=1e-12).preprocess(small_graph), path)
        loaded = load_solver(path)
        assert np.allclose(loaded.query(1), exact_rwr(small_graph, 0.05, 1), atol=1e-8)

    def test_configuration_preserved(self, small_graph, tmp_path):
        path = tmp_path / "artifacts"
        original = BePI(c=0.15, tol=1e-7, hub_ratio=0.3).preprocess(small_graph)
        save_artifacts(original, path)
        loaded = load_solver(path)
        assert loaded.c == 0.15
        assert loaded.tol == 1e-7
        assert loaded.stats["hub_ratio"] == 0.3

    def test_stats_reconstructed(self, small_graph, tmp_path):
        path = tmp_path / "artifacts"
        original = BePI().preprocess(small_graph)
        save_artifacts(original, path)
        loaded = load_solver(path)
        for key in ("n1", "n2", "n3", "nnz_schur"):
            assert loaded.stats[key] == original.stats[key]
        assert loaded.memory_bytes() == original.memory_bytes()

    def test_unpreconditioned_variant(self, small_graph, tmp_path):
        path = tmp_path / "artifacts"
        original = BePIS(tol=1e-11).preprocess(small_graph)
        save_artifacts(original, path)
        loaded = load_solver(path)
        assert loaded.ilu_factors is None
        assert np.allclose(loaded.query(0), original.query(0), atol=1e-12)

    def test_sgs_variant(self, small_graph, tmp_path):
        path = tmp_path / "artifacts"
        original = BePI(tol=1e-11).preprocess(small_graph)
        save_artifacts(original, path)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["preconditioner_kind"] == "ilu"
        assert not any(name.startswith(("L2", "U2")) for name in manifest["checksums"])
        loaded = load_solver(path)
        assert isinstance(loaded.ilu_factors, ILUFactors)
        assert np.allclose(loaded.query(2), original.query(2), atol=1e-12)

    def test_graph_available_after_load(self, small_graph, tmp_path):
        path = tmp_path / "artifacts"
        save_artifacts(BePI().preprocess(small_graph), path)
        loaded = load_solver(path)
        assert loaded.graph == small_graph

    def test_applications_work_on_loaded_solver(self, medium_graph, tmp_path):
        from repro.applications import top_k

        path = tmp_path / "artifacts"
        original = BePI(tol=1e-10).preprocess(medium_graph)
        save_artifacts(original, path)
        loaded = load_solver(path)
        assert top_k(loaded, 0, 5) == top_k(original, 0, 5)


class TestFormatVersions:
    """Format v4 stores Algorithm 3's output list — the inverted factors of
    ``H11``, never ``H11`` itself — and is the only version that loads."""

    def test_artifacts_omit_h11(self, medium_graph, tmp_path):
        save_artifacts(BePI().preprocess(medium_graph), tmp_path / "artifacts")
        names = {f.name for f in (tmp_path / "artifacts" / "arrays").iterdir()}
        assert not any(name.startswith("H11") for name in names)
        assert {"L1_inv.data.npy", "U1_inv.data.npy", "H12.data.npy",
                "H21.data.npy"} <= names

    def test_loaded_blocks_lack_h11(self, small_graph, tmp_path):
        path = tmp_path / "artifacts"
        save_artifacts(BePI().preprocess(small_graph), path)
        loaded = load_solver(path)
        assert "H11" not in loaded.artifacts.blocks
        assert set(loaded.artifacts.blocks) == {"H12", "H21", "H31", "H32"}

    def test_manifest_names_neither_h22_nor_hubspoke_order(self, small_graph, tmp_path):
        """``H22`` is covered by ``S`` and the hub-and-spoke ordering by the
        total one; no reader needs either, so neither is written."""
        path = save_artifacts(BePI().preprocess(small_graph), tmp_path / "artifacts")
        manifest = json.loads((path / "manifest.json").read_text())
        names = set(manifest["checksums"]) | {
            f.name for f in (path / "arrays").iterdir()
        }
        assert not any(name.startswith("H22.") for name in names)
        assert "hubspoke_order.npy" not in names
        assert "H22" not in manifest["csr_shapes"]

    def test_accuracy_bound_works_without_h11(self, medium_graph, tmp_path):
        """Theorem 4 ingredients are computable on a loaded (H11-less) solver."""
        from repro import accuracy_bound

        path = tmp_path / "artifacts"
        original = BePI(tol=1e-11).preprocess(medium_graph)
        save_artifacts(original, path)
        loaded = load_solver(path)
        bound_fresh = accuracy_bound(original, 0)
        bound_loaded = accuracy_bound(loaded, 0)
        assert np.isclose(
            bound_loaded.sigma_min_h11, bound_fresh.sigma_min_h11, rtol=1e-6
        )
        assert np.isclose(
            bound_loaded.error_bound(1e-9), bound_fresh.error_bound(1e-9), rtol=1e-5
        )


    def test_v3_manifest_rejected(self, small_graph, tmp_path):
        """Only format v4 loads; a pre-checksum v3 manifest is refused by
        version rather than loaded unverified."""
        save_artifacts(BePI().preprocess(small_graph), tmp_path / "artifacts")
        manifest_path = tmp_path / "artifacts" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 3
        del manifest["checksums"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(GraphFormatError, match="format version 3"):
            load_solver(tmp_path / "artifacts")
        with pytest.raises(GraphFormatError, match="format version 3"):
            verify_artifacts(tmp_path / "artifacts")


class TestHubspokePermutation:
    def test_roundtrip_preserves_real_permutation(self, small_graph, tmp_path):
        """The loaded partition carries the actual hub-and-spoke ordering,
        not a fabricated identity."""
        original = BePI().preprocess(small_graph)
        save_artifacts(original, tmp_path / "artifacts")
        loaded = load_solver(tmp_path / "artifacts")
        fresh = original.artifacts.hubspoke.permutation
        assert not np.array_equal(fresh.order, np.arange(len(fresh)))
        assert np.array_equal(
            loaded.artifacts.hubspoke.permutation.order, fresh.order
        )


class TestArtifactDirectory:
    """Directory of raw .npy files, loaded zero-copy via mmap."""

    @pytest.mark.parametrize(
        "make_solver",
        [
            lambda: BePI(tol=1e-11),
            lambda: BePIS(tol=1e-11),
            lambda: BePIB(tol=1e-11),
        ],
        ids=["ilu", "none", "basic"],
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

    def test_resave_drops_arrays_of_previous_bundle(self, tmp_path):
        graph = generate_rmat(9, 4000, seed=5)
        path = tmp_path / "artifacts"
        save_artifacts(BePIS(tol=1e-11).preprocess(graph), path)
        # An array an earlier version's bundle stored (the retired Jacobi
        # diagonal): the next save into the directory must drop it.
        np.save(path / "arrays" / "M_diag.npy", np.ones(4))
        sgs = BePI(tol=1e-11).preprocess(graph)
        save_artifacts(sgs, path)
        manifest = json.loads((path / "manifest.json").read_text())
        on_disk = {f.name for f in (path / "arrays").iterdir()}
        assert on_disk == set(manifest["checksums"])
        assert "M_diag.npy" not in on_disk
        assert artifact_nbytes(path) == sum(
            (path / "arrays" / name).stat().st_size for name in on_disk
        )
        loaded = load_solver(path)
        assert np.array_equal(loaded.query(3), sgs.query(3))

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


class TestRetiredBundles:
    """Bundles of removed preconditioner engines are refused at load."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("retired") / "artifacts"
        solver = BePI(tol=1e-10).preprocess(generate_rmat(9, 4000, seed=5))
        save_artifacts(solver, path)
        return solver, path

    @staticmethod
    def _copy(saved_path, target, edit):
        shutil.copytree(saved_path, target)
        manifest_path = target / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        edit(target, manifest)
        manifest_path.write_text(json.dumps(manifest))
        return target

    @pytest.mark.parametrize("engine", ["ilut", "spilu", "ilu0"])
    def test_retired_engine_refused(self, saved, tmp_path, engine):
        def edit(target, manifest):
            manifest["config"]["ilu_engine"] = engine

        path = self._copy(saved[1], tmp_path / "bundle", edit)
        with pytest.raises(GraphFormatError, match=f"ilu_engine '{engine}'"):
            load_artifacts(path)
        with pytest.raises(GraphFormatError, match="no longer supported"):
            load_solver(path)

    def test_ilu0_bundle_refused_before_any_array_is_read(self, saved, tmp_path):
        """An ``ilu0`` bundle stores ILU(0) factors this version would not
        apply; its manifest alone refuses it, even with no arrays on disk."""
        def edit(target, manifest):
            manifest["config"]["ilu_engine"] = "ilu0"
            for name in ("L2", "U2"):
                for part in ("data", "indices", "indptr"):
                    manifest["checksums"][f"{name}.{part}.npy"] = "0" * 64
                manifest["csr_shapes"][name] = manifest["csr_shapes"]["S"]
            shutil.rmtree(target / "arrays")

        path = self._copy(saved[1], tmp_path / "bundle", edit)
        with pytest.raises(GraphFormatError, match="ilu_engine 'ilu0'"):
            load_artifacts(path)
        with pytest.raises(GraphFormatError, match="ilu_engine 'ilu0'"):
            load_solver(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ilu_engine", "jacobi"),
            ("iterative_method", "bicgstab"),
            ("preconditioner_kind", "jacobi"),
        ],
    )
    def test_retired_setting_refused_before_any_array_is_read(
        self, saved, tmp_path, key, value
    ):
        """Bundles of the retired Jacobi preconditioner and second Krylov
        method are refused by their manifest alone."""
        def edit(target, manifest):
            if key == "preconditioner_kind":
                manifest[key] = value
                manifest["checksums"]["M_diag.npy"] = "0" * 64
            else:
                manifest["config"][key] = value
            shutil.rmtree(target / "arrays")

        path = self._copy(saved[1], tmp_path / "bundle", edit)
        for load in (load_artifacts, load_solver):
            with pytest.raises(GraphFormatError, match=f"{key} '{value}'"):
                load(path)

    def test_manifest_with_the_served_settings_loads(self, saved, tmp_path):
        """Bundles written while the settings were options, with the values
        this version serves, load and answer bit-identically."""
        solver, _ = saved

        def edit(target, manifest):
            manifest["config"].update(
                ilu_engine="sgs", iterative_method="gmres", fallback_chain=True
            )

        path = self._copy(saved[1], tmp_path / "bundle", edit)
        bundle = load_artifacts(path)
        assert not {"ilu_engine", "iterative_method", "fallback_chain"} & set(
            bundle.config
        )
        loaded = load_solver(path)
        seeds = [0, 5, 17]
        assert np.array_equal(
            loaded.query_many_detailed(seeds).iterations,
            solver.query_many_detailed(seeds).iterations,
        )
        assert np.array_equal(loaded.query_many(seeds), solver.query_many(seeds))

    def test_manifest_with_n_jobs_loads(self, saved, tmp_path):
        """Bundles whose config records the retired ``n_jobs`` thread count
        load and answer bit-identically, and a solver rebuilt from that
        config (the background and full-rebuild paths) answers the same."""
        solver, _ = saved

        def edit(target, manifest):
            manifest["config"]["n_jobs"] = 4

        path = self._copy(saved[1], tmp_path / "bundle", edit)
        seeds = [0, 5, 17]
        loaded = load_solver(path)
        assert np.array_equal(loaded.query_many(seeds), solver.query_many(seeds))
        config = json.loads((path / "manifest.json").read_text())["config"]
        rebuilt = solver_from_config(config).preprocess(solver.graph)
        assert np.array_equal(rebuilt.query_many(seeds), solver.query_many(seeds))

    def test_bundle_storing_h22_and_hubspoke_order_loads(self, saved, tmp_path):
        """Bundles written while ``H22`` and ``hubspoke_order`` were stored
        verify every file their manifest names, load, derive the same
        hub-and-spoke ordering and answer bit-identically."""
        solver, _ = saved
        artifacts = solver.artifacts

        def edit(target, manifest):
            arrays = {"hubspoke_order": artifacts.hubspoke.permutation.order}
            h22 = artifacts.blocks["H22"]
            for part in ("data", "indices", "indptr"):
                arrays[f"H22.{part}"] = getattr(h22, part)
            for name, array in arrays.items():
                path = target / "arrays" / f"{name}.npy"
                np.save(path, array)
                manifest["checksums"][path.name] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
            manifest["csr_shapes"]["H22"] = list(h22.shape)

        path = self._copy(saved[1], tmp_path / "bundle", edit)
        assert verify_artifacts(path) == verify_artifacts(saved[1]) + 4
        loaded = load_solver(path)
        assert np.array_equal(
            loaded.artifacts.hubspoke.permutation.order,
            np.load(path / "arrays" / "hubspoke_order.npy"),
        )
        seeds = [0, 5, 17]
        assert np.array_equal(
            loaded.query_many_detailed(seeds).iterations,
            solver.query_many_detailed(seeds).iterations,
        )
        assert np.array_equal(loaded.query_many(seeds), solver.query_many(seeds))

    @pytest.mark.parametrize("name", ["perm_r.npy", "perm_c.npy"])
    def test_manifest_naming_permutations_refused(self, saved, tmp_path, name):
        def edit(target, manifest):
            array = target / "arrays" / name
            np.save(array, np.arange(4))
            manifest["checksums"][name] = hashlib.sha256(array.read_bytes()).hexdigest()

        path = self._copy(saved[1], tmp_path / "bundle", edit)
        with pytest.raises(GraphFormatError, match=name):
            load_artifacts(path)

    def test_stray_permutations_are_ignored(self, saved, tmp_path):
        """Array files the manifest does not name (a save cut short between
        the manifest swap and the clean-up) change nothing."""
        solver, _ = saved

        def edit(target, manifest):
            for name in ("perm_r.npy", "perm_c.npy"):
                np.save(target / "arrays" / name, np.arange(4))

        loaded = load_solver(self._copy(saved[1], tmp_path / "bundle", edit))
        seeds = [5, 17]
        assert np.array_equal(
            loaded.query_many_detailed(seeds).iterations,
            solver.query_many_detailed(seeds).iterations,
        )
        assert np.array_equal(loaded.query_many(seeds), solver.query_many(seeds))


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

class TestErrors:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(GraphFormatError, match="no manifest"):
            load_solver(tmp_path / "absent")

    def test_load_garbage_raises(self, tmp_path):
        (tmp_path / "garbage").mkdir()
        (tmp_path / "garbage" / "manifest.json").write_bytes(b"\x00not json")
        with pytest.raises(GraphFormatError, match="unreadable manifest"):
            load_solver(tmp_path / "garbage")
