"""Import hygiene: package inits export lazily, so a serving process loads
only the serve path."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
PACKAGES = [
    "repro",
    "repro.applications",
    "repro.approximate",
    "repro.baselines",
    "repro.bench",
    "repro.core",
    "repro.datasets",
    "repro.graph",
    "repro.linalg",
    "repro.reorder",
]
#: Loaded by the gateway, the update path, the dataset catalogue, the
#: experiment harness or the build's dense LU, and by no part of serving.
NOT_SERVED = [
    "scipy.linalg",
    "scipy.sparse.linalg",
    "asyncio",
    "repro.gateway",
    "repro.core.dynamic",
    "repro.datasets",
    "repro.bench.harness",
]


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter and return what it prints as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_serve_path_leaves_build_gateway_and_update_modules_unloaded():
    loaded = _fresh(
        "import json, sys\n"
        "import repro.serve\n"
        f"print(json.dumps([m for m in {NOT_SERVED!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_a_worker_opening_a_bundle_stays_on_the_serve_path(tmp_path):
    from repro import BePI, generate_rmat, save_artifacts

    save_artifacts(BePI(tol=1e-8).preprocess(generate_rmat(8, 1200, seed=5)), tmp_path)
    loaded = _fresh(
        "import json, sys\n"
        "from repro.serve import open_query_engine\n"
        f"engine = open_query_engine({str(tmp_path)!r})\n"
        "engine.query_topk_many([0, 3], 4)\n"
        f"print(json.dumps([m for m in {NOT_SERVED!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_from_repro_import_star_binds_every_export():
    missing = _fresh(
        "import json\n"
        "from repro import *\n"
        "import repro\n"
        "print(json.dumps([n for n in repro.__all__ if n not in globals()]))\n"
    )
    assert missing == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listing, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


@pytest.mark.parametrize("package", PACKAGES)
def test_static_imports_mirror_the_export_table(package):
    """The ``if TYPE_CHECKING:`` imports (what linters see) and the names
    bound eagerly must together name exactly the lazy table."""
    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text())
    static = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module not in ("typing", "repro._lazy"):
            for alias in node.names:
                assert alias.asname in (None, alias.name), alias.asname
                if node.module == package:  # a submodule exported as itself
                    static.add((f"{package}.{alias.name}", None))
                else:
                    static.add((node.module, alias.name))
    table = {(owner, name) for owner, names in module._EXPORTS.items() for name in names}
    submodules = {
        (f"{package}.{name}", None)
        for name in set(module.__all__) - {n for _, n in table} - {"__version__"}
    }
    assert static == table | submodules


def test_inits_import_no_siblings():
    """A package init imports ``typing``, the lazy loader and, under
    ``TYPE_CHECKING``, its exports; at run time only the three names that
    share their module's name are bound eagerly."""
    eager = {}
    for package in PACKAGES:
        path = Path(importlib.import_module(package).__file__)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None)
                if module not in ("typing", "repro._lazy"):
                    eager.setdefault(package, []).append(
                        (module, [a.name for a in node.names]))
    assert eager == {
        "repro.datasets": [("repro.datasets.registry", ["registry"])],
        "repro.linalg": [("repro.linalg.gmres", ["gmres"])],
        "repro.reorder": [("repro.reorder.slashburn", ["slashburn"])],
    }


def test_exports_named_like_their_module_stay_callables():
    kinds = _fresh(
        "import importlib, json, types\n"
        "names = {'repro.linalg': 'gmres', 'repro.datasets': 'registry',\n"
        "         'repro.reorder': 'slashburn'}\n"
        "out = {}\n"
        "for package, name in names.items():\n"
        "    importlib.import_module(f'{package}.{name}')\n"
        "    value = getattr(importlib.import_module(package), name)\n"
        "    out[package] = callable(value) and not isinstance(value, types.ModuleType)\n"
        "print(json.dumps(out))\n"
    )
    assert kinds == {"repro.linalg": True, "repro.datasets": True, "repro.reorder": True}
    from repro.datasets import registry
    from repro.linalg import gmres
    from repro.reorder import slashburn

    for value in (gmres, registry, slashburn):
        assert callable(value) and not isinstance(value, types.ModuleType)
