"""Seeded synthetic stand-ins for the paper's evaluation datasets.

See :mod:`repro.datasets.registry` for the full catalogue and the
substitution rationale (DESIGN.md §4).
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

# Bound eagerly: ``registry`` shares its name with repro.datasets.registry, and
# importing that module would bind the module here instead.
from repro.datasets.registry import registry as registry

_EXPORTS = {
    "repro.datasets.registry": (
        "DatasetSpec",
        "FIG4_DATASETS",
        "FIG7_DATASETS",
        "FIG8_DATASETS",
        "HEADLINE_DATASETS",
        "SMALL_DATASETS",
        "build",
        "get",
        "names",
        "registry",
    ),
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.datasets.registry import (
        DatasetSpec as DatasetSpec,
        FIG4_DATASETS as FIG4_DATASETS,
        FIG7_DATASETS as FIG7_DATASETS,
        FIG8_DATASETS as FIG8_DATASETS,
        HEADLINE_DATASETS as HEADLINE_DATASETS,
        SMALL_DATASETS as SMALL_DATASETS,
        build as build,
        get as get,
        names as names,
    )
