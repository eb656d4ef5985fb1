"""Turn an archive of experiment records into an atlas of links, conflicts, and gaps.

The names below are loaded on first use (PEP 562), so that importing a
submodule, such as ``exatlas.cli``, does not load numpy first: the CLI sets
its BLAS thread count before numpy loads.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "0.1.0"

# Each exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("Archive", "Experiment", "load_archive", "save_archive"), "archive"),
    **dict.fromkeys(("ComposerConfig", "Composition", "Neighborhood", "assess",
                     "compose_effect"), "composer"),
    **dict.fromkeys(("EvalReport", "TargetResult", "loo_run", "build_report",
                     "calibrate_lambda"), "evaluator"),
    **dict.fromkeys(("mine_conflicts", "export_graph"), "atlas"),
    **dict.fromkeys(("DeterministicStubProvider", "VectorFileProvider",
                     "RemoteEmbeddingProvider", "embed_texts", "build_feature",
                     "feature_matrix"), "representation"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted([*globals(), *_EXPORTS])
