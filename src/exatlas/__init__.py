"""Turn an archive of experiment records into an atlas of links, conflicts, and gaps."""

from .archive import Archive, Experiment, load_archive, save_archive
from .composer import Composition, ComposerConfig, Neighborhood, assess, compose_effect
from .evaluator import EvalReport, TargetResult, build_report, calibrate_lambda, loo_run
from .atlas import Conflict, Gap, Link, export_graph, mine_conflicts, route
from .representation import (
    DeterministicStubProvider,
    RemoteEmbeddingProvider,
    VectorFileProvider,
    build_feature,
    embed_text,
    feature_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Archive",
    "Experiment",
    "load_archive",
    "save_archive",
    "ComposerConfig",
    "Composition",
    "Neighborhood",
    "assess",
    "compose_effect",
    "EvalReport",
    "TargetResult",
    "loo_run",
    "build_report",
    "calibrate_lambda",
    "Link",
    "Conflict",
    "Gap",
    "route",
    "mine_conflicts",
    "export_graph",
    "DeterministicStubProvider",
    "VectorFileProvider",
    "RemoteEmbeddingProvider",
    "embed_text",
    "build_feature",
    "feature_matrix",
    "__version__",
]
