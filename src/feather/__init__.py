"""Interpreter for a declarative feature-model transformation language.

Scripts declare a feature model (a tree of features with typed attributes
plus cross-tree constraints) and a sequence of transformation commands.
Commands may quantify over the model with feature variables, which are
resolved jointly against a where-clause before the edit is applied.
"""

from .build import BuildError, build_model
from .commands import Diagnostic, RunMode, execute, run_script
from .model import Constraint, DecompKind, Feature, FeatureModel, ModelError
from .parser import ParseError, parse_commands, parse_declarations, parse_script, validate_static
from .resolver import ResolutionSet, resolve
from .serializer import serialize_declarations

__all__ = [
    "BuildError",
    "Constraint",
    "DecompKind",
    "Diagnostic",
    "Feature",
    "FeatureModel",
    "ModelError",
    "ParseError",
    "ResolutionSet",
    "RunMode",
    "TvlError",
    "TvlExportError",
    "build_model",
    "execute",
    "export_tvl",
    "import_tvl",
    "parse_commands",
    "parse_declarations",
    "parse_script",
    "resolve",
    "run_script",
    "serialize_declarations",
    "validate_static",
]

__version__ = "1.0.0"


def __getattr__(name: str):
    """TVL support, loaded on first use (PEP 562): the reader and the writer
    each from its own module."""
    if name in ("TvlError", "import_tvl"):
        from . import tvl as module
    elif name in ("TvlExportError", "export_tvl"):
        from . import tvl_export as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
