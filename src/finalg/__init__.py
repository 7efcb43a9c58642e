"""finalg: a workbench for finite idempotent algebras.

Computes subpowers, clones, congruences, absorption and edges for finite
operation tables, and ships a verified catalog of the small minimal Taylor
algebras together with a replayable certificate suite for the published
classification of the 2-generated ones on at most four elements.
"""

from .core import (
    Algebra,
    AlgebraError,
    NotClosedError,
    OperationTable,
    ParseError,
    compose,
    parse_algebra,
    product,
    projection,
    restrict,
    serialize_algebra,
)
from .congruence import Partition
from .subpower import GeneratedSet, TermTree, free_algebra, generate, render_term

__all__ = [
    "Algebra",
    "AlgebraError",
    "GeneratedSet",
    "NotClosedError",
    "OperationTable",
    "ParseError",
    "Partition",
    "TermTree",
    "compose",
    "free_algebra",
    "generate",
    "parse_algebra",
    "product",
    "projection",
    "render_term",
    "restrict",
    "serialize_algebra",
]

__version__ = "0.1.0"
