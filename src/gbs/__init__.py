"""Generalized Baumslag-Solitar graphs of groups.

Normal forms for path words, finite balls of the Bass-Serre covering tree,
the index arithmetic behind the C*-simplicity criterion, explicit
Powers-averaging conjugators, and truncated regular-representation norm
experiments.
"""

from gbs.graphs import (
    Decomposition,
    GbsGraph,
    GraphError,
    ParseError,
    SpanningData,
    compute_spanning_tree,
    decompose,
    parse_graph,
)
from gbs.words import GbsGroup, GroupElement, WordError
from gbs.wordcore import backend as kernel_backend

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "GbsGraph",
    "GbsGroup",
    "GraphError",
    "GroupElement",
    "ParseError",
    "SpanningData",
    "WordError",
    "compute_spanning_tree",
    "decompose",
    "kernel_backend",
    "parse_graph",
    "__version__",
]
