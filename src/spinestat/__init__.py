"""Exact statistics of the right spine of binary trees.

Enumerates binary trees, computes the distribution of right-spine segment
counts by four independent methods, and evaluates the limiting behaviour
(average spine length 3; fraction of trees with k segments k/2^(k+1))
entirely in exact arithmetic.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceeded,
    DomainError,
    EmptyTree,
    MalformedCode,
    NoRoot,
    SpinestatError,
)
from .series import catalan, node_gf, spine_gf
from .stats import (
    SpineDistribution,
    average,
    dist_closed,
    dist_exhaustive,
    dist_recurrence,
    dist_series,
    weighted_sum,
)
from .trees import (
    EXTERNAL,
    BinaryTree,
    decode,
    encode,
    enumerate_codes,
    enumerate_trees,
    predecessor,
    sample_uniform,
    size,
    spine_segments,
    successors,
)
from .asymptotics import limit_fraction, moment_sums, tau

__all__ = [
    "BinaryTree",
    "CapExceeded",
    "DomainError",
    "EmptyTree",
    "EXTERNAL",
    "MalformedCode",
    "NoRoot",
    "SpineDistribution",
    "SpinestatError",
    "average",
    "catalan",
    "decode",
    "dist_closed",
    "dist_exhaustive",
    "dist_recurrence",
    "dist_series",
    "encode",
    "enumerate_codes",
    "enumerate_trees",
    "limit_fraction",
    "moment_sums",
    "node_gf",
    "predecessor",
    "sample_uniform",
    "size",
    "spine_gf",
    "spine_segments",
    "successors",
    "tau",
    "weighted_sum",
]
