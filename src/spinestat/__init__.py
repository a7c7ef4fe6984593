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

# The limit theory (and the fractions module it computes in) loads on first
# use of one of these names, so a CLI start does not pay for it.
_ASYMPTOTICS = ("limit_fraction", "moment_sums", "tau")


def __getattr__(name):
    if name in _ASYMPTOTICS:
        from . import asymptotics

        return getattr(asymptotics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
