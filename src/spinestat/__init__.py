"""Exact statistics of the right spine of binary trees.

Enumerates binary trees, computes the distribution of right-spine segment
counts by four independent methods, and evaluates the limiting behaviour
(average spine length 3; fraction of trees with k segments k/2^(k+1))
entirely in exact arithmetic.
"""

__version__ = "0.1.0"

# Each public name and the module that defines it.  A name loads its module
# on first use, so `import spinestat` loads no submodule and a command loads
# only the layers it runs.
_SOURCES = {
    "CapExceeded": "errors",
    "DomainError": "errors",
    "NoRoot": "errors",
    "SpinestatError": "errors",
    "catalan": "series",
    "node_gf": "series",
    "spine_gf": "series",
    "SpineDistribution": "stats",
    "average": "stats",
    "dist_closed": "stats",
    "dist_exhaustive": "stats",
    "dist_recurrence": "stats",
    "dist_series": "stats",
    "enumerate_codes": "trees",
    "limit_fraction": "asymptotics",
    "moment_sums": "asymptotics",
    "tau": "asymptotics",
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    if name in _SOURCES:
        from importlib import import_module

        return getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*globals(), *__all__]
