"""Exact parametric closure toolkit.

Computes, for a finite poset whose elements carry linear parametric weights
a*lam + b, the convex polygon spanned by the projections of all lower sets,
along with the lower sets that realize its vertices. On top of the polygon:
the piecewise optimum of the best lower set as lam sweeps the line, and
maximization of quasiconvex functions of the projection.

Fast paths exist for semiorders, series-parallel orders, bounded-treewidth
orders and orders of width two; everything is checked against a brute-force
enumeration oracle at small sizes.

`import paraclose` imports none of the submodules: each exported name
imports its own submodule the first time it is read.
"""

from importlib import import_module


def _lazy(namespace, homes):
    """A module __getattr__ (PEP 562) for the module whose globals are
    namespace. homes maps a submodule of this package to the names it
    gives that module. The first read of such a name imports its submodule
    and stores the name in namespace, unless a value is there already;
    any other name raises AttributeError."""
    home = {name: mod for mod, names in homes.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(import_module(f"{__name__}.{home[name]}"), name)
        return namespace.setdefault(name, value)

    return __getattr__


_EXPORTS = {
    "errors": ("InputFormatError", "LimitExceededError", "ParacloseError", "StructureError"),
    "parametric": ("maximize_quasiconvex", "optimum_at", "profile"),
    "polygon": (
        "EMPTY_POLYGON",
        "Polygon",
        "hull_of_points",
        "hull_union",
        "minkowski_sum",
        "point",
        "segment_zonotope",
    ),
    "poset": ("Poset", "brute_polygon", "incidence_poset", "semiorder_poset"),
    "semiorder": ("Semiorder", "solve_semiorder"),
    "series_parallel": ("SPTree", "solve_sp", "tree_to_sp"),
    "treewidth": ("TreeDecomposition", "greedy_tree_decomposition", "solve_treewidth"),
    "width2": ("ChainDecomposition", "chain_partition_width2", "solve_width2"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__ = _lazy(globals(), _EXPORTS)


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
