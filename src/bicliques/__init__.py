"""Biclique- and star-colouring toolkit for powers of paths and cycles.

A colouring is a biclique colouring when no maximal complete bipartite
vertex set (with at least one edge) is monochromatic, and a star colouring
when no maximal induced star is.  This package computes both chromatic
numbers exactly for P_n^k and C_n^k via closed forms, emits optimal
colourings with certificates, verifies arbitrary colourings against a
brute-force oracle, and builds the 3SAT-to-biclique-containment gadget.

Only graphs, which holds the records and everything the oracle runs, is
imported at once.  The names of colouring, powers, the oracle and the
reduction are re-exported lazily (PEP 562): their module is imported on
first use of one of them, so a command line run compiles only what its
subcommand uses, and the oracle's first call loads the oracle alone.
"""

from importlib import import_module as _import_module
from types import ModuleType as _Module

from .graphs import (
    Biclique,
    CapacityError,
    Colouring,
    Graph,
    InputError,
    contains_induced_c4,
    contains_k4,
    induced_subgraph,
    is_complete_bipartite,
    read_graph,
    write_dot,
    write_graph,
)

# submodule -> the names re-exported from it on first use
_LAZY = {
    "colouring": (
        "AbCertificate",
        "ChromaticResult",
        "EvenDivision",
        "ab_certificate",
        "biclique_colour_cycle",
        "biclique_colour_path",
        "decide_two_vs_three",
        "even_division",
        "guaranteed_ab_certificate",
        "read_colouring",
        "star_colour_cycle",
        "star_colour_path",
        "three_colour_no_mono_p3",
        "write_colouring",
    ),
    "oracle": (
        "block_profile",
        "exact_chromatic",
        "find_mono_p3",
        "maximal_bicliques",
        "maximal_stars",
        "verify_colouring",
    ),
    "powers": (
        "circulant",
        "cycle_bicliques",
        "cycle_induced_p3s",
        "cycle_stars",
        "path_bicliques",
        "path_stars",
        "power_cycle",
        "power_path",
    ),
    "reduction": (
        "CnfFormula",
        "ReductionInstance",
        "ReductionReport",
        "biclique_containment",
        "build_instance",
        "certify_reduction",
        "evaluate",
        "find_satisfying_assignment",
        "normalize",
        "read_dimacs",
        "write_dimacs",
    ),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}
# the names bound above, submodules aside, and those __getattr__ binds
__all__ = sorted([name for name, value in globals().items()
                  if not (name.startswith("_") or isinstance(value, _Module))]
                 + list(_SOURCE))

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
