"""Exact list-coloring laboratory.

Builds a 63-vertex planar graph that is 3-colorable yet not 4-choosable,
together with the 4-element color lists that defeat it, and machine-checks
every structural claim (planarity, chromatic number, choosability,
Hamiltonicity, matchings) with independently verifiable certificates.

The names below are exported lazily (PEP 562): ``import colorlab`` loads
no submodule, and the first use of a name imports its home module, so a
program that only builds M compiles ``graph`` and ``build`` alone.
"""

import importlib

__version__ = "0.1.0"

# Each submodule -> the names it exports here.
_HOMES = {
    "build": (
        "ListAssignment",
        "canonical_lists",
        "gadget",
        "make_lists",
        "mirzakhani",
        "uniform_lists",
        "wheel4",
        "wheel_lists",
    ),
    "choose": ("choosability_exhaustive", "random_probe"),
    "graph": (
        "Graph",
        "GraphError",
        "VertexId",
        "apex",
        "components",
        "corner",
        "delete_vertices",
        "hub",
        "make_graph",
        "plain",
    ),
    "proof": ("forcing_families", "theorem_replay", "wheel_forcing"),
    "solve": (
        "BudgetExhausted",
        "chromatic_number",
        "count",
        "decide",
        "to_cnf",
        "verify_coloring",
        "verify_not_choosable",
    ),
    "verify": (
        "apex_embed",
        "audit",
        "cut_certificate",
        "face_census",
        "gadget_lemma",
        "hamilton",
        "outer_walk",
        "perfect_matching",
        "rotation_from_layout",
    ),
}
# Each exported name -> its home module.
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

# Submodules that ``colorlab.<name>`` reaches without a prior import.
_SUBMODULES = {*_HOMES, "cli", "engine", "graphio"}

__all__ = sorted(("__version__", *_EXPORTS))


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"colorlab.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"colorlab.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
