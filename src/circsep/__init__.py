"""Exact counting, enumeration, and bijective maps for s-separated selections
on systems of circles.

A selection of k elements spread over disjoint circles is s-separated when any
two chosen positions on the same circle have at least s positions strictly
between them along the shorter arc.  This package counts such selections in
exact integer arithmetic, enumerates them, maps them bijectively onto
selections of a single combined circle, and cross-checks every closed form
against brute-force enumeration.

``import circsep`` loads ``core``, ``counting`` and ``enumeration``.  The names
from ``bijection`` and ``verify`` load their module on first access, so the
``count`` and ``enumerate`` commands never load either.
"""

import importlib

from .core import (CircleSystem, DomainError, Element, InvariantViolation,
                   SelectionSet, SeparationParams, circular_distance, flatten,
                   format_flat_selection, is_s_separated, parse_element,
                   parse_flat_selection, parse_selection, unflatten)
from .counting import (binomial, count_circle, count_circle_fixed, count_system,
                       count_system_convolution, count_system_fixed,
                       count_system_fixed_recursive)
from .enumeration import (EnumerationRequest, count_by_enumeration,
                          enumerate_gap, enumerate_naive, selection_keys)

__version__ = "0.1.0"

__all__ = [
    "BijectivityReport", "CHECKS", "CircleSystem", "DomainError",
    "DOCUMENTATION_CHECKS", "Element", "EnumerationRequest", "IdentityReport",
    "InvariantViolation", "SelectionSet", "SeparationParams", "SweepGrid",
    "SwitchStep", "ZigZagTrace", "backward", "binomial", "check_bijectivity",
    "circular_distance", "count_by_enumeration", "count_circle",
    "count_circle_fixed", "count_system", "count_system_convolution",
    "count_system_fixed", "count_system_fixed_recursive", "enumerate_gap",
    "enumerate_naive", "flatten", "format_flat_selection", "forward",
    "grid_points", "is_s_separated", "overall_pass", "parse_element",
    "parse_flat_selection", "parse_selection", "render_table", "selection_keys",
    "to_json_lines", "unflatten", "verify_all", "verify_convolution_identity",
    "verify_fixed_sum_identity", "verify_fixed_sum_printed", "zag", "zig",
]


def __getattr__(name):
    # a name of __all__ not bound above comes from bijection or verify (PEP 562);
    # any other raises, so ``from circsep import verify`` imports the module
    if name in __all__:
        for home in ("bijection", "verify"):  # verify imports bijection itself
            module = importlib.import_module(f".{home}", __name__)
            if hasattr(module, name):  # cached: no later lookup comes here
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
