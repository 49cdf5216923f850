"""Closed-form counts for s-separated selections, in exact integer arithmetic.

Let ``N`` be the total number of objects in a system with circle sizes
``n_1 .. n_p``.  The counts implemented here:

* one circle, free:            ``n / (n - s*k) * C(n - s*k, k)``
* one circle, element fixed:   ``C(n - s*k - 1, k - 1)``
* p circles, element fixed:    ``C(N - s*k - 1, k - 1)``
* p circles, free:             ``N / k * C(N - s*k - 1, k - 1)``

Each public closed form holds on one domain, written once in
``core._check_bounds``: ``s >= 0``, ``k >= 0`` (``k >= 1`` with a fixed
element), size ``>= s*k + 1`` on the fixed element's circle or, with nothing
fixed, on every circle, and size ``>= s*k`` on the circles beside a fixed
element.  Each calls it first, so out-of-domain parameters raise
:class:`DomainError` naming the first violated bound - use
``count_by_enumeration`` there instead.  The single-circle counts beneath,
``_count``, are exact everywhere.  The rational-looking forms divide last, and
the division is asserted exact, so a failed divisibility never rounds.

``count_system_convolution`` and ``count_system_fixed_recursive`` recompute
the free and the fixed count from single-circle counts alone, as one product:
coefficient j of a circle's polynomial counts the ways to put j elements on
it (through the fixed element on its circle), and either count is coefficient
k of the product, O(p*min(k, N)^2) for p circles.
"""

from __future__ import annotations

import math
import operator

from .core import (CircleSystem, Element, InvariantViolation, _check_bounds,
                   _require_ints)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the zero conventions used throughout:
    0 when k < 0, k > n, or n < 0; and C(n, 0) = 1 for n >= 0."""
    if type(n) is not int or type(k) is not int:
        _require_ints("binomial", n=n, k=k)
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _exact_div(numerator: int, denominator: int, context: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InvariantViolation(
            f"{context}: {numerator} is not divisible by {denominator}")
    return quotient


_HINT = "; use count_by_enumeration instead"


def _count(n: int, s: int, j: int, through: bool = False) -> int:
    """s-separated j-subsets of one circle of size n (through one given element
    when ``through``), exact for every n >= 1, s >= 0 and j >= 0: one binomial
    at most, and 0 past the densest packing, n < (s+1)*j for j >= 2."""
    if j < 2:
        return j if through else (n if j else 1)
    if through:
        return binomial(n - s * j - 1, j - 1)
    if n < (s + 1) * j:
        return 0
    return _exact_div(n * binomial(n - s * j, j), n - s * j, "count_circle")


def count_circle(n: int, s: int, k: int) -> int:
    """s-separated k-subsets of one circle of size n.

    Exact for n >= s*k + 1 (so for k = 0, one empty set, on any circle).
    """
    _check_bounds("count_circle", s, k, (n,), names=("n",), hint=_HINT)
    return _count(n, s, k)


def count_circle_fixed(n: int, s: int, k: int) -> int:
    """s-separated k-subsets of one circle of size n through one fixed element.

    Requires k >= 1 and n >= s*k + 1.  The count does not depend on which
    element is fixed (rotation symmetry).
    """
    _check_bounds("count_circle_fixed", s, k, (n,), fixed=1, names=("n",),
                  hint=_HINT)
    return _count(n, s, k, True)


def count_system_fixed(system: CircleSystem, s: int, k: int, fixed: Element) -> int:
    """s-separated k-subsets of a circle system through one fixed element.

    Requires k >= 1, size >= s*k + 1 on the fixed element's circle, and
    size >= s*k on every other circle.  Equals ``C(N - s*k - 1, k - 1)``
    independent of which qualifying element is fixed.
    """
    _check_bounds("count_system_fixed", s, k, fixed=fixed.circle)
    system.check_element(fixed)
    _check_bounds("count_system_fixed", s, k, system.sizes, fixed.circle,
                  hint=_HINT)
    return binomial(system.total - s * k - 1, k - 1)


def count_system(system: CircleSystem, s: int, k: int) -> int:
    """s-separated k-subsets of a circle system, no element fixed.

    Exact for k = 0 and whenever every circle has size >= s*k + 1.
    """
    _check_bounds("count_system", s, k, system.sizes, hint=_HINT)
    if k == 0:
        return 1
    total = system.total
    return _exact_div(total * binomial(total - s * k - 1, k - 1), k, "count_system")


def _product(sizes, s: int, k: int, fixed: int | None = None) -> int:
    """Coefficient k of the product of the circles' polynomials, coefficient j
    of circle c's counting the ways to put j elements on it (through one given
    element when c is ``fixed``): O(p*k^2), 0 past N, and no bound check."""
    if k > sum(sizes):
        return 0
    product, *factors = [[_count(n, s, j, c == fixed) for j in range(k + 1)]
                         for c, n in enumerate(sizes, 1)]
    for factor in factors:
        product = [sum(map(operator.mul, product[:j + 1], factor[j::-1]))
                   for j in range(k + 1)]
    return product[k]


def count_system_fixed_recursive(system: CircleSystem, s: int, k: int) -> int:
    """Fixed-element count through (1,1), as coefficient k of the circles'
    product with the first circle's counted through 1@1, O(p*min(k, N)^2).
    Preconditions match ``count_system_fixed`` with ``fixed = 1@1``.
    """
    _check_bounds("count_system_fixed_recursive", s, k, system.sizes, fixed=1,
                  hint=_HINT)
    return _product(system.sizes, s, k, fixed=1)


def count_system_convolution(system: CircleSystem, s: int, k: int) -> int:
    """Free count as the polynomial product of single-circle counts, one
    factor per circle.  Requires every circle size >= s*k + 1, the direct
    form's contract and not a condition for the factors; k = 0 gives 1.
    """
    _check_bounds("count_system_convolution", s, k, system.sizes, hint=_HINT)
    return _product(system.sizes, s, k)
