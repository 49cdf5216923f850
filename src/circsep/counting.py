"""Closed-form counts for s-separated selections, in exact integer arithmetic.

Let ``N`` be the total number of objects in a system with circle sizes
``n_1 .. n_p``.  The counts implemented here:

* one circle, free:            ``n / (n - s*k) * C(n - s*k, k)``
* one circle, element fixed:   ``C(n - s*k - 1, k - 1)``
* p circles, element fixed:    ``C(N - s*k - 1, k - 1)``
* p circles, free:             ``N / k * C(N - s*k - 1, k - 1)``

Each closed form holds on one domain, written once in ``core._check_bounds``:
``s >= 0``, ``k >= 0`` (``k >= 1`` with a fixed element), size ``>= s*k + 1``
on the fixed element's circle or, with nothing fixed, on every circle, and
size ``>= s*k`` on the circles beside a fixed element.  Every count here calls
it first, so out-of-domain parameters raise :class:`DomainError` naming the
first violated bound - use ``count_by_enumeration`` there instead, which is
exact everywhere.  The two rational-looking forms are evaluated numerator
first and divided last; the division is asserted exact, so a failed
divisibility can never round silently.

``count_system_convolution`` and ``count_system_fixed_recursive`` recompute
the free and the fixed count from single-circle counts alone, to be checked
against the direct forms: coefficient j of a circle's polynomial counts the
ways to put j elements on it, the free count is the coefficient of x^k in the
product of those polynomials, and the fixed count peels the fixed circle off
the product of the others.  Both cost O(p*min(k, N)^2) for p circles.
"""

from __future__ import annotations

import math

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


def _circle(n: int, s: int, k: int) -> int:
    """``count_circle``'s arithmetic, for callers whose bound check covers it."""
    return _exact_div(n * binomial(n - s * k, k), n - s * k, "count_circle")


def _circle_fixed(n: int, s: int, k: int) -> int:
    """``count_circle_fixed``'s arithmetic, likewise."""
    return binomial(n - k * s - 1, k - 1)


def count_circle(n: int, s: int, k: int) -> int:
    """s-separated k-subsets of one circle of size n.

    Exact for n >= s*k + 1 (so for k = 0, one empty set, on any circle).
    """
    _check_bounds("count_circle", s, k, (n,), names=("n",), hint=_HINT)
    return _circle(n, s, k)


def count_circle_fixed(n: int, s: int, k: int) -> int:
    """s-separated k-subsets of one circle of size n through one fixed element.

    Requires k >= 1 and n >= s*k + 1.  The count does not depend on which
    element is fixed (rotation symmetry).
    """
    _check_bounds("count_circle_fixed", s, k, (n,), fixed=1, names=("n",),
                  hint=_HINT)
    return _circle_fixed(n, s, k)


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


def _spread(factors, k: int) -> list[int]:
    """The product of the per-circle polynomials ``factors``, where
    coefficient j counts the ways to put j elements on the circles, truncated
    at degree k: O(p*k^2) for p circles, however many ways there are to spread k."""
    product = [1] + [0] * k
    for factor in factors:
        product = [sum(product[i] * factor[j - i] for i in range(j + 1))
                   for j in range(k + 1)]
    return product


def count_system_fixed_recursive(system: CircleSystem, s: int, k: int) -> int:
    """Fixed-element count through (1,1), with the first circle peeled off:
    the sum over j of ``count_circle_fixed`` for j elements on the first circle
    times the coefficient of x^(k-j) in the ``count_circle`` product of the
    others, O(p*min(k, N)^2).  Preconditions match ``count_system_fixed`` with
    ``fixed = 1@1``.
    """
    _check_bounds("count_system_fixed_recursive", s, k, system.sizes, fixed=1,
                  hint=_HINT)
    if k > system.total:
        return 0
    first, *rest = system.sizes
    # the system's bounds cover every factor: j <= k - 1 beside 1@1, j <= k on it
    others = _spread([[_circle(n, s, j) for j in range(k)] for n in rest], k - 1)
    return sum(_circle_fixed(first, s, j) * others[k - j] for j in range(1, k + 1))


def count_system_convolution(system: CircleSystem, s: int, k: int) -> int:
    """Free count as the polynomial product of single-circle counts, one
    factor per circle.  Requires every circle size >= s*k + 1 (so that each
    single-circle factor is in its exact range); k = 0 gives 1.
    """
    _check_bounds("count_system_convolution", s, k, system.sizes, hint=_HINT)
    if k > system.total:
        return 0
    # every size >= s*k + 1 covers each factor's j <= k
    return _spread([[_circle(n, s, j) for j in range(k + 1)]
                    for n in system.sizes], k)[k]
