"""Closed-form counts for s-separated selections, in exact integer arithmetic.

Let ``N`` be the total number of objects in a system with circle sizes
``n_1 .. n_p``.  The counts implemented here:

* one circle, free:            ``n / (n - s*k) * C(n - s*k, k)``
* one circle, element fixed:   ``C(n - s*k - 1, k - 1)``
* p circles, element fixed:    ``C(N - s*k - 1, k - 1)``
* p circles, free:             ``N / k * C(N - s*k - 1, k - 1)``

Each closed form carries a size precondition (the fixed element's circle needs
``n >= s*k + 1``; in the fixed-count case the other circles only need
``n >= s*k``; the free multi-circle count needs every circle ``>= s*k + 1``).
Out-of-precondition parameters raise :class:`DomainError` - use
``count_by_enumeration`` there instead, which is exact everywhere.  The two
rational-looking forms are evaluated numerator first and divided last; the
division is asserted exact, so a failed divisibility can never round silently.

``count_system_convolution`` and ``count_system_fixed_recursive`` recompute
the free and the fixed count from single-circle counts alone: coefficient j
of a circle's polynomial counts the ways to put j elements on it, and the
system's count is the coefficient of x^k in the product of those polynomials.
Both exist to be checked against the direct forms.
"""

from __future__ import annotations

import math

from .core import CircleSystem, DomainError, Element, InvariantViolation


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the zero conventions used throughout:
    0 when k < 0, k > n, or n < 0; and C(n, 0) = 1 for n >= 0."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _exact_div(numerator: int, denominator: int, context: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InvariantViolation(
            f"{context}: {numerator} is not divisible by {denominator}")
    return quotient


def _check_sk(s: int, k: int) -> None:
    if s < 0:
        raise DomainError(f"requires s >= 0, got s={s}")
    if k < 0:
        raise DomainError(f"requires k >= 0, got k={k}")


def count_circle(n: int, s: int, k: int) -> int:
    """s-separated k-subsets of one circle of size n.

    Exact for k = 0 (one empty set) and for n >= s*k + 1.
    """
    _check_sk(s, k)
    if n < 1:
        raise DomainError(f"requires n >= 1, got n={n}")
    if k == 0:
        return 1
    if n < s * k + 1:
        raise DomainError(
            f"count_circle requires n >= s*k+1 (got n={n}, s={s}, k={k}); "
            "use count_by_enumeration for smaller circles")
    return _exact_div(n * binomial(n - s * k, k), n - s * k, "count_circle")


def count_circle_fixed(n: int, s: int, k: int) -> int:
    """s-separated k-subsets of one circle of size n through one fixed element.

    Requires k >= 1 and n >= s*k + 1.  The count does not depend on which
    element is fixed (rotation symmetry).
    """
    _check_sk(s, k)
    if k < 1:
        raise DomainError(f"count_circle_fixed requires k >= 1, got k={k}")
    if n < s * k + 1:
        raise DomainError(
            f"count_circle_fixed requires n >= s*k+1 (got n={n}, s={s}, k={k}); "
            "use count_by_enumeration for smaller circles")
    return binomial(n - k * s - 1, k - 1)


def _check_fixed_system(system: CircleSystem, s: int, k: int, fixed: Element) -> None:
    system.check_element(fixed)
    for circle, n in enumerate(system.sizes, 1):
        if circle == fixed.circle:
            if n < s * k + 1:
                raise DomainError(
                    f"requires n_{circle} >= s*k+1 on the fixed element's circle "
                    f"(got n_{circle}={n}, s={s}, k={k}); "
                    "use count_by_enumeration instead")
        elif n < s * k:
            raise DomainError(
                f"requires n_{circle} >= s*k on circles without the fixed element "
                f"(got n_{circle}={n}, s={s}, k={k}); "
                "use count_by_enumeration instead")


def count_system_fixed(system: CircleSystem, s: int, k: int, fixed: Element) -> int:
    """s-separated k-subsets of a circle system through one fixed element.

    Requires k >= 1, size >= s*k + 1 on the fixed element's circle, and
    size >= s*k on every other circle.  Equals ``C(N - s*k - 1, k - 1)``
    independent of which qualifying element is fixed.
    """
    _check_sk(s, k)
    if k < 1:
        raise DomainError(f"count_system_fixed requires k >= 1, got k={k}")
    _check_fixed_system(system, s, k, fixed)
    return binomial(system.total - s * k - 1, k - 1)


def count_system(system: CircleSystem, s: int, k: int) -> int:
    """s-separated k-subsets of a circle system, no element fixed.

    Exact for k = 0 and whenever every circle has size >= s*k + 1.
    """
    _check_sk(s, k)
    if k == 0:
        return 1
    for circle, n in enumerate(system.sizes, 1):
        if n < s * k + 1:
            raise DomainError(
                f"count_system requires every circle size >= s*k+1 "
                f"(got n_{circle}={n}, s={s}, k={k}); "
                "use count_by_enumeration instead")
    total = system.total
    return _exact_div(total * binomial(total - s * k - 1, k - 1), k, "count_system")


def _spread(factors, k: int) -> int:
    """Coefficient of x^k in the product of the per-circle polynomials
    ``factors``, where coefficient j of a factor counts the ways to put j of
    the k elements on that circle.  Products are truncated at degree k, so
    this costs O(p*k^2) for p circles however many ways there are to spread k.
    """
    product = [1] + [0] * k
    for factor in factors:
        product = [sum(product[i] * factor[j - i] for i in range(j + 1))
                   for j in range(k + 1)]
    return product[k]


def count_system_fixed_recursive(system: CircleSystem, s: int, k: int) -> int:
    """Fixed-element count through (1,1), recomputed one circle at a time:
    the polynomial product of ``count_circle_fixed`` on the first circle
    (0 at j = 0) and ``count_circle`` on every other circle (0 at j = k, as
    the fixed element leaves room for at most k - 1 there).  Preconditions
    match ``count_system_fixed`` with ``fixed = 1@1``.
    """
    _check_sk(s, k)
    if k < 1:
        raise DomainError(f"count_system_fixed_recursive requires k >= 1, got k={k}")
    _check_fixed_system(system, s, k, Element(1, 1))
    first, *rest = system.sizes
    factors = [[0] + [count_circle_fixed(first, s, j) for j in range(1, k + 1)]]
    factors += [[count_circle(n, s, j) for j in range(k)] + [0] for n in rest]
    return _spread(factors, k)


def count_system_convolution(system: CircleSystem, s: int, k: int) -> int:
    """Free count as the polynomial product of single-circle counts, one
    factor per circle.  Requires every circle size >= s*k + 1 (so that each
    single-circle factor is in its exact range); k = 0 gives 1.
    """
    _check_sk(s, k)
    for circle, n in enumerate(system.sizes, 1):
        if k >= 1 and n < s * k + 1:
            raise DomainError(
                f"count_system_convolution requires every circle size >= s*k+1 "
                f"(got n_{circle}={n}, s={s}, k={k}); "
                "use count_by_enumeration instead")
    return _spread([[count_circle(n, s, j) for j in range(k + 1)]
                    for n in system.sizes], k)
