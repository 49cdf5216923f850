"""Correctness oracles for the benchmark, written without any code from circsep.

* ``count`` counts s-separated k-selections of a circle system with a
  per-circle dynamic program (cyclic words built from path counts, no closed
  form), combined across circles by multiplying polynomials in k.
* ``is_separated`` checks s-separation of (circle, position) pairs directly.
* ``lex_selections`` is a depth-first search over the canonical
  (circle, position) order; it yields selections in lexicographic order.
* ``sample_anchored`` draws an s-separated k-subset of one circle that
  contains position 1, uniformly at random.
* ``mirrored`` compares a zig trace with a zag trace step by step.
"""

from __future__ import annotations

import itertools


def _path_table(length: int, s: int, kmax: int) -> list[list[int]]:
    """``table[L][j]``: j-subsets of positions 1..L whose consecutive members
    differ by at least s + 1.  Rows for L <= 0 are the row for L = 0."""
    table = [[1] + [0] * kmax]
    for L in range(1, max(length, 0) + 1):
        prev = table[L - 1]
        below = table[L - s - 1] if L - s - 1 >= 0 else None
        row = [1]
        for j in range(1, kmax + 1):
            # either L is not chosen, or it is and the rest sit at or below L-s-1
            take = below[j - 1] if below is not None else int(j == 1)
            row.append(prev[j] + take)
        table.append(row)
    return table


def _path(table, length: int, j: int) -> int:
    return table[max(length, 0)][j]


def circle_poly(n: int, s: int, kmax: int, anchored: bool = False) -> list[int]:
    """Coefficients 0..kmax of the counting polynomial of one circle of size n.

    Coefficient j counts s-separated j-subsets; with ``anchored`` only those
    containing position 1 (by rotation, any one fixed position).  A subset is
    split at its smallest member f: the others lie in f+s+1 .. n and, to
    keep the wrap-around gap, at most n+f-s-1.
    """
    table = _path_table(n, s, kmax)
    if anchored:
        return [0] + [_path(table, n - 2 * s - 1, j - 1) for j in range(1, kmax + 1)]
    poly = [1]
    for j in range(1, kmax + 1):
        poly.append(sum(_path(table, min(n, n + f - s - 1) - f - s, j - 1)
                        for f in range(1, n + 1)))
    return poly


def count(sizes, s: int, k: int, fixed_circle: int | None = None) -> int:
    """s-separated k-selections of the system; with ``fixed_circle`` only those
    through one given element of that circle (1-based circle index)."""
    product = [1] + [0] * k
    for circle, n in enumerate(sizes, 1):
        poly = circle_poly(n, s, k, anchored=circle == fixed_circle)
        product = [sum(product[i] * poly[j - i] for i in range(j + 1))
                   for j in range(k + 1)]
    return product[k]


def is_separated(pairs, sizes, s: int) -> bool:
    """True when the (circle, position) pairs are distinct, inside the system,
    and every same-circle pair is at circular distance at least s + 1."""
    if len(set(pairs)) != len(pairs):
        return False
    for c, p in pairs:
        if not (1 <= c <= len(sizes) and 1 <= p <= sizes[c - 1]):
            return False
    for (c1, p1), (c2, p2) in itertools.combinations(pairs, 2):
        if c1 == c2:
            d = abs(p1 - p2)
            if min(d, sizes[c1 - 1] - d) < s + 1:
                return False
    return True


def lex_selections(sizes, s: int, k: int, fixed=None):
    """Yield s-separated k-selections as tuples of (circle, position) pairs,
    in lexicographic order of the pairs; ``fixed`` is a pair that every
    selection must contain."""
    ground = [(c, p) for c, n in enumerate(sizes, 1) for p in range(1, n + 1)]
    must = ground.index(fixed) if fixed is not None else None
    chosen: list[tuple[int, int]] = []

    def fits(c, p):
        n = sizes[c - 1]
        for c2, p2 in reversed(chosen):
            if c2 != c:
                break
            d = p - p2
            if min(d, n - d) < s + 1:
                return False
        return True

    def dfs(start, have_fixed):
        if len(chosen) == k:
            if have_fixed:
                yield tuple(chosen)
            return
        stop = len(ground) - (k - len(chosen)) + 1
        if must is not None and not have_fixed:
            stop = min(stop, must + 1)
            if len(chosen) == k - 1:
                start = max(start, must)
        for i in range(start, stop):
            c, p = ground[i]
            if fits(c, p):
                chosen.append((c, p))
                yield from dfs(i + 1, have_fixed or i == must)
                chosen.pop()

    return dfs(0, fixed is None)


def parse_pairs(line: str):
    """``"1@1,4@2"`` -> ``((1, 1), (2, 4))`` as (circle, position) pairs."""
    pairs = []
    for tok in line.split(","):
        p, _, c = tok.partition("@")
        pairs.append((int(c), int(p)))
    return tuple(pairs)


def format_pairs(pairs) -> str:
    return ",".join(f"{p}@{c}" for c, p in pairs)


def sample_anchored(rng, n: int, s: int, k: int) -> list[int]:
    """A uniformly random s-separated k-subset of a circle of size n that
    contains position 1.  The other k-1 positions lie in s+2 .. n-s with gaps
    of at least s+1; squeezing out s after each of them leaves a plain
    (k-1)-subset of a shorter interval."""
    j = k - 1
    room = (n - 2 * s - 1) - s * (j - 1)
    if j and room < j:
        raise ValueError(f"no s-separated {k}-subset of a {n}-circle, s={s}")
    picks = sorted(rng.sample(range(1, room + 1), j)) if j else []
    return [1] + [s + 1 + c + s * i for i, c in enumerate(picks)]


def mirrored(zig_trace: dict, zag_trace: dict) -> bool:
    """A zig trace and a zag trace run the same switches mirrored: the same
    number of steps and the same gaps, with removals and insertions
    exchanged."""
    zig_steps, zag_steps = zig_trace["steps"], zag_trace["steps"]
    if (zig_trace["direction"], zag_trace["direction"]) != ("zig", "zag"):
        return False
    if zig_trace["order"] != len(zig_steps) or zag_trace["order"] != len(zag_steps):
        return False
    if len(zig_steps) != len(zag_steps):
        return False
    return all((g["removed"], g["d"], g["added"]) == (z["added"], z["d"], z["removed"])
               for z, g in zip(zig_steps, zag_steps))
