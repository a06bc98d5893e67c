"""Sylow 2-subgroups of symmetric groups and their restriction oracle.

A Sylow 2-subgroup P of S_n is one iterated wreath tower per 2-adic block of
n, with P_1 = 1 and P_{2m} = P_m wr C_2. A linear character of P is one sign
per tower level, so nothing is enumerated: a recursion over the towers sums
every linear character over the elements of each cycle type, and the
restriction multiplicities are exact inner products of those sums with the
Murnaghan-Nakayama values. Only the group structure and mn_value enter; the
oracle is deliberately independent of the wreath-tower labelling used by the
correspondence modules (alpha_sn, hook_to_bits, the Gray code).
"""

from functools import cache, cached_property

from . import _HOMES
from .errors import DEFAULT_CAP, DomainError, EnumerationCapError
from .characters import mn_value
from .partitions import Partition, two_adic

__all__ = _HOMES["permgroups"]


def _add(sums, cycle_type, row):
    """sums[cycle_type] += row, entry by entry."""
    acc = sums.get(cycle_type)
    if acc is None:
        sums[cycle_type] = row
    else:
        for w, v in enumerate(row):
            acc[w] += v


def _union(t1, t2):
    return tuple(sorted(t1 + t2, reverse=True))


@cache
def _tower_sums(e):
    """Character sums over the wreath tower on 2**e points, by cycle type.

    Maps each cycle type t (a descending tuple) to the list whose entry w is
    the sum of phi_w(x) over the x of type t; bit j - 1 of w is the sign of
    phi_w on the level-j generator (level 1 swaps pairs). The tower is
    (A x B) <s> with A, B copies of the tower on 2**(e - 1) points and s the
    top swap. A base element ab has type t(a) + t(b) and value
    psi(a) psi(b) under either top sign. An element abs has the cycles of
    ab doubled and value +-psi(ab), and each x = ab arises |A| times.
    """
    if e == 0:
        return {(1,): [1]}
    below = _tower_sums(e - 1).items()
    count = 1 << ((1 << (e - 1)) - 1)  # |A| = 2**(2**(e - 1) - 1)
    sums = {}
    for t1, r1 in below:
        for t2, r2 in below:
            row = [a * b for a, b in zip(r1, r2)]
            _add(sums, _union(t1, t2), row + row)
    for t, r in below:
        _add(sums, tuple(2 * c for c in t), [count * v for v in r] + [-count * v for v in r])
    return sums


class Sylow2Subgroup:
    """A Sylow 2-subgroup of S_n: one wreath tower per 2-adic block of n.

    Blocks lie consecutively in decreasing size. generators lists each
    block's level generators, levels ascending: level j swaps the two halves
    of the block's first 2**j points and, with its conjugates under the lower
    levels, generates that tower.
    """

    def __init__(self, n):
        self.degree = n
        self.order = 1 << (n - n.bit_count())
        self.blocks = two_adic(n)
        gens = []
        self._mask_bits = []
        start = 0
        low = sum(self.blocks)
        for e in self.blocks:
            low -= e  # the smaller blocks own the low mask bits
            for j in range(e):
                half = 1 << j
                images = list(range(n))
                images[start:start + 2 * half] = [
                    *range(start + half, start + 2 * half),
                    *range(start, start + half),
                ]
                gens.append(tuple(images))
                self._mask_bits.append(low + j)
            start += 1 << e
        self.generators = tuple(gens)

    def on_generators(self, mask):
        """Values of the linear character phi_mask on the generator list."""
        return tuple(-1 if mask >> b & 1 else 1 for b in self._mask_bits)

    @cached_property
    def class_sums(self):
        """Cycle type -> [sum of phi_mask over the elements of that type, by mask].

        The product of the block towers; the smallest block owns the low mask
        bits, so mask bit b is the b-th tower level counted from the smallest
        block up, ascending within each block.
        """
        sums = {(): [1]}
        for e in reversed(self.blocks):
            merged = {}
            for t1, r1 in sums.items():
                for t2, r2 in _tower_sums(e).items():
                    _add(merged, _union(t1, t2), [a * b for b in r2 for a in r1])
            sums = merged
        return {Partition._trusted(t, self.degree): row for t, row in sums.items()}


def sylow2_subgroup(n):
    """An explicit Sylow 2-subgroup of the symmetric group on n points.

    Its order is the full 2-part of n!, 2**(n - popcount(n)). An order above
    DEFAULT_CAP raises EnumerationCapError before anything is built.
    """
    if n < 1:
        raise DomainError("n must be positive")
    order = 1 << (n - n.bit_count())
    if order > DEFAULT_CAP:
        raise EnumerationCapError(
            f"Sylow 2-subgroup of degree {n} has order {order} > cap {DEFAULT_CAP}"
        )
    return Sylow2Subgroup(n)


def restriction_multiplicities(lam, group):
    """Multiplicity of every linear character of the group in the restriction of lam.

    The exact inner products (1/|P|) sum_t chi(t) S_t[mask] for all masks at
    once, where S_t is the group's class-sum row at cycle type t and chi(t)
    the Murnaghan-Nakayama value. Returns (values-on-generators,
    multiplicity) pairs in mask order.
    """
    if lam.n != group.degree:
        raise DomainError(f"partition of {lam.n} vs group of degree {group.degree}")
    totals = [0] * (1 << sum(group.blocks))
    for t, row in group.class_sums.items():
        chi = mn_value(lam, t)
        if chi:
            for w, v in enumerate(row):
                totals[w] += chi * v
    out = []
    for mask, total in enumerate(totals):
        if total % group.order:
            raise DomainError(f"nonintegral inner product {total}/{group.order}")
        out.append((group.on_generators(mask), total // group.order))
    return out
