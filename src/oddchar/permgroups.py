"""Sylow 2-subgroups of symmetric groups and their restriction oracle.

A Sylow 2-subgroup P of S_n is one iterated wreath tower per 2-adic block of
n, with P_1 = 1 and P_{2m} = P_m wr C_2. A linear character of P is one sign
per tower level, so nothing is enumerated: a recursion over the towers sums
every linear character over the elements of each cycle type, and the
restriction multiplicities are exact inner products of those sums with the
Murnaghan-Nakayama values.

The inner products for all linear characters come from one big-integer sum.
Each cycle type's row of class sums is packed into one int, one k-bit slot per
character, and the slots of sum_t chi(t) * row_t are read back, signed,
lowest first. A slot holds at most |P| chi(1) <= |P| isqrt(n!) in absolute
value, so k = bitlen(|P| isqrt(n!)) + 1 is fixed per group and fits every
character; the remainder left above the last slot must be 0, and is checked.

The values chi(t) are one Murnaghan-Nakayama row, characters._mn(lam.parts,
types), over the group's cycle types held as parts tuples in descending
order, so the types that share a first part share one rim-hook listing.

Only the group structure and the MN rule enter; the oracle is deliberately
independent of the wreath-tower labelling used by the correspondence modules
(alpha_sn, hook_to_bits, the Gray code).

The labels meet the group only through its generators. The sharp-oracle
sweep walks each generator once (sym._tower_parities: per block and tower
level, the parity of the pairs it reverses) and reads every label's values
off those walks (SylowLinearLabel._signs: -1 to the sum of bit * parity).
"""

import math
from functools import cache, cached_property
from operator import mul

from . import _HOMES
from .errors import DEFAULT_CAP, DomainError, EnumerationCapError, TheoremViolationError
from .characters import _mn
from .partitions import Partition, _as_ints, two_adic

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

    @cached_property
    def _mask_values(self):
        """The values of phi_mask on the generator list, by mask."""
        return tuple(
            tuple(-1 if mask >> b & 1 else 1 for b in self._mask_bits)
            for mask in range(1 << len(self._mask_bits))
        )

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

    @cached_property
    def _packed_sums(self):
        """(k, cycle types, rows): class_sums with row S_t packed as sum_w S_t[w] * 2**(k*w).

        The cycle types are parts tuples in descending order, the order the
        MN row kernel groups them in.

        Slot w of sum_t chi(t) * row_t is sum_x chi(x) phi_w(x) over the group,
        at most |P| chi(1) <= |P| isqrt(n!) in absolute value, as the squared
        degrees sum to n!; k - 1 bits hold that and the top bit the sign.
        """
        k = (self.order * math.isqrt(math.factorial(self.degree))).bit_length() + 1
        packed = [
            (t.parts, sum(v << k * w for w, v in enumerate(row)))
            for t, row in self.class_sums.items()
        ]
        types, rows = zip(*sorted(packed, reverse=True))
        return k, types, rows


def sylow2_subgroup(n):
    """An explicit Sylow 2-subgroup of the symmetric group on n points.

    Its order is the full 2-part of n!, 2**(n - popcount(n)). An order above
    DEFAULT_CAP raises EnumerationCapError before anything is built or looked
    up. Each degree's group is built once per process and shared: callers
    read it and never change it.
    """
    (n,) = _as_ints("n", n)  # n is also the cache key: an int, never True or 8.0
    if n < 1:
        raise DomainError("n must be positive")
    order = 1 << (n - n.bit_count())
    if order > DEFAULT_CAP:
        raise EnumerationCapError(
            f"Sylow 2-subgroup of degree {n} has order {order} > cap {DEFAULT_CAP}"
        )
    return _sylow2_subgroup(n)


@cache
def _sylow2_subgroup(n):
    return Sylow2Subgroup(n)


def restriction_multiplicities(lam, group):
    """Multiplicity of every linear character of the group in the restriction of lam.

    The exact inner products (1/|P|) sum_t chi(t) S_t[mask] for all masks at
    once, where S_t is the group's class-sum row at cycle type t and chi(t)
    the Murnaghan-Nakayama value: one sum of chi(t) times the packed rows,
    read back one signed k-bit slot per mask, lowest first. Returns
    (values-on-generators, multiplicity) pairs in mask order.
    """
    if lam.n != group.degree:
        raise DomainError(f"partition of {lam.n} vs group of degree {group.degree}")
    k, types, rows = group._packed_sums
    total = sum(map(mul, _mn(lam.parts, types), rows))
    low, half, order = (1 << k) - 1, 1 << (k - 1), group.order
    out = []
    for values in group._mask_values:
        slot = total & low
        total >>= k
        if slot >= half:  # a negative slot borrowed one from the slots above
            slot -= 1 << k
            total += 1
        if slot % order:
            raise DomainError(f"nonintegral inner product {slot}/{order}")
        out.append((values, slot // order))
    if total:
        raise TheoremViolationError(f"inner products overflow their {k}-bit slots")
    return out
