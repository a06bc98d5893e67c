"""Brute-force character oracles for symmetric groups.

Exact arbitrary-precision arithmetic throughout: hook-length degrees,
Murnaghan-Nakayama values, branching and Littlewood-Richardson coefficients.
These are the independent checks against which every correspondence is
validated, so none of them may share code paths with the maps they test.

The parity oracle is_odd_partition reads the hook-length formula 2-adically.
With the first-column hook lengths b_1 > ... > b_l of lam, row i holds the
hook lengths {1, ..., b_i} minus {b_i - b_k : k > i}, so

    nu2(f^lam) = nu2(n!) - sum_i nu2(b_i!) + sum_{i<k} nu2(b_i - b_k),

with nu2(b!) = b - popcount(b), nu2 being the 2-adic valuation here and
the 2-part in partitions.nu2. The oracle never forms the degree itself.

Each valuation is kept in _nu2_degree, keyed on parts, and one short step
from a known tail decides a partition. Write lam itself as (h,) + tau with
l rows and |tau| = m = n - h. Its b_1 is h + l - 1 and the other b_i are
the first-column hook lengths of tau, so

    nu2(f^lam) = nu2(f^tau) + nu2(n!) - nu2(m!) - nu2((h + l - 1)!)
                 + nu2(prod_{i=1}^{l-1} (h + i - tau_i)).

The step is taken when tau is already in _nu2_degree and lam has at most
256 rows. Otherwise the closed form above is used, on the shorter of lam and
its conjugate, which have the same degree; so the step never walks a chain
of tails, and only the closed form conjugates. The product has about
l log(h + l) bits, so the step costs O(l^2): on a column of 20000 rows it
took about 0.1 s, and the closed form on its one-row conjugate under 1 ms.
The census odd_partitions(n) decides every partition of n, so a census
filled for ascending n takes the step on all of them.

The oracle computes its own b_i and calls no rim-hook code. Only verify and
the tests call it: sym's bead strip and the hook attachment move their own b_i.

Character values come from the Murnaghan-Nakayama rule, one row at a time:
_mn(lam_parts, types) is the tuple of values of chi^lam at each cycle type
in types, a tuple of descending parts tuples of size |lam|. It lists the rim
m-hooks of lam once for each run of types with first part m, and recurses
once per hook on the run's tuple of rests, so sibling types share the
listing and one memo entry. Types in descending order make one run per
first part; mn_value is the row of the single type mu. Its rim hooks come
from partitions._rim_hooks, which no map under test calls.
"""

import math
from functools import cache
from itertools import groupby
from operator import add, itemgetter, lt, sub

from . import _HOMES
from .errors import DomainError
from .partitions import Partition, _partition_tuples, _rim_hooks, conjugate_parts

__all__ = _HOMES["characters"]

@cache
def _degree(parts):
    conj = conjugate_parts(parts)
    hooks = (p - j + conj[j] - i - 1 for i, p in enumerate(parts) for j in range(p))
    return math.factorial(sum(parts)) // math.prod(hooks)


def degree(lam):
    """Degree of the irreducible character of the symmetric group labeled by lam."""
    return _degree(lam.parts)


# nu2(f^lam) of every partition tuple the parity oracle has decided. A plain
# dict: the first-row step asks whether a tail is known without computing it.
_nu2_degree = {}


def _two_adic_degree(parts, n):
    """nu2(f^lam) for the partition tuple parts of n; see the module docstring."""
    nu = _nu2_degree.get(parts)
    if nu is not None:
        return nu
    length = len(parts)
    if length <= 256:  # the step costs O(l^2); see the module docstring
        tail = parts[1:]
        nu = _nu2_degree.get(tail)
    if nu is not None:
        # the first-row step: parts = (h,) + tail, with l rows and |tail| = n - h
        h = parts[0]
        m, b = n - h, h + length - 1
        gaps = math.prod(map(sub, range(h + 1, h + length), tail))
        nu += n - n.bit_count() - (m - m.bit_count()) - (b - b.bit_count())
        nu += (gaps & -gaps).bit_length() - 1
    else:
        shape = conjugate_parts(parts) if parts and parts[0] < length else parts
        length = len(shape)
        beta = [p + length - i for i, p in enumerate(shape, 1)]
        nu = n - n.bit_count() - sum([b - b.bit_count() for b in beta])
        # sum_{i<k} nu2(b_i - b_k) counts, for each j >= 1, the pairs that
        # agree mod 2^j: split the b_i on one more low bit per round
        groups = [beta]
        while groups:
            halves = [[b >> 1 for b in g if b & 1 == bit] for g in groups for bit in (0, 1)]
            groups = [half for half in halves if len(half) > 1]
            nu += sum([len(half) * (len(half) - 1) // 2 for half in groups])
    _nu2_degree[parts] = nu
    return nu


def is_odd_partition(lam):
    """True iff degree(lam) is odd, from the 2-adic hook-length formula."""
    return _two_adic_degree(lam.parts, lam.n) == 0


@cache
def _odd_census(n):
    make = Partition._trusted
    return tuple(make(t, n) for t in _partition_tuples(n) if _two_adic_degree(t, n) == 0)


def odd_partitions(n):
    """Census of odd partitions of n by the degree-parity oracle, in listing order."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    return list(_odd_census(n))


@cache
def _mn(lam_parts, types):
    """Values of chi^lam at each cycle type in types, in that order; see the module docstring."""
    if not lam_parts:
        return (1,) * len(types)
    row = []
    for m, run in groupby(types, itemgetter(0)):
        rests = tuple([t[1:] for t in run])
        total = (0,) * len(rests)
        for leg, remainder in _rim_hooks(lam_parts, m):
            total = tuple(map(sub if leg & 1 else add, total, _mn(remainder, rests)))
        row += total
    return tuple(row)


def mn_value(lam, mu):
    """Character value at the class of cycle type mu, by rim-hook recursion."""
    if lam.n != mu.n:
        raise DomainError(f"sizes differ: {lam.n} vs {mu.n}")
    return _mn(lam.parts, (mu.parts,))[0]


def branch_restrict(lam):
    """All partitions obtained from lam by removing one removable cell."""
    if lam.n < 1:
        raise DomainError("need a partition of n >= 1")
    out = []
    parts, n = lam.parts, lam.n - 1
    for i in range(len(parts) - 1, -1, -1):
        p = parts[i]
        if i + 1 == len(parts) or parts[i + 1] < p:
            row = (p - 1,) if p > 1 else ()  # only the last row can empty; it is dropped
            out.append(Partition._trusted(parts[:i] + row + parts[i + 1 :], n))
    return out


def class_size(mu):
    """Size of the conjugacy class of cycle type mu in the symmetric group."""
    n = mu.n
    size = math.factorial(n)
    for length in set(mu.parts):
        count = mu.parts.count(length)
        size //= length**count * math.factorial(count)
    return size


def lr_coefficient(alpha, beta, gamma):
    """Littlewood-Richardson coefficient c^gamma_{alpha,beta}.

    Counts semistandard skew tableaux of shape gamma/alpha and content beta
    whose reverse reading word is a lattice word. Returns 0 when the sizes or
    diagrams are incompatible.
    """
    outer, inner = gamma.parts, alpha.parts
    if alpha.n + beta.n != gamma.n or len(inner) > len(outer) or any(map(lt, outer, inner)):
        return 0
    # The cells of gamma/alpha in reverse reading order (rows downward, each
    # right to left), as the positions of their right and upper neighbours;
    # -1 (none) reads the last slot of value, which stays 0. Cell (r - 1, c)
    # is at above - c, and none is above row 1.
    right, up = [], []
    above, low = 0, gamma.n
    for width, row_low in zip(outer, inner + (0,) * len(outer)):
        cut, low = low, row_low
        for c in range(width, low, -1):
            right.append(len(right) - 1 if c < width else -1)
            up.append(above - c if c > cut else -1)
        above = len(right) + low
    counts = [len(right)] + [0] * len(beta.parts)  # counts[0] lets v = 1 pass
    return _lr_fillings(0, right, up, [0] * (len(right) + 1), counts, (0,) + beta.parts)


def _lr_fillings(pos, right, up, value, counts, cap):
    """Lattice fillings of the cells from pos on, given those before."""
    if pos == len(right):
        return 1
    total = 0
    # a column strictly increases downward, a row weakly to the right
    for v in range(value[up[pos]] + 1, (value[right[pos]] or len(cap) - 1) + 1):
        if counts[v] < cap[v] and counts[v] < counts[v - 1]:
            counts[v] += 1
            value[pos] = v
            total += _lr_fillings(pos + 1, right, up, value, counts, cap)
            counts[v] -= 1
    return total
