"""Desk-scale permutation groups: Sylow 2-subgroups and restriction oracles.

Permutations are tuples of images on 0-indexed points. Groups are enumerated
by breadth-first closure with a hard cap; exceeding the cap raises, it never
truncates. Linear characters are recovered from the abelianization computed
on the enumerated element set, deliberately independent of the wreath-tower
labeling used by the correspondence modules.
"""

from functools import cached_property

from .errors import DomainError, EnumerationCapError
from .characters import mn_value
from .partitions import Partition, two_adic

__all__ = [
    "PermutationGroup",
    "LinearCharacter",
    "identity_perm",
    "compose",
    "cycle_type",
    "sylow2_subgroup",
    "restriction_multiplicities",
]

DEFAULT_CAP = 200_000


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def cycle_type(p):
    """Cycle type of a permutation as a partition of its degree."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        lengths.append(length)
    return Partition(sorted(lengths, reverse=True))


def _closure(generators, seed, cap):
    els = set(seed)
    frontier = list(els)
    while frontier:
        new = []
        for g in generators:
            for x in frontier:
                y = compose(g, x)
                if y not in els:
                    els.add(y)
                    new.append(y)
                    if len(els) > cap:
                        raise EnumerationCapError(f"element cap {cap} exceeded")
        frontier = new
    return els


class PermutationGroup:
    """A permutation group given by generators, with full desk-scale enumeration."""

    def __init__(self, degree, generators, cap=DEFAULT_CAP):
        self.degree = degree
        self.cap = cap
        gens = []
        for g in generators:
            g = tuple(g)
            if sorted(g) != list(range(degree)):
                raise DomainError(f"not a permutation of {degree} points: {g}")
            gens.append(g)
        self.generators = tuple(gens)

    @cached_property
    def elements(self):
        seed = {identity_perm(self.degree)} | set(self.generators)
        return frozenset(_closure(self.generators, seed, self.cap))

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, p):
        return tuple(p) in self.elements

    @cached_property
    def _derived_elements(self):
        """Derived subgroup: closure of the normal closure of generator commutators."""
        gens = self.generators
        comms = set()
        for a in gens:
            ia = inverse(a)
            for b in gens:
                comms.add(compose(compose(ia, inverse(b)), compose(a, b)))
        comms.discard(identity_perm(self.degree))
        # normal closure under generator conjugation
        frontier = list(comms)
        while frontier:
            new = []
            for g in gens:
                ig = inverse(g)
                for c in frontier:
                    d = compose(compose(g, c), ig)
                    if d not in comms:
                        comms.add(d)
                        new.append(d)
            frontier = new
        seed = comms | {identity_perm(self.degree)}
        return frozenset(_closure(sorted(seed), seed, self.cap))

    @cached_property
    def _abelianization(self):
        """Coset map and F2 coordinates of the elementary-abelian-2 quotient."""
        der = self._derived_elements
        coset_of = {}
        reps = []
        for x in sorted(self.elements):
            if x in coset_of:
                continue
            rep = min(compose(x, d) for d in der)
            for d in der:
                coset_of[compose(x, d)] = rep
            if rep not in reps:
                reps.append(rep)
        ident = coset_of[identity_perm(self.degree)]
        for rep in reps:
            if coset_of[compose(rep, rep)] != ident:
                raise DomainError("abelianization is not elementary abelian of exponent 2")
        # grow an F2 basis and coordinatize every coset along the way
        coords = {ident: 0}
        dim = 0
        for rep in sorted(reps):
            if rep in coords:
                continue
            bit = 1 << dim
            dim += 1
            for known, vec in list(coords.items()):
                coords[coset_of[compose(known, rep)]] = vec | bit
        assert len(coords) == len(reps) == 1 << dim
        return coset_of, coords, dim

    def abelianization_order(self):
        return len(self._abelianization[1])

    @cached_property
    def _class_histogram(self):
        """Element counts by cycle type and abelianization coordinate.

        Maps each cycle type t to a list whose entry v counts the elements of
        type t in the coset with F2 coordinate vector v. Built once per group.
        """
        coset_of, coords, dim = self._abelianization
        counts = {}
        for h in self.elements:
            t = cycle_type(h)
            row = counts.get(t)
            if row is None:
                row = counts[t] = [0] * (1 << dim)
            row[coords[coset_of[h]]] += 1
        return counts

    def linear_characters(self):
        """All homomorphisms to {+1, -1}, via the enumerated abelianization."""
        _, _, dim = self._abelianization
        return [LinearCharacter(self, mask) for mask in range(1 << dim)]


class LinearCharacter:
    """A +-1 valued character of an enumerated 2-group quotient."""

    def __init__(self, group, mask):
        self.group = group
        self.mask = mask

    def value(self, p):
        coset_of, coords, _ = self.group._abelianization
        vec = coords[coset_of[tuple(p)]]
        return -1 if (self.mask & vec).bit_count() % 2 else 1

    @cached_property
    def on_generators(self):
        """Values on the group's generator list; determines the character."""
        return tuple(self.value(g) for g in self.group.generators)

    def __repr__(self):
        return f"LinearCharacter{self.on_generators}"


def _tower_generators(exponent, offset):
    """Level generators of the iterated wreath tower on 2**exponent points.

    Level j swaps the two halves of every aligned block of size 2**j; together
    with its conjugates this generates the full Sylow 2-subgroup of the
    symmetric group on the block.
    """
    gens = []
    size = 1 << exponent
    for j in range(1, exponent + 1):
        half = 1 << (j - 1)
        images = list(range(size))
        for i in range(half):
            images[i], images[i + half] = images[i + half], images[i]
        gens.append((offset, size, tuple(images)))
    return gens


def _embed(degree, offset, size, local):
    images = list(range(degree))
    for i in range(size):
        images[offset + i] = offset + local[i]
    return tuple(images)


def sylow2_subgroup(n, cap=DEFAULT_CAP):
    """An explicit Sylow 2-subgroup of the symmetric group on n points.

    One iterated-wreath tower per 2-adic block of n, blocks laid out
    consecutively in decreasing size; the order is the full 2-part of n!,
    2**(n - popcount(n)). An order above cap raises EnumerationCapError here,
    before any closure is enumerated.
    """
    if n < 1:
        raise DomainError("n must be positive")
    order = 1 << (n - n.bit_count())
    if order > cap:
        raise EnumerationCapError(f"Sylow 2-subgroup of degree {n} has order {order} > cap {cap}")
    gens = []
    offset = 0
    for e in two_adic(n):
        for off, size, local in _tower_generators(e, offset):
            gens.append(_embed(n, off, size, local))
        offset += 1 << e
    return PermutationGroup(n, gens, cap=cap)


def restriction_multiplicities(lam, group):
    """Multiplicity of every linear character in the restriction of lam.

    Every linear character phi_mask factors through the elementary-abelian
    abelianization F2^dim, so the exact inner products
    (1/|H|) sum_h chi(h) phi_mask(h) for all masks at once are one integer
    Walsh-Hadamard transform of f[v] = sum_t chi(t) count[t][v], where
    count is the group's cached class histogram (cycle type by coset vector)
    and chi(t) the Murnaghan-Nakayama value. Returns (values-on-generators,
    multiplicity) pairs in mask order.
    """
    if lam.n != group.degree:
        raise DomainError(f"partition of {lam.n} vs group of degree {group.degree}")
    order = group.order
    f = [0] * group.abelianization_order()
    for t, row in group._class_histogram.items():
        chi = mn_value(lam, t)
        if chi:
            for v, count in enumerate(row):
                f[v] += chi * count
    half = 1
    while half < len(f):
        for start in range(0, len(f), 2 * half):
            for i in range(start, start + half):
                a, b = f[i], f[i + half]
                f[i], f[i + half] = a + b, a - b
        half *= 2
    out = []
    for phi, total in zip(group.linear_characters(), f):
        if total % order:
            raise DomainError(f"nonintegral inner product {total}/{order}")
        out.append((phi.on_generators, total // order))
    return out
