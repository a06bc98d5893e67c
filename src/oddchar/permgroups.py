"""Desk-scale permutation groups: Sylow 2-subgroups and restriction oracles.

Permutations are tuples of images on 0-indexed points. A group is enumerated
by one breadth-first closure from the identity with a hard cap; exceeding the
cap raises, it never truncates. The closure records each element's F2 word
vector over the generators, and every Cayley edge that closes a cycle adds a
relation. Word vectors modulo the relation span are coordinates on
G / G^2 [G, G], the quotient every +-1 character factors through, so linear
characters need no derived subgroup. All of this is deliberately independent
of the wreath-tower labeling used by the correspondence modules.
"""

from functools import cached_property

from .errors import DEFAULT_CAP, DomainError, EnumerationCapError
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


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


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
    def _words(self):
        """One breadth-first closure from the identity.

        Returns (word, relations). word maps each element to its F2 word
        vector: bit i is the parity of generator i on the element's closure
        path. Each Cayley edge y = g_i x that reaches a known y adds the
        relation word[x] ^ (1 << i) ^ word[y]; relations is their span.
        """
        ident = identity_perm(self.degree)
        word = {ident: 0}
        relations = {0}
        frontier = [ident]
        while frontier:
            new = []
            for i, g in enumerate(self.generators):
                bit = 1 << i
                for x in frontier:
                    y = compose(g, x)
                    w = word[x] ^ bit
                    known = word.get(y)
                    if known is None:
                        word[y] = w
                        new.append(y)
                        if len(word) > self.cap:
                            raise EnumerationCapError(f"element cap {self.cap} exceeded")
                    elif known ^ w not in relations:
                        relations |= {r ^ known ^ w for r in relations}
            frontier = new
        return word, relations

    @cached_property
    def elements(self):
        return frozenset(self._words[0])

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, p):
        return tuple(p) in self.elements

    @cached_property
    def _quotient(self):
        """F2 coordinates on G / G^2 [G, G], the quotient every +-1 character factors through.

        Returns (coord, dim): coord maps each word vector to its coordinate in
        F2^dim; word vectors that differ by a relation share one. The basis is
        grown greedily from the sorted coset minima, which fixes the mask
        order of linear_characters().
        """
        word, relations = self._words
        canon = {w: min(w ^ r for r in relations) for w in set(word.values())}
        least = {}
        for x, w in word.items():
            c = canon[w]
            if c not in least or x < least[c]:
                least[c] = x
        coords = {0: 0}
        dim = 0
        for x in sorted(least.values()):
            c = canon[word[x]]
            if c in coords:
                continue
            bit = 1 << dim
            dim += 1
            for known, vec in list(coords.items()):
                coords[min(known ^ c ^ r for r in relations)] = vec | bit
        return {w: coords[c] for w, c in canon.items()}, dim

    def abelianization_order(self):
        """Order of G / G^2 [G, G]; the abelianization for these Sylow 2-subgroups."""
        return 1 << self._quotient[1]

    @cached_property
    def _class_histogram(self):
        """Element counts by cycle type and quotient coordinate.

        Maps each cycle type t to a list whose entry v counts the elements of
        type t with F2 coordinate vector v. Built once per group.
        """
        word, _ = self._words
        coord, dim = self._quotient
        counts = {}
        for h, w in word.items():
            t = cycle_type(h)
            row = counts.get(t)
            if row is None:
                row = counts[t] = [0] * (1 << dim)
            row[coord[w]] += 1
        return counts

    def linear_characters(self):
        """All homomorphisms to {+1, -1}, in mask order over the quotient coordinates."""
        return [LinearCharacter(self, mask) for mask in range(1 << self._quotient[1])]


class LinearCharacter:
    """A +-1 valued character of an enumerated 2-group quotient."""

    def __init__(self, group, mask):
        self.group = group
        self.mask = mask

    def value(self, p):
        coord, _ = self.group._quotient
        vec = coord[self.group._words[0][tuple(p)]]
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

    Every linear character phi_mask factors through the quotient
    G / G^2 [G, G] = F2^dim, so the exact inner products
    (1/|H|) sum_h chi(h) phi_mask(h) for all masks at once are one integer
    Walsh-Hadamard transform of f[v] = sum_t chi(t) count[t][v], where
    count is the group's cached class histogram (cycle type by quotient
    coordinate) and chi(t) the Murnaghan-Nakayama value. Returns
    (values-on-generators, multiplicity) pairs in mask order.
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
