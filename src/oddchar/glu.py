"""Label algebra for odd-degree characters of general linear and unitary groups.

A character label is a multiset of (semisimple residue, partition) pairs with
pairwise distinct residues modulo q - kappa*1; residues are exponents of a
fixed generator of the cyclic group of that order. An odd label of rank n
gives each binary digit of n a residue, and each residue an odd partition of
the sum of its digits. Degree parity is read off the symmetric-group side.
"""

from collections import namedtuple
from functools import cache, lru_cache
from itertools import product

from . import _HOMES
from .errors import DEFAULT_CAP, DomainError, EnumerationCapError, TheoremViolationError
from .partitions import HookPartition, Partition, Value, _as_ints, _as_tuple, nu2, two_adic
from .sym import _hook_census, _strip, star_sn

__all__ = _HOMES["glu"]


# modulus: q - kappa*1, the order of the residue group; p: the characteristic, q a power of p
KappaQ = namedtuple("KappaQ", ("modulus", "p"))


# Miller-Rabin with the first 13 primes as bases is exact below this bound,
# psi_13 (Sorenson and Webster, 2015); larger q are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
Q_LIMIT = 3317044064679887385961981
_PRIME_EXPONENTS = tuple(
    k for k in range(2, Q_LIMIT.bit_length()) if all(k % d for d in range(2, k))
)


def _iroot(q, k):
    """The integer k-th root floor(q ** (1/k)) of q >= 1, exactly, by Newton's method."""
    x = 1 << -(-q.bit_length() // k)  # 2**ceil(bits/k) exceeds the root
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_prime(p):
    """Deterministic Miller-Rabin for 1 <= p < Q_LIMIT."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _prime_base(q):
    """The prime p with q a power of p, or None; requires 1 <= q < Q_LIMIT.

    An exact power q = r**k with k prime reduces to r; a q that is no
    perfect power is a prime power exactly when it is prime.
    """
    for k in _PRIME_EXPONENTS:
        if 1 << k > q:
            break
        r = _iroot(q, k)
        if r**k == q:
            return _prime_base(r)
    return q if _is_prime(q) else None


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 must not hit the entry of 3
def kappa_q(kappa, q):
    """The validated data of the family (kappa, q); the one home of its modulus.

    Raises DomainError unless kappa is '+' (linear) or '-' (unitary) and q is
    an integer power of an odd prime below Q_LIMIT (about 3.3e24), where the
    prime-power test is exact.
    """
    if kappa not in ("+", "-"):
        raise DomainError(f"kappa must be '+' or '-', got {kappa!r}")
    (q,) = _as_ints("q", q)
    if q >= Q_LIMIT:
        raise DomainError(f"q={q} is too large: prime powers are tested only below {Q_LIMIT}")
    p = _prime_base(q) if q >= 3 and q % 2 else None
    if p is None:
        raise DomainError(f"q={q} is not an odd prime power")
    return KappaQ(q - 1 if kappa == "+" else q + 1, p)


class GLabel(Value):
    """Dipper-James style label: kappa, q and (residue, partition) pairs.

    kappa is '+' for the linear and '-' for the unitary family; residues live
    modulo q - 1 resp. q + 1 and must be pairwise distinct. Pairs are kept
    sorted by (residue) for a canonical hashable form.
    """

    __slots__ = ("kappa", "q", "pairs")  # pairs: (residue, Partition) tuples

    def _validate(self):
        mod = kappa_q(self.kappa, self.q).modulus
        pairs = [_as_tuple("pair", pair, 2) for pair in _as_tuple("pairs", self.pairs)]
        if not pairs:
            raise DomainError("a label needs at least one pair")
        residues, lams = zip(*pairs)
        residues = _as_ints("residues", *residues)
        if any(not 0 <= s < mod for s in residues):
            raise DomainError(f"residues must lie in [0, {mod})")
        if len(set(residues)) != len(residues):
            raise DomainError("residues must be pairwise distinct")
        if any(lam.n == 0 for lam in lams):
            raise DomainError("empty partitions are not allowed in labels")
        object.__setattr__(self, "pairs", tuple(sorted(zip(residues, lams), key=_residue)))

    @property
    def modulus(self):
        return kappa_q(self.kappa, self.q).modulus

    @property
    def n(self):
        return sum(lam.n for _, lam in self.pairs)

    def to_json(self):
        return {
            "kappa": self.kappa,
            "q": self.q,
            "pairs": [{"s": s, "lambda": lam.to_json()} for s, lam in self.pairs],
        }

    @classmethod
    def from_json(cls, data):
        kappa, q, pairs = _as_tuple("label", data, ("kappa", "q", "pairs"))
        pairs = [_as_tuple("pair", p, ("s", "lambda")) for p in _as_tuple("pairs", pairs)]
        return cls(kappa, q, tuple((s, Partition.from_json(lam)) for s, lam in pairs))


def _residue(pair):
    return pair[0]


def _trusted_glabel(kappa, q, pairs):
    """Internal: a GLabel from pairs known to be valid, sorted into canonical form unchecked."""
    return GLabel._trusted(kappa, q, tuple(sorted(pairs, key=_residue)))


class ParabolicCorrespondent(Value):
    """Output of the maximal-parabolic restriction: a line pair plus a rank n-1 label."""

    __slots__ = ("line", "rest")  # line: (residue, Partition((1,))); rest: a GLabel

    def to_json(self):
        return {
            "line": {"s": self.line[0], "lambda": self.line[1].to_json()},
            "rest": self.rest.to_json(),
        }


def is_odd_label(label):
    """True iff every partition is odd and the sizes add without carry (an odd multinomial)."""
    return _odd_layout(tuple([lam.parts for _, lam in label.pairs])) is not None


@cache
def _odd_layout(shape):
    """Per 2-adic block of n, largest first: (size, pair index, HookPartition); None if even.

    The shape is the parts tuples of a label's partitions in pair order; the
    residues never enter, so a shape is stripped once and looked up after. A
    tuple of ints hashes in C, a Partition in Python. Each partition strips
    to one hook per binary digit of its size, or refuses as even; two pairs
    claim one block exactly when their sizes carry (Kummer), which is when
    the multinomial is even. So this is the whole oddness test, and the
    blocks of an odd shape are the 2-adic blocks of n, each owned by one pair.
    """
    owner = {}
    for i, parts in enumerate(shape):
        steps = _strip(parts)
        if steps is None:  # an even partition
            return None
        for _, m, leg in steps:
            if m in owner:  # the sizes carry
                return None
            owner[m] = (m, i, HookPartition._trusted(m, leg))
    return tuple([owner[m] for m in sorted(owner, reverse=True)])


def canonical_order(label):
    """Pairs sorted by strictly increasing 2-part of the partition sizes."""
    if not is_odd_label(label):
        raise DomainError(f"{label} is not an odd label")
    return tuple(sorted(label.pairs, key=lambda p: nu2(p[1].n)))


def parabolic_star(label):
    """Restriction correspondent at the maximal parabolic of the linear group.

    With pairs in canonical order, replaces the first partition by its unique
    odd branch and prepends the line entry (s_1, (1)); the first pair is
    dropped entirely when its partition is (1).
    """
    if label.kappa != "+":
        raise DomainError("the parabolic correspondent is defined for kappa='+' only")
    if label.n < 2:
        raise DomainError("need rank n >= 2")
    ordered = canonical_order(label)
    s1, lam1 = ordered[0]
    if lam1.n == 1:
        rest_pairs = ordered[1:]
    else:
        rest_pairs = ((s1, star_sn(lam1)),) + ordered[1:]
    return ParabolicCorrespondent((s1, Partition((1,))), GLabel(label.kappa, label.q, rest_pairs))


def odd_label_count(n, q, kappa):
    """Closed-form number of odd labels of rank n.

    modulus^r * 2^(sum e) over the r binary digits 2^e of n: a residue per digit
    and an odd partition per residue. The normalizer coordinates number the same.
    """
    if n < 1:
        raise DomainError("n must be positive")
    exps = two_adic(n)
    return kappa_q(kappa, q).modulus ** len(exps) << sum(exps)


def real_label_count(n, q, kappa):
    """Closed-form number of real odd labels of rank n (Corollary F).

    2^(sum e + r) over the r binary digits 2^e of n, for every valid (kappa, q).
    """
    if n < 1:
        raise DomainError("n must be positive")
    kappa_q(kappa, q)  # validates the family; the count does not depend on it
    exps = two_adic(n)
    return 1 << (sum(exps) + len(exps))


def check_label_count(n, q, kappa):
    """Raise before a rank-n enumeration of odd labels or normalizer coordinates passes the cap."""
    count = odd_label_count(n, q, kappa)
    if count > DEFAULT_CAP:
        raise EnumerationCapError(f"{count} labels of rank {n} > cap {DEFAULT_CAP}")


def enumerate_odd_labels(n, q, kappa):
    """All odd labels of rank n: a residue per binary digit, an odd partition per residue.

    The partitions are sym._hook_census's: built, never tested for oddness, in hook-tuple order.
    """
    check_label_count(n, q, kappa)
    mod = kappa_q(kappa, q).modulus
    digits = [1 << e for e in two_adic(n)]
    out = []
    # a residue's size is the sum of its digits; in residue order the pairs are canonical
    for residues in product(range(mod), repeat=len(digits)):
        sizes = {}
        for s, digit in zip(residues, digits):
            sizes[s] = sizes.get(s, 0) + digit
        levels = [[(s, lam) for lam in _hook_census(sizes[s])] for s in sorted(sizes)]
        out.extend(GLabel._trusted(kappa, q, pairs) for pairs in product(*levels))
    return out


def count_odd_irr_gl(n, q, kappa):
    """Census of odd labels by enumeration; every label is re-checked through the bead strip."""
    labels = enumerate_odd_labels(n, q, kappa)
    if len(set(labels)) != len(labels):  # the set is freed before the oddness pass
        raise TheoremViolationError("label enumeration produced duplicates")
    for label in labels:
        if not is_odd_label(label):
            raise TheoremViolationError(f"enumerated label is not odd: {label}")
    return len(labels)


def sl_label_census(n, q):
    """Number of odd SL labels at odd rank: orbits of simultaneous residue translation."""
    if n % 2 == 0:
        raise DomainError("need odd rank n")
    labels = enumerate_odd_labels(n, q, "+")
    mod = kappa_q("+", q).modulus
    seen = set()
    orbits = 0
    for label in labels:
        if label in seen:
            continue
        orbits += 1
        for c in range(mod):
            seen.add(_trusted_glabel("+", q, [((s + c) % mod, lam) for s, lam in label.pairs]))
    return orbits
