"""Partitions, hooks, rim hooks and 2-adic arithmetic.

Everything here is exact integer combinatorics on immutable values; all
functions are pure and safe to call from parallel sweeps.
"""

import math
from bisect import bisect_left
from functools import cache, reduce
from operator import index, or_

from . import _HOMES
from .errors import DEFAULT_CAP, DomainError, EnumerationCapError, TheoremViolationError

__all__ = _HOMES["partitions"]


class Value:
    """Base of the immutable values: partitions, hooks and labels.

    A subclass names its fields in __slots__, in positional order, and checks
    them in _validate. An instance equals only instances of its own class,
    hashes its field tuple, prints as Name(field=value, ...) and pickles and
    copies through _trusted.

    The internal classmethod _trusted(cls, *fields) builds an instance
    unchecked, for builders whose output is valid by construction; a wrong
    number of fields raises TypeError. Values are validated where they enter:
    public constructors, from_json and the CLI parser keep every check.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__slots__
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
        # _trusted, __eq__ and __hash__ are compiled per class in one exec: a
        # generic loop over the setters or getattr took about twice as long.
        scope = {"new": object.__new__}
        scope.update((f"set_{name}", setter) for name, setter in zip(fields, cls._setters))
        source = (
            f"def _trusted(cls, {', '.join(fields)}):\n"
            "    self = new(cls)\n"
            + "".join(f"    set_{name}(self, {name})\n" for name in fields)
            + "    return self\n"
        )
        own_equality = "__eq__" in cls.__dict__  # Partition compares its parts alone
        if not own_equality:
            mine = "".join(f"self.{name}, " for name in fields)
            theirs = mine.replace("self.", "other.")
            source += (
                "def __eq__(self, other):\n"
                "    if other.__class__ is not self.__class__: return NotImplemented\n"
                f"    return ({mine}) == ({theirs})\n"
                f"def __hash__(self): return hash(({mine}))\n"
            )
        exec(source, scope)
        cls._trusted = classmethod(scope["_trusted"])
        if not own_equality:
            cls.__eq__, cls.__hash__ = scope["__eq__"], scope["__hash__"]

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self._setters)} values")
        for setter, value in zip(self._setters, values):
            setter(self, value)
        self._validate()

    def _validate(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self._trusted, tuple(getattr(self, name) for name in self.__slots__)


def _as_ints(what, *values):
    """The values as ints through operator.index; DomainError for floats, strings and the like."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise DomainError(f"non-integer {what} in {values}") from None


def _as_tuple(what, value, shape=None):
    """The field value as a tuple; DomainError, not TypeError, where it is none.

    shape is None for any length, a count of entries, or the keys of a mapping
    (a JSON object) whose entries are read in that order.
    """
    keys = shape if shape.__class__ is tuple else ()
    try:
        items = tuple([value[key] for key in keys]) if keys else tuple(value)
    except (TypeError, LookupError):
        wanted = f"a mapping with keys {keys}" if keys else "a sequence"
        raise DomainError(f"{what} must be {wanted}, got {type(value).__name__}") from None
    if shape.__class__ is int and len(items) != shape:
        raise DomainError(f"{what} must have {shape} entries, got {len(items)}")
    return items


class Partition(Value):
    """A weakly decreasing tuple of positive integers; () is the partition of 0.

    Its fields are parts and their sum n; equality and hash read parts alone.
    """

    __slots__ = ("parts", "n")

    def __init__(self, parts=()):
        parts = _as_ints("parts", *_as_tuple("parts", parts))
        for i, p in enumerate(parts):
            if p < 1:
                raise DomainError(f"parts must be positive, got {parts}")
            if i and parts[i - 1] < p:
                raise DomainError(f"parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", sum(parts))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def row(self, i):
        """Length of row i (1-indexed), 0 beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self):
        return Partition._trusted(conjugate_parts(self.parts), self.n)

    def contains(self, other):
        """Containment of Young diagrams."""
        return all(self.row(i + 1) >= p for i, p in enumerate(other.parts))

    def is_hook(self):
        return self.n == 0 or len(self.parts) == 1 or self.parts[1] == 1

    def to_json(self):
        return list(self.parts)

    @classmethod
    def from_json(cls, data):
        return cls(data)


def conjugate_parts(parts):
    """The column lengths of the diagram whose row lengths are the partition tuple parts."""
    cols = []
    rows = len(parts)  # column j has one cell per part of size >= j
    for j in range(1, parts[0] + 1 if parts else 1):
        while parts[rows - 1] < j:
            rows -= 1
        cols.append(rows)
    return tuple(cols)


class HookPartition(Value):
    """The hook (m - leg, 1^leg), encoded by total size and leg length."""

    __slots__ = ("m", "leg")

    def _validate(self):
        m, leg = self.m, self.leg
        if m.__class__ is not int or leg.__class__ is not int:  # plain ints, the common case, skip the call
            m, leg = _as_ints("hook size or leg", m, leg)
            object.__setattr__(self, "m", m)
            object.__setattr__(self, "leg", leg)
        if m < 1 or not (0 <= leg <= m - 1):
            raise DomainError(f"need 0 <= leg <= m-1, got m={m}, leg={leg}")

    @property
    def arm_count(self):
        """Number of columns of the hook, i.e. the first part."""
        return self.m - self.leg

    def to_partition(self):
        return Partition._trusted((self.m - self.leg,) + (1,) * self.leg, self.m)

    @classmethod
    def from_partition(cls, p):
        if p.n == 0 or not p.is_hook():
            raise DomainError(f"{p} is not a nonempty hook")
        return cls(p.n, len(p.parts) - 1)

    def to_json(self):
        return {"m": self.m, "leg": self.leg}

    @classmethod
    def from_json(cls, data):
        return cls(*_as_tuple("hook", data, ("m", "leg")))


def two_adic(n):
    """Exponents of the set bits of n, descending; () for n = 0."""
    if n.__class__ is not int:  # plain ints, the common case, skip the call
        (n,) = _as_ints("n", n)
    if n < 0:
        raise DomainError("n must be nonnegative")
    exponents = []
    while n:  # one step per set bit, highest first
        e = n.bit_length() - 1
        exponents.append(e)
        n ^= 1 << e
    return tuple(exponents)


def check_two_adic_layout(sizes):
    """Raise DomainError unless the tuple sizes is strictly decreasing powers of two.

    Those are exactly the 2-adic blocks of sum(sizes), largest first.
    """
    if sizes != tuple(1 << e for e in two_adic(sum(sizes))):
        raise DomainError(f"block sizes {sizes} are not a 2-adic decomposition")


def split_by_digit(entries, sizes):
    """Share out size-led block entries among factors by binary digit.

    Each entry starts with a 2-power block size 2**e, and goes to the member
    of sizes whose binary expansion holds the digit e. The sizes must hold
    pairwise disjoint digits that together are exactly the entries' digits.
    Returns one tuple of entries per member of sizes, in the same order.
    """
    digits = [two_adic(k) for k in sizes]
    owner = {e: idx for idx, ds in enumerate(digits) for e in ds}
    entry_digits = [entry[0].bit_length() - 1 for entry in entries]
    if len(owner) != sum(map(len, digits)) or set(owner) != set(entry_digits):
        raise DomainError(f"sizes {list(sizes)} do not share out the digits of the blocks")
    per_factor = [[] for _ in sizes]
    for e, entry in zip(entry_digits, entries):
        per_factor[owner[e]].append(entry)
    return [tuple(factor) for factor in per_factor]


def nu2(r):
    """The 2-part of r: largest power of 2 dividing r, with nu2(0) = infinity."""
    if r.__class__ is not int:
        (r,) = _as_ints("r", r)
    if r < 0:
        raise DomainError("r must be nonnegative")
    if r == 0:
        return math.inf
    return r & -r


def binom_is_odd(n, a):
    """Parity of C(n, a): odd iff the bits of a are dominated by the bits of n."""
    if n.__class__ is not int or a.__class__ is not int:
        n, a = _as_ints("n or a", n, a)
    if not 0 <= a <= n:
        raise DomainError(f"need 0 <= a <= n, got n={n}, a={a}")
    return (a & n) == a


def odd_multinomial_order(parts):
    """Reorder parts so the 2-parts strictly increase, if the multinomial is odd.

    Returns the unique reordering [a_1, ..., a_m] with
    nu2(sum) = nu2(a_1) < nu2(a_2) < ... when (sum)!/prod(a_i!) is odd,
    and None otherwise.
    """
    parts = list(_as_ints("parts", *parts))
    if not parts or any(a < 1 for a in parts):
        raise DomainError("parts must be a nonempty list of positive integers")
    # odd exactly when adding the parts in binary makes no carry (Kummer)
    if reduce(or_, parts) != sum(parts):
        return None
    return sorted(parts, key=nu2)


def rim_hooks_of_length(lam, m):
    """All removable rim hooks of length m of lam.

    Each diagram cell whose hook length is m yields exactly one rim m-hook;
    returns (hook type, partition after removal) pairs in reading order of
    the corner cells, at most one per row. The hook type HookPartition(m, leg)
    spans leg + 1 rows, and the hook's cells are the skew diagram lam/remainder.
    """
    if m < 1:
        raise DomainError("m must be positive")
    n = lam.n - m
    out = []
    for leg, rest in _rim_hooks(lam.parts, m):
        out.append((HookPartition._trusted(m, leg), Partition._trusted(rest, n)))
    return out


def _rim_hooks(parts, m):
    """Yield (leg, remainder parts) for each rim m-hook of the tuple parts, m >= 1.

    It works on the first-column hook lengths b_i = lam_i + l - i of the l
    rows, which strictly decrease. A rim m-hook has its corner in row i
    exactly when b_i - m >= 0 is not another b_k; its leg is the number of
    b_k strictly between b_i - m and b_i, and removing it replaces b_i by
    b_i - m. One pass over the rows finds them all, in row order.
    """
    length = len(parts)
    if not length or parts[0] + length - 1 < m:
        return  # b_1 is the longest hook: no rim hook is as long as m
    size = sum(parts) - m
    beta = [p + length - i for i, p in enumerate(parts, 1)]
    below = 0  # the first row whose b is at most the current b_i - m
    for i, b in enumerate(beta):
        target = b - m
        if target < 0:
            break  # and so for every later row, as the b_i decrease
        while below < length and beta[below] > target:
            below += 1
        if below < length and beta[below] == target:
            continue
        # the hook spans rows i..below-1 (0-indexed); the last of them is left
        # with b = target, so it keeps target - (length - below) = j - 1 cells
        j = target - length + below + 1
        passed = parts[i + 1 : below]  # each moves up a row, one cell shorter
        if passed:  # empty for a hook in one row, which is common: skip the comprehension
            passed = tuple([p - 1 for p in passed])
        rest = parts[:i] + passed + (j - 1,) + parts[below:]
        if j == 1:  # the hook ends in the first column: drop the emptied rows
            rest = tuple([p for p in rest if p > 0])
        assert sum(rest) == size
        yield below - 1 - i, rest


def _attach_parts(parts, k, h):
    """Lemma 4.2 on tuples: attach a rim hook of k columns and h rows to parts."""
    flip = len(parts) < h and parts and k <= parts[0]
    if flip:
        parts, k, h = conjugate_parts(parts), h, k
    rows = parts + (0,) * h  # rows 2..h of the hook lie right of rows 1..h-1
    gamma = (rows[h - 1] + k, *[p + 1 for p in rows[: h - 1]], *parts[h:])
    return conjugate_parts(gamma) if flip else gamma


def attach_unique_gamma(alpha, beta, n):
    """The unique gamma of n with a removable rim hook of type beta leaving alpha.

    Requires m <= n <= 2m-1 for m = beta.m, which forces the hook corner into
    the first row or first column.
    """
    m = beta.m
    if not m <= n <= 2 * m - 1:
        raise DomainError(f"need m <= n <= 2m-1, got m={m}, n={n}")
    if alpha.n != n - m:
        raise DomainError(f"alpha must have size n-m={n - m}, got {alpha.n}")
    gamma = _attach_parts(alpha.parts, beta.arm_count, beta.leg + 1)
    if sum(gamma) != n:
        raise TheoremViolationError(f"attachment produced wrong size for {alpha}, {beta}")
    return Partition._trusted(gamma, n)


@cache
def _partition_tuples(n):
    if n == 0:
        return ((),)
    out = []
    for head in range(n, 0, -1):
        tails = _partition_tuples(n - head)
        if head < n - head:
            # reverse lexicographic order: the tails with first part <= head are a suffix
            tails = tails[bisect_left(tails, -head, key=lambda t: -t[0]):]
        out.extend((head,) + tail for tail in tails)
    return tuple(out)


def check_partition_count(n):
    """Raise before a listing of the partitions of n passes the cap; p(n) is counted, not listed."""
    counts = [1] + [0] * n  # by part size: counts[k] is p(k) with parts up to the current one
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    if counts[n] > DEFAULT_CAP:
        raise EnumerationCapError(f"{counts[n]} partitions of {n} > cap {DEFAULT_CAP}")


def partitions(n):
    """All partitions of n in reverse lexicographic order."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    make = Partition._trusted  # bound once: the list holds every partition of n
    return [make(t, n) for t in _partition_tuples(n)]
