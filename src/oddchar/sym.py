"""Canonical odd-degree correspondences for symmetric groups.

The star map (unique odd branch), the hook-tuple coordinates of odd
partitions, the linear-character labels of Sylow 2-subgroups, the Young
subgroup correspondence and the wreath-product correspondence for maximal
subgroups of odd index. One bead strip decides oddness for all of them and
for the validators; none of them calls the parity oracle of characters.py.

Linear characters of the iterated wreath tower on 2**m points are encoded by
m bits, one per tower level (bit 0 = pair level). The hook <-> bits rule is
the reflected-Gray-code of the leg length with bit 0 taken from the top Gray
bit; it is pinned against the restriction oracle (see tests), which is the
defining property: the labeled character is the unique linear constituent of
odd multiplicity in the restriction of the hook character.
"""

from functools import cache
from itertools import product
from operator import and_

from . import _HOMES
from .errors import DomainError, TheoremViolationError
from .partitions import (
    HookPartition,
    Partition,
    Value,
    _as_ints,
    _as_tuple,
    _attach_parts,
    check_two_adic_layout,
    odd_multinomial_order,
    split_by_digit,
    two_adic,
)

__all__ = _HOMES["sym"]


class ThetaLabel(Value):
    """One hook per 2-adic block of n, blocks in decreasing size."""

    __slots__ = ("hooks",)

    def _validate(self):
        hooks = _as_tuple("hooks", self.hooks)
        for hook in hooks:
            _check_type(hook, HookPartition)
        check_two_adic_layout(tuple(h.m for h in hooks))
        object.__setattr__(self, "hooks", hooks)

    @property
    def n(self):
        return sum(h.m for h in self.hooks)

    def to_json(self):
        return [h.to_json() for h in self.hooks]

    @classmethod
    def from_json(cls, data):
        return cls(tuple(HookPartition.from_json(h) for h in _as_tuple("hooks", data)))


def _check_type(value, cls):
    """DomainError naming value's type unless it is a cls."""
    if not isinstance(value, cls):
        raise DomainError(f"need a {cls.__name__}, got {type(value).__name__}")


def _tower_parities(perm, sizes):
    """(degree, parities): per block of the given sizes, in order, and per tower
    level ascending, 1 when perm reverses an odd number of that level's pairs.

    Refuses perm unless it keeps each block and maps each pair {2i, 2i + 1} of
    each level onto one, so a repeated entry is refused too.
    """
    perm = _as_ints("permutation entries", *perm)
    parities = []
    offset = 0
    for size in sizes:
        local = [x - offset for x in perm[offset : offset + size]]
        offset += size
        if min(local) < 0 or max(local) >= size:
            raise DomainError("permutation does not preserve the 2-adic blocks")
        while local[1:]:
            firsts = local[::2]
            if any(a ^ b != 1 for a, b in zip(firsts, local[1::2])):
                raise DomainError("permutation does not preserve the pair tower")
            parities.append(sum(firsts) & 1)  # a pair is reversed when its first entry is odd
            local = [a >> 1 for a in firsts]
    return len(perm), parities


class SylowLinearLabel(Value):
    """Per 2-adic block of n, one bit per wreath-tower level (bit 0 = pairs).

    Its value on an element of sylow2_subgroup(n) is -1 to the sum of bit *
    parity over blocks and levels. The parities do not depend on the label:
    _tower_parities finds them in one walk of the element, and _signs reads
    any label's value off that walk.
    """

    __slots__ = ("blocks",)  # blocks: (block size, bits tuple) pairs

    def _validate(self):
        blocks = [_as_tuple("block", block, 2) for block in _as_tuple("blocks", self.blocks)]
        sizes = _as_ints("block sizes", *(size for size, _ in blocks))
        check_two_adic_layout(sizes)
        bits = [_as_ints("bits", *_as_tuple("bits", b)) for _, b in blocks]
        blocks = tuple(zip(sizes, bits))
        for size, bits in blocks:
            if len(bits) != size.bit_length() - 1 or any(b not in (0, 1) for b in bits):
                raise DomainError(f"bad bit vector {bits} for block size {size}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self):
        return sum(size for size, _ in self.blocks)

    def _signs(self, walks):
        """The values on the elements that _tower_parities walked to (degree, parities)."""
        bits = [bit for _, bits in self.blocks for bit in bits]
        want = self.n
        for n, _ in walks:
            if n != want:
                raise DomainError(f"degree mismatch: {n} vs {want}")
        return tuple(-1 if sum(map(and_, bits, p)) & 1 else 1 for _, p in walks)

    def value(self, perm):
        """Evaluate the labeled linear character on an element of sylow2_subgroup(n).

        A perm of another degree is not walked: _signs refuses its (degree, ()).
        """
        walk = (len(perm), ())
        if len(perm) == self.n:
            walk = _tower_parities(perm, [size for size, _ in self.blocks])
        return self._signs([walk])[0]

    def to_json(self):
        return [{"size": size, "bits": list(bits)} for size, bits in self.blocks]

    @classmethod
    def from_json(cls, data):
        blocks = _as_tuple("blocks", data)
        return cls(tuple(_as_tuple("block", b, ("size", "bits")) for b in blocks))


class WreathOddLabel(Value):
    """Odd-degree label of a wreath product S_k wr S_t of odd index.

    base lists the distinct odd partitions of k with their multiplicities t_i,
    which add without carry, in strictly increasing 2-part of t_i; top gives
    one odd partition of each t_i.
    """

    __slots__ = ("k", "t", "base", "top")

    def _validate(self):
        k, t = _as_ints("k or t", self.k, self.t)
        base = [_as_tuple("base entry", entry, 2) for entry in _as_tuple("base", self.base)]
        top = _as_tuple("top", self.top)
        ts = list(_as_ints("multiplicities", *[t_i for _, t_i in base]))
        if sum(ts) != t:
            raise DomainError("multiplicities must sum to t")
        if odd_multinomial_order(ts) != ts:  # they carry, or are out of order
            raise DomainError("multiplicities must add without carry, by increasing 2-part")
        psis = [psi for psi, _ in base]
        for lam in (*psis, *top):
            _check_type(lam, Partition)
        if len(set(psis)) != len(psis):
            raise DomainError("base partitions must be pairwise distinct")
        for psi in psis:
            if psi.n != k or _strip(psi.parts) is None:
                raise DomainError(f"{psi} is not an odd partition of {k}")
        if len(top) != len(base):
            raise DomainError("need one top partition per base entry")
        for alpha, t_i in zip(top, ts):
            if alpha.n != t_i or _strip(alpha.parts) is None:
                raise DomainError(f"{alpha} is not an odd partition of {t_i}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "base", tuple(zip(psis, ts)))
        object.__setattr__(self, "top", top)

    def to_json(self):
        return {
            "k": self.k,
            "t": self.t,
            "base": [{"psi": psi.to_json(), "t": t} for psi, t in self.base],
            "top": [alpha.to_json() for alpha in self.top],
        }


@cache
def _strip(parts):
    """Per 2-power block of n, largest first, the step (b, m, leg) moving bead b to b - m.

    parts is a partition's parts tuple. None exactly on the even partitions, where
    some block has other than one movable bead. Beads are the first-column hook
    lengths, as in partitions._rim_hooks. Cached: every hook map and validator
    shares one tuple of steps per partition, so none may change it.
    """
    length = len(parts)
    beads = [p + length - i for i, p in enumerate(parts, 1)]  # descending
    occupied = set(beads)
    steps = []
    for e in two_adic(sum(parts)):
        m = 1 << e
        found = None
        for i, b in enumerate(beads):  # descending: stop below m or at a second candidate
            if b < m:
                break
            if b - m not in occupied:
                if found is not None:
                    return None
                found = i
        if found is None:
            return None
        i = j = found
        b = beads[i]
        while j + 1 < length and beads[j + 1] > b - m:  # the leg: beads strictly between
            j += 1
        steps.append((b, m, j - i))
        del beads[i]
        beads.insert(j, b - m)  # keeps the list descending
        occupied.remove(b)
        occupied.add(b - m)
    return tuple(steps)


def _odd_steps(lam):
    """The strip of lam; DomainError unless lam is an odd Partition."""
    _check_type(lam, Partition)
    steps = _strip(lam.parts)
    if steps is None:
        raise DomainError(f"{lam} is not an odd partition")
    return steps


def star_sn(lam):
    """The unique odd-degree branch of an odd partition: one bead steps down by one.

    The lowest hook H(2**k, a) keeps its branch of even leg: its top bead steps, or for
    odd a the bead above its foot. The walk carries that bead back up through the strip.
    """
    steps = _odd_steps(lam)  # n = 0 and n = 1 strip, and are refused next
    if lam.n < 2:
        raise DomainError("need n >= 2")
    *higher, (y, m, a) = steps
    if a % 2:
        y -= m - 1
    for b, m, _ in reversed(higher):
        if y == b - m:
            y = b
        elif y == b + 1:
            y -= m
    length = len(lam.parts)
    parts = [p - (p + length - i == y) for i, p in enumerate(lam.parts, 1)]
    return Partition._trusted(tuple(filter(None, parts)), lam.n - 1)  # only the last row can empty


def alpha_sn(lam):
    """Strip the unique rim hook of each 2-power block size, largest first; refuses even lam."""
    steps = _odd_steps(lam)
    return ThetaLabel._trusted(tuple(HookPartition._trusted(m, leg) for _, m, leg in steps))


def alpha_sn_inverse(theta):
    """Reattach hooks from the smallest block upward; inverse of alpha_sn, odd by construction."""
    _check_type(theta, ThetaLabel)
    parts = ()
    for hook in reversed(theta.hooks):
        parts = _attach_parts(parts, hook.arm_count, hook.leg + 1)
    return Partition._trusted(parts, theta.n)


@cache
def _hook_census(n):
    """The odd partitions of n, as alpha_sn_inverse of every hook tuple, in hook-tuple order."""
    blocks = [[HookPartition._trusted(1 << e, leg) for leg in range(1 << e)] for e in two_adic(n)]
    return tuple(alpha_sn_inverse(ThetaLabel._trusted(hooks)) for hooks in product(*blocks))


def hook_to_bits(exponent, leg):
    """Tower-level bits of the hook with the given leg in H(2**exponent)."""
    if not 0 <= leg < 1 << exponent:
        raise DomainError(f"leg {leg} out of range for block 2^{exponent}")
    gray = leg ^ (leg >> 1)
    return tuple((gray >> (exponent - 1 - i)) & 1 for i in range(exponent))


def bits_to_hook(bits):
    """Inverse of hook_to_bits."""
    exponent = len(bits)
    gray = 0
    for i, b in enumerate(bits):
        gray |= b << (exponent - 1 - i)
    leg = 0
    while gray:
        leg ^= gray
        gray >>= 1
    return HookPartition(1 << exponent, leg)


def sharp_sn(lam):
    """Linear-character label of the Sylow 2-subgroup attached to an odd partition."""
    theta = alpha_sn(lam)
    return SylowLinearLabel._trusted(
        tuple((h.m, hook_to_bits(h.m.bit_length() - 1, h.leg)) for h in theta.hooks)
    )


def sharp_sn_inverse(label):
    """The odd partition whose sharp label is the given one."""
    _check_type(label, SylowLinearLabel)
    return alpha_sn_inverse(
        ThetaLabel(tuple(bits_to_hook(bits) for _, bits in label.blocks))
    )


def count_odd_irr_sn(n):
    """Closed-form count 2**(n_1 + ... + n_r) of odd partitions of n."""
    if n < 1:
        raise DomainError("n must be positive")
    return 1 << sum(two_adic(n))


def young_star(lam, blocks):
    """Per-factor odd partitions for a Young subgroup of odd index.

    Splits the sharp label of lam into one Sylow factor per block size (each
    block is a union of 2-adic blocks of n) and inverts sharp on each factor.
    Results follow the input block order.
    """
    _check_type(lam, Partition)
    blocks = list(_as_tuple("blocks", blocks))
    if odd_multinomial_order(blocks) is None:
        raise DomainError(f"Young subgroup {blocks} does not have odd index")
    if sum(blocks) != lam.n:
        raise DomainError(f"blocks sum to {sum(blocks)}, need {lam.n}")
    # each factor's blocks are a sub-sequence of a valid 2-adic layout: valid by construction
    return [
        sharp_sn_inverse(SylowLinearLabel._trusted(factor_blocks))
        for factor_blocks in split_by_digit(sharp_sn(lam).blocks, blocks)
    ]


def wreath_index_is_odd(k, t):
    """Parity of the index (kt)! / (k!^t t!) of S_k wr S_t in S_{kt}.

    By Legendre's formula nu2(x!) = x - popcount(x), the index is odd exactly
    when nu2((kt)!) = t * nu2(k!) + nu2(t!).
    """
    if k < 1 or t < 1:
        raise DomainError("k and t must be positive")
    n = k * t
    return n - n.bit_count() == t * (k - k.bit_count()) + t - t.bit_count()


def theorem_d_star(lam, k, t):
    """Wreath-product correspondent of an odd partition of n = k*t.

    Requires odd index. The sharp label of lam is read through the wreath
    structure of the Sylow 2-subgroup: within each 2-adic block of t the
    bottom tower levels give the base-character label on one S_k factor and
    the remaining levels give the top label; keying each digit of t on its
    base label and inverting sharp per group yields the (base, top) pair.
    """
    _check_type(lam, Partition)
    odd_index = wreath_index_is_odd(k, t)  # refuses k or t < 1
    n = k * t
    if lam.n != n:
        raise DomainError(f"partition of {lam.n}, need {n}")
    label = sharp_sn(lam)  # refuses an even lam
    if not odd_index:
        raise DomainError(f"S_{k} wr S_{t} does not have odd index in S_{n}")
    if t == 1:
        return WreathOddLabel._trusted(k, 1, ((lam, 1),), (Partition._trusted((1,), 1),))
    if k & (k - 1):
        raise TheoremViolationError(f"odd index with t >= 2 forces a 2-power k, got {k}")
    c = k.bit_length() - 1
    fibers = {}
    # smallest block first, so the groups come in order of their lowest digit
    for size, bits in reversed(label.blocks):
        fibers.setdefault(bits[:c], []).append((size // k, bits[c:]))
    base = []
    top = []
    # k divides every block of n = k*t: each fiber's sizes are distinct 2-powers, and a
    # block of size 2**e keeps e - c of its bits, so both labels are valid by construction
    for base_bits, members in fibers.items():
        psi = sharp_sn_inverse(SylowLinearLabel._trusted(((k, base_bits),)))
        alpha = sharp_sn_inverse(SylowLinearLabel._trusted(tuple(reversed(members))))
        base.append((psi, alpha.n))
        top.append(alpha)
    return WreathOddLabel._trusted(k, t, tuple(base), tuple(top))


def wreath_odd_labels(k, t):
    """Clifford enumeration of S_k wr S_t's odd labels: a _hook_census psi of k per digit of t."""
    if not wreath_index_is_odd(k, t):
        raise DomainError(f"S_{k} wr S_{t} does not have odd index in S_{k * t}")
    labels = []
    # t_i is the sum of psi's digits; walked upward, the groups come in lowest-digit order
    digits = [1 << e for e in reversed(two_adic(t))]
    for choice in product(_hook_census(k), repeat=len(digits)):
        shares = {}
        for psi, digit in zip(choice, digits):
            shares[psi] = shares.get(psi, 0) + digit
        tops = product(*(_hook_census(size) for size in shares.values()))
        labels.extend(WreathOddLabel._trusted(k, t, tuple(shares.items()), top) for top in tops)
    return labels
