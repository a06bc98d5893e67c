"""Normalizer-side coordinates for odd-degree GL/GU characters.

Odd-degree characters of the Sylow 2-normalizer are parametrized per 2-adic
block of n by a residue and a hook; the sharp bijection transports the label
algebra of the full group onto these coordinates, and levi_star splits it
along the blocks of an odd-index Levi subgroup. Galois and outer actions
move residues by exponentiation and fix all hooks, which makes equivariance
a finite check.
"""

import math
from itertools import product
from operator import index

from . import _HOMES
from .errors import DomainError, TheoremViolationError
from .partitions import (
    HookPartition,
    Value,
    _as_ints,
    _as_tuple,
    check_two_adic_layout,
    odd_multinomial_order,
    split_by_digit,
    two_adic,
)
from .sym import alpha_sn_inverse, ThetaLabel
from .glu import GLabel, _odd_layout, _trusted_glabel, check_label_count, kappa_q

__all__ = _HOMES["omega"]


class OmegaLabel(Value):
    """Per 2-adic block of n (decreasing size): a residue and a hook of that size."""

    __slots__ = ("kappa", "q", "blocks")  # blocks: (size, residue, HookPartition) tuples

    def _validate(self):
        mod = kappa_q(self.kappa, self.q).modulus
        blocks = [_as_tuple("block", block, 3) for block in _as_tuple("blocks", self.blocks)]
        if not blocks:
            raise DomainError("a label needs at least one block")
        sizes, residues, hooks = zip(*blocks)
        sizes = _as_ints("block sizes", *sizes)
        residues = _as_ints("residues", *residues)
        check_two_adic_layout(sizes)
        blocks = tuple(zip(sizes, residues, hooks))
        for size, s, hook in blocks:
            if not 0 <= s < mod:
                raise DomainError(f"residue {s} out of range [0, {mod})")
            if hook.m != size:
                raise DomainError(f"hook {hook} does not fill its block of size {size}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def modulus(self):
        return kappa_q(self.kappa, self.q).modulus

    @property
    def n(self):
        return sum(size for size, _, _ in self.blocks)

    def to_json(self):
        return {
            "kappa": self.kappa,
            "q": self.q,
            "blocks": [
                {"size": size, "s": s, "hook": hook.to_json()}
                for size, s, hook in self.blocks
            ],
        }

    @classmethod
    def from_json(cls, data):
        kappa, q, blocks = _as_tuple("label", data, ("kappa", "q", "blocks"))
        blocks = [_as_tuple("block", b, ("size", "s", "hook")) for b in _as_tuple("blocks", blocks)]
        return cls(kappa, q, tuple((size, s, HookPartition.from_json(h)) for size, s, h in blocks))


def sharp_glu(label):
    """Normalizer-side coordinates of an odd label; DomainError on any other label.

    glu._odd_layout gives each 2-adic block of n its owning pair and hook, or
    refuses the label as even; each block then takes its owner's residue.
    """
    pairs = label.pairs
    layout = _odd_layout(tuple([lam.parts for _, lam in pairs]))
    if layout is None:
        raise DomainError(f"{label} is not an odd label")
    blocks = tuple([(m, pairs[i][0], hook) for m, i, hook in layout])
    return OmegaLabel._trusted(label.kappa, label.q, blocks)


def sharp_glu_inverse(omega):
    """Group blocks by residue and reattach each group's hooks; inverse of sharp_glu.

    A residue's hooks are a sub-sequence of omega's valid 2-adic layout, so
    they form a valid layout of their own sum and build their ThetaLabel trusted.
    """
    groups = {}
    for size, s, hook in omega.blocks:
        groups.setdefault(s, []).append(hook)
    pairs = [
        (s, alpha_sn_inverse(ThetaLabel._trusted(tuple(hooks)))) for s, hooks in groups.items()
    ]
    label = _trusted_glabel(omega.kappa, omega.q, pairs)
    try:
        image = sharp_glu(label)
    except DomainError as exc:
        raise TheoremViolationError(f"inverse of {omega} is not odd: {label}") from exc
    if image != omega:
        raise TheoremViolationError(f"round trip failed for {omega}")
    return label


def levi_star(label, blocks):
    """Per-factor odd labels for a Levi subgroup of odd index.

    Splits the normalizer-side label of the character along the block sizes
    (each a union of 2-adic blocks of n) and inverts the normalizer bijection
    on each factor; results follow the input block order.
    """
    blocks = list(_as_tuple("blocks", blocks))
    if odd_multinomial_order(blocks) is None:
        raise DomainError(f"Levi blocks {blocks} do not have odd index")
    if sum(blocks) != label.n:
        raise DomainError(f"blocks sum to {sum(blocks)}, need {label.n}")
    return [
        sharp_glu_inverse(OmegaLabel(label.kappa, label.q, factor_blocks))
        for factor_blocks in split_by_digit(sharp_glu(label).blocks, blocks)
    ]


def _family(x):
    """The kappa_q data of a label the actions move; DomainError for anything else."""
    if not isinstance(x, (GLabel, OmegaLabel)):
        raise DomainError(f"cannot act on {type(x).__name__}")
    return kappa_q(x.kappa, x.q)


def _act_on_residue(e, mod, x):
    """Multiply every residue of x by the unit e modulo mod, in one comprehension.

    No table indexed by residue: q runs up to Q_LIMIT, so one would cost O(q).
    A unit keeps the residues distinct, so a GLabel's moved pairs sort by
    residue alone, and a plain sort is the canonical order.
    """
    if isinstance(x, GLabel):
        pairs = sorted([(s * e % mod, lam) for s, lam in x.pairs])
        return GLabel._trusted(x.kappa, x.q, tuple(pairs))
    return OmegaLabel._trusted(
        x.kappa, x.q, tuple([(size, s * e % mod, hook) for size, s, hook in x.blocks])
    )


def galois_act(i, x):
    """Raise every residue to the i-th power; partitions and hooks are fixed."""
    mod = _family(x).modulus
    try:
        i = index(i)  # an integer type that is no int must not reach _act_on_residue
        unit = math.gcd(i, mod) == 1
    except TypeError:  # a float or str; the try costs nothing when index succeeds
        raise DomainError(f"non-integer exponent {i!r}") from None
    if not unit:
        raise DomainError(f"exponent {i} is not coprime to {mod}")
    return _act_on_residue(i, mod, x)


def outer_act(word, x):
    """Apply a word in the outer generators 'F' (s -> s^p) and 'tau' (s -> s^-1)."""
    mod, p = _family(x)
    if isinstance(word, str):
        word = word.split()
    exponent = 1
    for gen in word:
        if gen == "F":
            exponent = (exponent * p) % mod
        elif gen == "tau":
            if x.kappa != "+":
                raise DomainError("tau is only available for kappa='+'")
            exponent = (-exponent) % mod
        else:
            raise DomainError(f"unknown outer generator {gen!r}")
    return _act_on_residue(exponent, mod, x)


def enumerate_omega_labels(n, q, kappa):
    """The full coordinate space: every residue and hook choice per block."""
    check_label_count(n, q, kappa)
    mod = kappa_q(kappa, q).modulus
    blocks = []
    for size in (1 << e for e in two_adic(n)):
        hooks = [HookPartition._trusted(size, leg) for leg in range(size)]
        blocks.append([(size, s, hook) for s in range(mod) for hook in hooks])
    return [OmegaLabel._trusted(kappa, q, combo) for combo in product(*blocks)]


def count_real_odd(n, q, kappa):
    """Number of labels fixed by residue negation, by fixed-point enumeration.

    Conjugation-fixed labels have every residue s with 2s = 0; each is then
    fixed by the whole Galois group, which makes them rational, and the count
    is 2 per block times the hook choices.
    """
    fixed = [
        omega
        for omega in enumerate_omega_labels(n, q, kappa)
        if galois_act(-1, omega) == omega
    ]
    for omega in fixed:
        mod = omega.modulus
        if any((2 * s) % mod for _, s, _ in omega.blocks):
            raise TheoremViolationError("conjugation-fixed label with 2s != 0")
    return len(fixed)
