#!/usr/bin/env python3
"""Normalizer-side coordinates, Galois orbits and the real-character count.

Transports a label to its per-block (residue, hook) coordinates, checks
equivariance on a Galois orbit, and matches the conjugation-fixed census
against the closed form.
"""

import math

from oddchar import (
    GLabel,
    Partition,
    count_real_odd,
    galois_act,
    outer_act,
    sharp_glu,
    sharp_glu_inverse,
    two_adic,
)


def fmt_omega(omega):
    return "  ".join(
        f"[size {size}: s={s}, hook ({hook.m - hook.leg},1^{hook.leg})]"
        for size, s, hook in omega.blocks
    )


def show_sharp():
    label = GLabel("-", 3, ((1, Partition((1,))), (0, Partition((2, 1, 1)))))
    omega = sharp_glu(label)
    print(f"Label of rank {label.n} over GU(q=3):")
    for s, lam in label.pairs:
        print(f"  S({s},{list(lam.parts)})")
    print(f"coordinates: {fmt_omega(omega)}")
    assert sharp_glu_inverse(omega) == label
    print("round trip through the inverse: ok")
    print()


def show_galois_orbit():
    label = GLabel("+", 9, ((3, Partition((2,))), (1, Partition((1,)))))
    omega = sharp_glu(label)
    mod = label.modulus
    units = [i for i in range(1, mod) if math.gcd(i, mod) == 1]
    print(f"Galois orbit of residues (mod {mod}) and equivariance:")
    for i in units:
        moved = galois_act(i, label)
        assert sharp_glu(moved) == galois_act(i, omega)
        print(f"  sigma_{i}: {[s for s, _ in moved.pairs]}  commutes")
    conj = outer_act("tau", label)
    assert sharp_glu(conj) == outer_act("tau", omega)
    print("  tau (inverse-transpose): commutes")
    print()


def show_real_counts():
    print("Conjugation-fixed odd labels vs 2^(n_1+...+n_r+r):")
    for n in range(1, 9):
        exps = two_adic(n)
        closed = 1 << (sum(exps) + len(exps))
        got = count_real_odd(n, 5, "+")
        assert got == closed
        print(f"  n={n}: {got}")


if __name__ == "__main__":
    show_sharp()
    show_galois_orbit()
    show_real_counts()
