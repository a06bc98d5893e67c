"""Exact combinatorics of odd-degree character correspondences.

Partitions, hooks and rim hooks; brute-force symmetric-group oracles
(hook-length degrees, Murnaghan-Nakayama values, Littlewood-Richardson
coefficients); explicit Sylow 2-subgroups with a restriction oracle from the
wreath-tower recursion; the canonical odd-degree correspondences for
symmetric groups, their odd-index maximal subgroups and Sylow 2-subgroups;
and the label-level correspondences for finite general linear and unitary
groups with Galois/outer equivariance.

Errors and partitions load with the package; every other public name loads
its home module on first use.
"""

# Every command parses a Partition. Loading partitions eagerly also keeps
# oddchar.partitions the function: a later first import of the submodule
# would rebind that name to the module.
from .errors import DomainError, EnumerationCapError, OddcharError, TheoremViolationError
from .partitions import (
    HookPartition,
    Partition,
    attach_unique_gamma,
    binom_is_odd,
    m_core,
    nu2,
    odd_multinomial_order,
    partitions,
    rim_hooks_of_length,
    two_adic,
    unique_descent,
)

# Each public name of the other modules, by home module. A name loads its home
# (and what that imports) on first use, so a command pays only for what it runs.
_HOMES = {
    "characters": (
        "branch_restrict",
        "class_size",
        "degree",
        "is_odd_partition",
        "lr_coefficient",
        "mn_value",
        "odd_partitions",
    ),
    "permgroups": (
        "restriction_multiplicities",
        "sylow2_subgroup",
    ),
    "sym": (
        "SylowLinearLabel",
        "ThetaLabel",
        "WreathOddLabel",
        "alpha_sn",
        "alpha_sn_inverse",
        "bits_to_hook",
        "count_odd_irr_sn",
        "hook_to_bits",
        "sharp_sn",
        "sharp_sn_inverse",
        "star_sn",
        "theorem_d_star",
        "wreath_index_is_odd",
        "wreath_odd_labels",
        "young_star",
    ),
    "glu": (
        "GLabel",
        "ParabolicCorrespondent",
        "canonical_order",
        "count_odd_irr_gl",
        "enumerate_odd_labels",
        "is_odd_label",
        "is_prime_power_odd",
        "levi_star",
        "odd_label_count",
        "parabolic_star",
        "real_label_count",
        "sl_correspondence_data",
        "sl_label_census",
    ),
    "omega": (
        "NormalizerLocalLabel",
        "OmegaLabel",
        "count_real_odd",
        "enumerate_omega_labels",
        "galois_act",
        "local_to_omega",
        "omega_to_local",
        "outer_act",
        "sharp_glu",
        "sharp_glu_inverse",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_HOME_OF))


def __getattr__(name):
    from importlib import import_module

    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME_OF))


__version__ = "0.1.0"
