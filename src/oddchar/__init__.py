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

# Each public name by home module, its one declaration: a module's __all__ is its row.
_HOMES = {
    "errors": ("DomainError", "EnumerationCapError", "OddcharError", "TheoremViolationError"),
    "partitions": (
        "HookPartition",
        "Partition",
        "attach_unique_gamma",
        "binom_is_odd",
        "nu2",
        "odd_multinomial_order",
        "partitions",
        "rim_hooks_of_length",
        "two_adic",
    ),
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
        "odd_label_count",
        "parabolic_star",
        "real_label_count",
        "sl_label_census",
    ),
    "omega": (
        "OmegaLabel",
        "count_real_odd",
        "enumerate_omega_labels",
        "galois_act",
        "levi_star",
        "outer_act",
        "sharp_glu",
        "sharp_glu_inverse",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME_OF)

# errors and partitions read _HOMES while they load. Loading partitions here
# keeps oddchar.partitions the function: a later first import of the
# submodule would rebind it to the module.
from .errors import *
from .partitions import *


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
