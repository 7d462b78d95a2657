"""Certified expanding generating sets for permutation groups.

Given G <= S_n by generators, construct a symmetric generating multiset T
with a numerically certified bound on the second eigenvalue of Cay(G, T),
and eps-bias spaces for Z_d^n; every output is re-checked by the built-in
spectral / character-sum verifier.
"""

import importlib

from .perm import GenSet, Perm, parse_perm, format_perm, parse_group_file
from .bsgs import BSGS, schreier_sims, jerrum_reduce
from .series import derived_series, quotient_context, SubgroupChain
from .multiset import Multiset, multiset
from .carriers import PermCarrier, QuotientCarrier, VectorCarrier
from .spectra import SpectrumReport, second_eigenvalue, certify

# The construction modules load on first use of one of their names, so a
# process that only verifies (``cayexp verify``) does not import them.
# ``cayexp.combine`` is the submodule.
_LAZY = {
    "combine": ("AuxExpander", "aux_family", "balance", "derandomized_square",
                "fold_series", "reduce_to_quarter", "solvable_expander"),
    "abexp": ("abelian_quotient_expander", "build_abelianization",
              "cyclic_expander", "final_R", "product_base_expander"),
    "epsbias": ("BiasSpace", "factorize", "verify_bias", "zdn_bias_space"),
    "general": ("babai_bound", "general_expander"),
}
_HOME = {name: mod for mod, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
