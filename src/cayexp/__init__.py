"""Certified expanding generating sets for permutation groups.

Given G <= S_n by generators, construct a symmetric generating multiset T
with a numerically certified bound on the second eigenvalue of Cay(G, T),
and eps-bias spaces for Z_d^n; every output is re-checked by the built-in
spectral / character-sum verifier.
"""

from .perm import GenSet, Perm, parse_perm, format_perm, parse_group_file
from .bsgs import BSGS, schreier_sims, jerrum_reduce
from .series import derived_series, quotient_context, SubgroupChain, \
    QuotientContext
from .multiset import Multiset, multiset
from .carriers import AbelianShape, PermCarrier, QuotientCarrier, \
    VectorCarrier
from .spectra import SpectrumReport, second_eigenvalue, abelian_bias, certify
from .combine import (AuxExpander, aux_family, balance, combine,
                      derandomized_square, fold_series, reduce_to_quarter,
                      solvable_expander)
from .abexp import (abelian_quotient_expander, build_abelianization,
                    cyclic_expander, final_R, hom_image,
                    primes_and_exponent, product_base_expander)
from .epsbias import BiasSpace, factorize, verify_bias, zdn_bias_space
from .general import (AmplificationSchedule, babai_bound, general_expander,
                      rv_composition)

__version__ = "0.1.0"
