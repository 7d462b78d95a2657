"""The parameter names of the construction and verifier entry points.

Every parameter is a setting that tests must cover, so adding one should be
a visible decision: it changes this table.
"""

import importlib
import inspect

import pytest

SIGNATURES = {
    "abexp.greedy_expander": ("carrier", "target"),
    "abexp.product_base_expander": ("primes", "m", "lam"),
    "abexp.final_R": ("n", "primes", "c", "eps"),
    "abexp.abelian_quotient_expander": ("h", "n", "target"),
    "abexp._final_r_cached": ("n", "primes"),
    "abexp._compact_r_points": ("n", "primes"),
    "abexp._window_widths": ("ms_list", "lo", "hi"),
    "epsbias.zdn_bias_space": ("d", "n", "eps"),
    "epsbias.verify_bias": ("space",),
    "combine.balance": ("carrier", "a", "b"),
    "combine.reduce_to_quarter": ("carrier", "u", "target", "compact_total"),
    "combine.combine_union": ("group", "a", "b"),
    "combine.amplified_union": ("carrier", "a", "b", "target",
                                "compact_total"),
    "combine.fold_levels": ("leaves", "merge"),
    "combine.fold_series": ("chain", "quotient_sets", "target"),
    "combine.solvable_expander": ("chain", "target"),
    "combine.compact": ("carrier", "ms", "target_total", "target_cert"),
    "spectra.second_eigenvalue": ("carrier", "ms", "method"),
    "spectra.exact_method": ("carrier",),
    "spectra.measure": ("carrier", "ms", "method"),
    "spectra.power_lambda2": ("carrier", "ms", "tol", "itmax"),
    "spectra.abelian_bias": ("shape", "ms"),
    "fields.construct_field": ("p", "m"),
    "catalog.cyclic": ("n",),
    "general.general_expander": ("g", "lam"),
    "perm.parse_degree_file": ("text",),
    "perm.parse_group_file": ("text",),
    "multiset.parse_perm_multiset": ("text",),
    "multiset.multiset": ("pairs", "cert"),
    "carriers.PermCarrier.of": ("g",),
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_parameter_names(name):
    module, *path = name.split(".")
    fn = importlib.import_module(f"cayexp.{module}")
    for attr in path:
        fn = getattr(fn, attr)
    assert tuple(inspect.signature(fn).parameters) == SIGNATURES[name]
