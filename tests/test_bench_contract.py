"""The names the benchmark reaches into must keep resolving.

``perfbench/tracer.py`` wraps the entry points in its ``TARGETS`` by name
and ``perfbench/worker.py`` calls package-level names; a rename inside
``cayexp`` would otherwise surface only as a failed traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import cayexp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)        # imports only the standard library
    return mod


TARGETS = [(m, q) for m, qs in _tracer().TARGETS.items() for q in qs]


@pytest.mark.parametrize("module,qualname", TARGETS,
                         ids=[f"{m}.{q}" for m, q in TARGETS])
def test_tracer_target_resolves(module, qualname):
    mod = importlib.import_module(f"cayexp.{module}")
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        # the tracer rebinds the method found in the class's own dict
        assert callable(getattr(mod, cls_name).__dict__[meth])
    else:
        assert callable(getattr(mod, qualname))


def test_worker_calls_resolve():
    for name in ("parse_group_file", "parse_perm", "multiset", "schreier_sims",
                 "general_expander", "second_eigenvalue", "zdn_bias_space",
                 "verify_bias"):
        assert callable(getattr(cayexp, name)), name
    assert callable(cayexp.PermCarrier.of)
    from cayexp.epsbias import format_bias_space   # noqa: F401
    from cayexp.multiset import format_perm_multiset   # noqa: F401
    # positional call forms used by the worker
    inspect.signature(cayexp.general_expander).bind(None, 0.25)
    inspect.signature(cayexp.zdn_bias_space).bind(3, 2, 0.25)
    inspect.signature(cayexp.second_eigenvalue).bind(
        None, None, method="power-iteration")
