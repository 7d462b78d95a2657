"""Expanding generating sets for arbitrary permutation groups.

The symmetrized strong generators of a BSGS are measured exactly, once per
group: the measured start is kept on g's one carrier
(``PermCarrier.of(g)``), like its chain and tables. The
vertex-transitivity bound 1 - 1/(16.5 * d * diam^2), at the diameter found
by BFS, is only logged beside that measurement, never used as a
certificate, so the BFS runs only inside ``obs.recording()``. Squaring
rounds then amplify the gap: each round is an exact convolution square,
which carries its input's bound squared, and the rounds stop once the
returned multiset's measurement meets the target. A group above the
verification cap is refused (``spectra.require_route``).
"""

from __future__ import annotations

import numpy as np

from . import obs
from .bsgs import BSGS
from .carriers import PermCarrier
from .combine import reduce_to_quarter, reverify
from .multiset import Multiset, multiset
from .perm import GenSet, Perm
from .spectra import graph_info, require_route


def babai_bound(deg: int, diam: int) -> float:
    """Second-eigenvalue bound for a vertex-transitive graph."""
    if deg < 1 or diam < 1:
        raise ValueError("degree and diameter must be >= 1")
    return 1.0 - 1.0 / (16.5 * deg * diam * diam)


def strong_generator_multiset(bs: BSGS) -> Multiset:
    """Symmetrized, deduplicated strong generators of a BSGS."""
    gens = bs.strong_gens()
    if not gens:
        return multiset([(Perm.identity(bs.degree), 1)])
    sym = set()
    for p in gens:
        sym.add(p)
        sym.add(p.inv())
    return multiset([(p, 1) for p in sorted(sym)])


def _measured_start(carrier: PermCarrier) -> tuple[Multiset, Multiset, bool]:
    """The group's starting set, made on the first call for a carrier and
    kept on it for every later one: (the symmetrized strong generators,
    their exact measurement, whether it was lazified). A bipartite start
    gets identity self-loops weighing as much as the generators, which
    shift the spectrum. The multisets' arrays are read-only."""
    kept = vars(carrier).get("_start")
    if kept is None:
        gens = strong_generator_multiset(carrier.parent)
        ms = reverify(carrier, gens)
        lazy = ms.cert >= 1.0 - 1e-12
        if lazy:
            ident = carrier.codes([carrier.identity()])
            ms = reverify(carrier, carrier.tally(
                np.concatenate((carrier.codes(ms), ident)),
                np.append(ms.mult_array(), ms.total)))
        kept = gens, ms, lazy
        # kept as long as the carrier, which g keeps
        vars(carrier)["_start"] = kept
    return kept


def general_expander(g: GenSet, lam: float = 0.25) -> Multiset:
    """Certified lam-spectral expanding multiset for any <g>.

    Pipeline: strong generators, measured exactly (inside a recording,
    the Babai bound is logged beside the measurement) -> squaring rounds
    (``reduce_to_quarter``, whose result is measured exactly: the group is
    within the verification cap). Bipartite starting graphs (e.g. a single
    transposition) are lazified with identity self-loops first. The
    measured start is made once per group, past the route check, and kept
    on g's one carrier, ``PermCarrier.of(g)``; every call logs it alike,
    and makes its squaring rounds and their measurement anew.
    """
    if not 0 < lam < 1:
        raise ValueError("lambda must be in (0, 1)")
    carrier = PermCarrier.of(g)
    if carrier.order == 1:
        return strong_generator_multiset(carrier.parent).with_cert(0.0)
    require_route(carrier)
    gens, ms, lazy = _measured_start(carrier)
    if lazy:
        obs.event("lazify", total=ms.total, cert=ms.cert)
    if obs.active():
        # the diameter is only logged: no BFS outside a recording
        diameter = graph_info(carrier, gens)["diameter"]
        obs.event("strong-gens", total=ms.total, cert=ms.cert,
                  diameter=diameter,
                  babai_bound=babai_bound(ms.total, max(diameter, 1)))
    if ms.cert <= lam:
        return ms
    # every certificate is an exact measurement
    return reduce_to_quarter(carrier, ms, target=min(lam, 0.25))
