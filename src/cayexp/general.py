"""Expanding generating sets for arbitrary permutation groups.

The symmetrized strong generators of a BSGS are measured exactly; the
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


def general_expander(g: GenSet, lam: float = 0.25) -> Multiset:
    """Certified lam-spectral expanding multiset for any <g>.

    Pipeline: strong generators, measured exactly (inside a recording,
    the Babai bound is logged beside the measurement) -> squaring rounds
    (``reduce_to_quarter``, whose result is measured exactly: the group is
    within the verification cap). Bipartite starting graphs (e.g. a single
    transposition) are lazified with identity self-loops first. The
    strong generators and every measurement come from g's one carrier,
    ``PermCarrier.of(g)``, which a re-check on the same g then reuses.
    """
    if not 0 < lam < 1:
        raise ValueError("lambda must be in (0, 1)")
    carrier = PermCarrier.of(g)
    ms = strong_generator_multiset(carrier.parent)
    if carrier.order == 1:
        return ms.with_cert(0.0)
    require_route(carrier)
    # the diameter is only logged: no BFS outside a recording
    info = graph_info(carrier, ms) if obs.active() else None
    ms = reverify(carrier, ms)
    if ms.cert >= 1.0 - 1e-12:
        # bipartite Cayley graph: shift the spectrum with a lazy step
        ident = carrier.codes([carrier.identity()])
        ms = reverify(carrier, carrier.tally(
            np.concatenate((carrier.codes(ms), ident)),
            np.append(ms.mult_array(), ms.total)))
        obs.event("lazify", total=ms.total, cert=ms.cert)
    if info is not None:
        obs.event("strong-gens", total=ms.total, cert=ms.cert,
                  diameter=info["diameter"],
                  babai_bound=babai_bound(ms.total, max(info["diameter"], 1)))
    if ms.cert <= lam:
        return ms
    # every certificate is an exact measurement
    return reduce_to_quarter(carrier, ms, target=min(lam, 0.25))
