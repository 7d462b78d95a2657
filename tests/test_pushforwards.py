"""The construction's pushforwards against element-by-element references.

Every pushforward is one array map: ``abexp.vector_map`` for the CRT split
and the window embeds of ``product_base_expander`` and the k-fold embeds of
``zdn_bias_space``, and row gathers for the level map of
``abelian_quotient_expander``. Each test spies on the maps of a real build
and compares every image, elements, multiplicities and certificate, with
the per-element references of ``helpers`` merged by ``ref_map_elems``.
"""

import pytest

from helpers import (crt_split, embed_window, kfold_embed, level_map,
                     ref_map_elems)

from cayexp import abexp, catalog, epsbias
from cayexp.abexp import build_abelianization, product_base_expander
from cayexp.carriers import QuotientCarrier
from cayexp.epsbias import zdn_bias_space
from cayexp.perm import GenSet, Perm
from cayexp.series import derived_series, quotient_context


def same(got, want):
    assert (got.elems, got.mults, got.cert) == \
        (want.elems, want.mults, want.cert)


def spy_vector_map(monkeypatch, module, cols_name) -> list:
    """Record (source, destination, arguments of the column function or
    None, image) for every vector_map call of the module; the column
    function named cols_name makes the columns of the call that follows."""
    pending, calls = [], []
    make_cols, real = getattr(module, cols_name), module.vector_map

    def cols(*args):
        pending.append(args)
        return make_cols(*args)

    def vmap(ms, dst, *rest):
        out = real(ms, dst, *rest)
        calls.append((ms, dst, pending.pop() if pending else None, out))
        return out
    monkeypatch.setattr(module, cols_name, cols)
    monkeypatch.setattr(module, "vector_map", vmap)
    return calls


@pytest.mark.parametrize("primes,m", [((2, 3), [3, 1]), ((2, 3), [1, 2]),
                                      ((2, 3, 5), [1, 2, 1]),
                                      ((2, 3, 5), [2, 1, 3])])
def test_product_base_maps_match_reference(monkeypatch, primes, m):
    calls = spy_vector_map(monkeypatch, abexp, "_window_cols")
    product_base_expander(primes, m)
    splits = [c for c in calls if c[2] is None]
    assert len(splits) == max(m)           # one CRT split per level
    assert len(calls) > len(splits)        # and window embeds in merges
    for ms, dst, args, out in calls:
        if args is None:
            want = ref_map_elems(ms, lambda v: crt_split(v[0], dst.moduli),
                                 cert=ms.cert)
        else:
            want = ref_map_elems(ms, lambda v: embed_window(v, *args),
                                 cert=ms.cert)
        same(out, want)


@pytest.mark.parametrize("d,n", [(4, 4), (8, 3), (12, 3)])
def test_kfold_embeds_match_reference(monkeypatch, d, n):
    calls = spy_vector_map(monkeypatch, epsbias, "_kfold_cols")
    zdn_bias_space(d, n, 0.25)
    assert calls and all(args is not None for _, _, args, _ in calls)
    for ms, dst, args, out in calls:
        want = ref_map_elems(ms, lambda v: kfold_embed(v, *args),
                             cert=ms.cert)
        same(out, want)


def agl_1_13() -> GenSet:
    return GenSet(13, (Perm([(x + 1) % 13 for x in range(13)]),
                       Perm([(2 * x) % 13 for x in range(13)])))


@pytest.mark.parametrize("group", [catalog.s4, catalog.sylow2_s8,
                                   catalog.z6, catalog.z12, agl_1_13],
                         ids=["S4", "Syl2(S8)", "Z6", "Z12", "AGL(1,13)"])
def test_level_images_match_reference(monkeypatch, group):
    images, reverify = [], abexp.reverify

    def spy(carrier, ms):
        out = reverify(carrier, ms)
        if isinstance(carrier, QuotientCarrier):   # only level images
            images.append((carrier, out))
        return out
    monkeypatch.setattr(abexp, "reverify", spy)
    chain = derived_series(group())
    ranks, levels = set(), set()
    for h, k in zip(chain.terms, chain.terms[1:]):
        images.clear()
        abexp.abelian_quotient_expander(h, k)
        hom = build_abelianization(h, k)
        rank = len(hom.xs)
        groups = abexp._level_groups(hom)
        assert len(images) == len(groups) - 1
        for s, (qcar, img) in enumerate(images):
            live = [j for j in range(len(hom.primes)) if hom.exps[j] > s]
            r_points = abexp._compact_r_points(
                rank, tuple(hom.primes[j] for j in live), 8, 0.125)
            qctx = quotient_context(groups[s], groups[s + 1])
            want = ref_map_elems(
                r_points, lambda v: level_map(hom, qctx, s, live, v),
                cert=r_points.cert)
            same(img, reverify(qcar, want))
            levels.add(s)
        ranks.add(rank)
    if group is catalog.z6:
        assert ranks == {1}
    if group is catalog.z12:
        assert 1 in levels
