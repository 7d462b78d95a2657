"""Pinned SHA-256 digests of formatted outputs.

The README promises byte-identical outputs across reruns and releases; an
internal rewrite that changes any element, multiplicity or order shows up
here as a digest mismatch. A change of output on purpose updates these
values and says why.
"""

import hashlib

import pytest

from helpers import count_calls, projective_line

from cayexp import catalog, combine
from cayexp.combine import solvable_expander
from cayexp.epsbias import format_bias_space, zdn_bias_space
from cayexp.general import general_expander
from cayexp.multiset import format_perm_multiset
from cayexp.series import derived_series


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(autouse=True)
def exact_squares_only(monkeypatch):
    """Every pinned build amplifies by exact squares alone: derandomized
    squaring and its auxiliaries are library code no construction calls."""
    squares = count_calls(monkeypatch, combine.derandomized_square)
    auxes = count_calls(monkeypatch, combine.aux_family)
    yield
    assert squares == auxes == []


@pytest.mark.parametrize("d,n,eps,digest", [
    (12, 3, 0.25,
     "6f78bf9222287cb9ad13545b59b2eac31f8383e6719da398b1b0c73289dadd09"),
    (6, 4, 0.0625,
     "db993aac9c0dfdcd87f0e7002ac0c8aef971ca77d66998aa08381efceddf6547"),
    # d = 8: depth 3, so the k-fold pads one trivial level
    (8, 3, 0.25,
     "9ad39b57bdc7841e0906082be2d9b531afbe7219f1489289b480fa1f87b088e0"),
    (3, 8, 0.25,
     "48d9c477d8e7617cd693bddb8d1a3540cc808a93397f15a1185afa8253a45ace"),
    # d = 2: the Walsh-Hadamard route of bias_exhaustive and the FFT square
    (2, 12, 0.0625,
     "59632fd2a325c01a1759112699f9a24a51c12d4253b6ce115f8ea04ac154500e"),
    (2, 16, 0.25,
     "c339631e131a6f71e892ad7f77a9d00f5bed4a8884975c0e821fc29f028bd60c"),
])
def test_bias_space_digest(d, n, eps, digest):
    assert sha256(format_bias_space(zdn_bias_space(d, n, eps))) == digest


def test_solvable_a4_digest():
    out = solvable_expander(derived_series(catalog.a4()), 0.25)
    assert sha256(format_perm_multiset(out, 4)) == \
        "cc7d2528b80ca41bec16f38ce03969c8efc74457773d8759170c6fd6cee41daa"


# the solvable pipeline: quotient carriers of every fold and abelian level
@pytest.mark.parametrize("name,group,digest", [
    ("Syl2(S8)", catalog.sylow2_s8,
     "6acec9c340a2accb50ac0aea257dad2f46eaf0ab3b56999ab92273cd8a756aa9"),
    ("S4", catalog.s4,
     "164e7eb6fb394cc1f93c9fb80bcb333731ebe79825aa4ca0611da2b988e3e8a0"),
])
def test_solvable_expander_digest(name, group, digest):
    g = group()
    out = solvable_expander(derived_series(g), 0.25)
    assert sha256(format_perm_multiset(out, g.degree)) == digest, name


# the general pipeline: permutation carriers, squaring over perms, compact
@pytest.mark.parametrize("name,group,lam,digest", [
    ("A5", catalog.a5, 1 / 16,
     "8185f44ebfd1b565c9208ce99b51c0f23fc6c0a9bfc50565c66e8e617ba6805c"),
    ("PSL(2,7)", lambda: projective_line(7, 4), 1 / 4,
     "594f730004ca8ccb111dcd5caf00b565406e1bceed86c9981c84f7c7b04a75f1"),
    ("S5", catalog.s5, 1 / 16,
     "85e19a9f012f1c7f4c93ef5d28aa665a372627febd8cfb2df17f0baff36d00db"),
])
def test_general_expander_digest(name, group, lam, digest):
    g = group()
    out = general_expander(g, lam)
    assert sha256(format_perm_multiset(out, g.degree)) == digest, name
