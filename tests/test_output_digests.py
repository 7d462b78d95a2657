"""Pinned SHA-256 digests of formatted outputs.

The README promises byte-identical outputs across reruns and releases; an
internal rewrite that changes any element, multiplicity or order shows up
here as a digest mismatch. A change of output on purpose updates these
values and says why.
"""

import hashlib

import pytest

from helpers import (CATALOG_GROUPS, count_calls, group_power,
                     projective_line)

from cayexp import catalog, combine
from cayexp.cli import main
from cayexp.combine import solvable_expander
from cayexp.epsbias import format_bias_space, zdn_bias_space
from cayexp.general import general_expander
from cayexp.multiset import format_perm_multiset
from cayexp.perm import format_perm
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
     "00c2f8dd6a03f87db17aece0f03259075f44cd0430c74d1605d0aa0e48e4ba9e"),
    # d = 6 at 1/4: 32800 points, each fold merge padded to its larger
    # side's total
    (6, 4, 0.25,
     "12ed69cc128c090781ef6e748a18819d04cd14309a01ddf697f1aa41c596a36a"),
    (6, 4, 0.0625,
     "9fd3fd7bd60dec0074f5c4a1c6c87d0ac91be5df5ef1ea7c82950699222e9360"),
    # d = 8: depth 3, so the k-fold pads one trivial level
    (8, 3, 0.25,
     "e2e14f2a1a411375f19c85829e07c0ac63979c3838c626c210adaac9bcc1daff"),
    (3, 8, 0.25,
     "48d9c477d8e7617cd693bddb8d1a3540cc808a93397f15a1185afa8253a45ace"),
    # many repeated points: 27648 lines from 1888 points, and 14112 lines
    # from 3741
    (2, 12, 0.25,
     "793001b9618a09ebaa1a4d714e4ba2cda4208d05bb37aab5e84018509cfccaff"),
    (5, 6, 0.25,
     "5239966463bc2fe2ec0a40595c6fe38f54f766028212ea16c6d1994d4ed73861"),
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
        "50065fb04a1048844617cee3f17e307d19f5d97c81a12a4abc523524b6f7e552"


# the solvable pipeline: quotient carriers of every fold and abelian level
@pytest.mark.parametrize("name,group,digest", [
    ("Syl2(S8)", catalog.sylow2_s8,
     "6acec9c340a2accb50ac0aea257dad2f46eaf0ab3b56999ab92273cd8a756aa9"),
    ("S4", catalog.s4,
     "265d85f3360b66a314dcc3c9c3fde5ed2855f793789e5cd7b4f7730aa77b9fda"),
])
def test_solvable_expander_digest(name, group, digest):
    g = group()
    out = solvable_expander(derived_series(g), 0.25)
    assert sha256(format_perm_multiset(out, g.degree)) == digest, name


def test_solvable_s4_cubed_krylov_digest():
    # S4^3 (order 13824, above DENSE_CAP): the fold's top merges are
    # measured on the Krylov route
    out = solvable_expander(derived_series(group_power(catalog.s4(), 3)),
                            0.25)
    assert (out.total, out.cert) == (1024, 0.08178792181453104)
    assert sha256(format_perm_multiset(out, 12)) == \
        "35dcd5df8ff22372ecc6bb7c093fd1c726456620694aa9b45451b0606548b37f"


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


# `cayexp bsgs --json` and `cayexp series --json` on every catalog group:
# the chain's order, base, strong generator count and orbit sizes, and the
# derived series' orders
GROUP_COMMAND_DIGESTS = {
    "a4": (
        "43806b82ebd34f3289f155c1bacc17c54b23ddacb76064ca45fefca9521f8903",
        "0c0d41ec477e938444894d8b7cfbb8d2151da77008679bd357fac825151d74ad"),
    "a5": (
        "8f1fb2cbf97617d2f28ac07124cb56aa36c6a54cc435187a4756835824e809bd",
        "2e6817c200506fb08c4f6e49257d2c97adf658ecbfa7286431afece7f8e2344a"),
    "a6": (
        "69fb59b5243a3223421e6eebbda7c148f52824cfe5b39feb2b1714650974c0a1",
        "82f167d63f3b8695d6f5ccc635c49097b2ae1d1f8533c93fd137cdbc2faa8842"),
    "a7": (
        "c891503251524b8e70f161ae32f994f7f8ecd552c830dc111546ffd9558e0a25",
        "64265367644c5ceb03cf765bb668e036f5797fc7a0e3858bd028c55fdedcb392"),
    "d12": (
        "3dfc936f37e1ecd358722c6a71b28fe9b5a7aa4ba80a6dd1b67f5c457a80b103",
        "7db31a8ef7e60f7d74f11c7560e1bb5445c7c13e5ead45b21038ade4455e574c"),
    "d8": (
        "62868a7a8eef3c546d2d79b919846c3004949591101fcddc8ba05c7bd71f59f7",
        "694a11388380101e9853d856fc5459f524f71b70617d18643292f0320b17ea74"),
    "q8": (
        "dd7b2cddea93b441616367782033bbefbfd818c29e93499530d194f268d9ac4b",
        "43f86e9844723d83f1fc260eef7647f2cc0fe8345629bcbb4e2083d7a7ea8be3"),
    "s3": (
        "9ee4a8701d458f57f1cb4cb72876ced41838bc40ba9f91d84cb20cd5c92250ad",
        "201cbc0e4f93e6039d1ab6e74d34e57f0ca36a6cf79473c3a396f4844f51fe10"),
    "s3_x_s4": (
        "66f40bc2c9194f6959817759fd5fe9b137b10cc8d9c4d12d659d2920f2e6a673",
        "f4117644a91c4ad8a2bfa852fbc03c863afe5237b1d947c08465facde1765786"),
    "s4": (
        "44b43abbf3ad142d603c5eb7d8c1a4db38a88fd1691c60e26de25a0cc5c83afe",
        "ebf5d8b87319516f12aab5b7e5e91efa27746f66612c42944bead4b8a929cf0c"),
    "s5": (
        "d7ea86053e6cda05fba7db4cb03f88ee4c7018233f5b65f286b3eaac40de179e",
        "03b64cc02d32b52cc72ad15633401becd7e354b0a7bd9e2941b14e7e48011b7a"),
    "s6": (
        "972d1466c89536e8bc424f87c1a6c7bb1c38a0fcf44ad3e1350ed4e67160e076",
        "095abb092c994f693c79fa317f929f451b95b3d48fa16de5ca951f7e11d5b513"),
    "sylow2_s8": (
        "db2ce1b785ce2d9f98ff5a7c48f34b397e227e3ae0bcd9da2ade1e9475355446",
        "7bd424f583f9a811383297e6855bee3ece2a5699743085b7e8f1cecf7e109149"),
    "v4": (
        "9c1c78820044cfc8abcedcbf28f4339624fbab5c6b039e1f858235aed79c0a60",
        "2fa23b349b6760e73c4bae6f580fad7f2fec264b416f76da1a4d8a9de42bc7e5"),
    "z100": (
        "9ee442865741912f03a3392f024bdede1bc83ab527d4a145902f8ba4baaf0795",
        "5eeb2a019d405e69b58593b212b23e01d2b57832e24927d67ad98ed7c6fda7f2"),
    "z12": (
        "951341d05fb971ddb3ec653050f055b70ace6318e886f89c2e7de2f1c24ed642",
        "158bee004943c2b5e7054d9fd33c7cae5e86482d5f4c0b9365ef3675426a5739"),
    "z2": (
        "61b5d216120de9691036987ee88234e3b9b1f251f242932b577f502ce38e51ce",
        "74c8fa668ec281af68f34b8a50218f5ffacb0bf60c11fed7323739c5c3745cda"),
    "z3": (
        "27dd9a06c2bbc320b233cb3076d31e4dde459e82574901b66f849e4e6dec418a",
        "b43c3fab30a204460af6b339e4102d1ce273b713f33f291524b96b258e4dce52"),
    "z6": (
        "30762585c1e58f2aff290b9240691af7240dea62b9735e44818ca991ba31929c",
        "56523139cb1b392699068102a1ad26b87dfe59a3523d52d1e51a29a7ba08e75d"),
    "z8": (
        "583294ab8aeb733e99dcdb4b2a7865dd71c96a0e40de37dfb35ec8fec382db62",
        "10fb71f9b3ca34e75f34f03842bbe879eb345e9450d625e7d641f76bb8fdeb49"),
}


@pytest.mark.parametrize("name", CATALOG_GROUPS)
@pytest.mark.parametrize("command", ["bsgs", "series"])
def test_group_command_digest(tmp_path, capsys, command, name):
    g = getattr(catalog, name)()
    path = tmp_path / f"{name}.grp"
    path.write_text(f"degree {g.degree}\n"
                    + "".join(format_perm(p) + "\n" for p in g.gens))
    assert main([command, "--group", str(path), "--json"]) == 0
    digest = GROUP_COMMAND_DIGESTS[name][("bsgs", "series").index(command)]
    assert sha256(capsys.readouterr().out) == digest
