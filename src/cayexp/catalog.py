"""Named permutation groups used by the test and acceptance suites."""

from __future__ import annotations

from .perm import GenSet, parse_perm


def _g(degree: int, *cycles: str) -> GenSet:
    return GenSet(degree, tuple(parse_perm(c, degree) for c in cycles))


def cyclic(n: int) -> GenSet:
    """Z_n as a single n-cycle."""
    return _g(n, "(" + " ".join(str(i + 1) for i in range(n)) + ")")


def z8() -> GenSet:
    return cyclic(8)


def z12() -> GenSet:
    # order lcm(4,3) = 12 on 7 points
    return _g(7, "(1 2 3 4)(5 6 7)")


def d8() -> GenSet:
    """Dihedral group of order 8 acting on the square."""
    return _g(4, "(1 2 3 4)", "(1 3)")


def s3() -> GenSet:
    return _g(3, "(1 2 3)", "(1 2)")


def s4() -> GenSet:
    return _g(4, "(1 2 3 4)", "(1 2)")


def s5() -> GenSet:
    return _g(5, "(1 2 3 4 5)", "(1 2)")


def s6() -> GenSet:
    return _g(6, "(1 2 3 4 5 6)", "(1 2)")


def a4() -> GenSet:
    return _g(4, "(1 2 3)", "(2 3 4)")


def a5() -> GenSet:
    return _g(5, "(1 2 3)", "(3 4 5)")


def a6() -> GenSet:
    return _g(6, "(1 2 3)", "(2 3 4 5 6)")


def a7() -> GenSet:
    return _g(7, "(1 2 3)", "(1 2 3 4 5 6 7)")


def v4() -> GenSet:
    return _g(4, "(1 2)(3 4)", "(1 3)(2 4)")


def q8() -> GenSet:
    """Quaternion group in its regular representation on 8 points."""
    return _g(8, "(1 2 4 7)(3 6 8 5)", "(1 3 4 8)(2 5 7 6)")


def z6() -> GenSet:
    return cyclic(6)


def z2() -> GenSet:
    return cyclic(2)


def z3() -> GenSet:
    return cyclic(3)


def z100() -> GenSet:
    return cyclic(100)


def d12() -> GenSet:
    """Dihedral group of order 12 on a hexagon."""
    return _g(6, "(1 2 3 4 5 6)", "(2 6)(3 5)")


def s3_x_s4() -> GenSet:
    """S3 x S4 on 3 + 4 points (order 144)."""
    return _g(7, "(1 2 3)", "(1 2)", "(4 5 6 7)", "(4 5)")


def sylow2_s8() -> GenSet:
    """A Sylow 2-subgroup of S8 (iterated wreath product, order 128)."""
    return _g(8, "(1 2)", "(1 3)(2 4)", "(1 5)(2 6)(3 7)(4 8)")


SOLVABLE_CATALOG = {
    "Z8": z8,
    "Z12": z12,
    "D8": d8,
    "S3": s3,
    "S4": s4,
    "A4": a4,
    "S3xS4": s3_x_s4,
    "Sylow2_S8": sylow2_s8,
}

FULL_CATALOG = {
    **SOLVABLE_CATALOG,
    "Z2": z2,
    "Z3": z3,
    "Z6": z6,
    "V4": v4,
    "Q8": q8,
    "D12": d12,
    "Z100": z100,
    "S5": s5,
    "S6": s6,
    "A5": a5,
    "A6": a6,
    "A7": a7,
}
