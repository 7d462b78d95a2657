"""Permutation groups used by the benchmark, given by explicit generators.

The package's own catalog is not used: its names do not always match the
groups its generators produce (``catalog.a6()`` has order 18, not 360).
Every group here carries the order it must have; the worker recomputes the
order with ``schreier_sims`` and a mismatch fails the run.

Generators are 1-based, in cycle notation or as image lists, exactly as a
``cayexp`` group file holds them. This module imports nothing from the
package so the benchmark client can write group files without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Group:
    name: str
    degree: int
    gens: tuple[str, ...]
    order: int

    def group_file(self) -> str:
        return "\n".join([f"degree {self.degree}", *self.gens]) + "\n"


def _image_list(images) -> str:
    return "[" + ",".join(str(i + 1) for i in images) + "]"


def _projective_line(q: int, mult: int) -> tuple[str, ...]:
    """x -> x+1, x -> mult*x and x -> -1/x on GF(q) u {inf}, q prime.

    mult a primitive root gives PGL(2, q); mult a non-trivial square gives
    PSL(2, q). Point q stands for infinity.
    """
    inf = q

    def shift(x):
        return inf if x == inf else (x + 1) % q

    def scale(x):
        return inf if x == inf else (mult * x) % q

    def invert(x):
        if x == inf:
            return 0
        return inf if x == 0 else (-pow(x, -1, q)) % q

    return tuple(_image_list([f(x) for x in range(q + 1)])
                 for f in (shift, scale, invert))


GROUPS = {g.name: g for g in [
    # solvable
    Group("A4", 4, ("(1 2 3)", "(2 3 4)"), 12),
    Group("S4", 4, ("(1 2 3 4)", "(1 2)"), 24),
    Group("Z6", 5, ("(1 2)(3 4 5)",), 6),
    Group("Z12", 7, ("(1 2 3 4)(5 6 7)",), 12),
    Group("Syl2_S8", 8, ("(1 2)", "(1 3)(2 4)", "(1 5)(2 6)(3 7)(4 8)"),
          128),
    # non-solvable, dense-verifiable
    Group("A5", 5, ("(1 2 3)", "(3 4 5)"), 60),
    Group("S5", 5, ("(1 2 3 4 5)", "(1 2)"), 120),
    Group("PGL2_5", 6, _projective_line(5, 2), 120),
    Group("PSL2_7", 8, _projective_line(7, 4), 168),
    Group("A6", 6, ("(1 2 3)", "(2 3 4 5 6)"), 360),
    Group("S6", 6, ("(1 2 3 4 5 6)", "(1 2)"), 720),
    # non-solvable, order 1e4 .. 5e4 (power-iteration verification)
    Group("PSL2_29", 30, _projective_line(29, 4), 12180),
    Group("A8", 8, ("(1 2 3)", "(2 3 4 5 6 7 8)"), 20160),
    Group("S8", 8, ("(1 2 3 4 5 6 7 8)", "(1 2)"), 40320),
]}
