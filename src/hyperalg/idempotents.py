"""Primitive torus idempotents and restricted weight sets.

The idempotent attached to a weight and a level is the product of Cartan
binomial coefficients that evaluates to the indicator function of the
weight's coset modulo p^level; the weights with all coroot pairings in
{0, ..., p^m - 1} form a transversal of those cosets.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Tuple

from .rootdata import RootSystem, Weight
from .straighten import Engine, HPart, InsufficientLevelError, PBWElement


def enumerate_Xm(rs: RootSystem, p: int, m: int) -> List[Weight]:
    """Weights with every simple-coroot pairing in {0, ..., p^m - 1}."""
    if m < 0:
        raise ValueError("level must be nonnegative")
    return [tuple(w) for w in product(range(p**m), repeat=rs.rank)]


def mu_hpart(engine: Engine, lam: Weight, n: int, level: int) -> HPart:
    """Torus table of the idempotent: its defining binomial product, the
    product over i of binom(h_i - lam_i - 1, p^n - 1)."""
    if len(lam) != engine.rs.rank:
        raise ValueError(f"weight {tuple(lam)} has {len(lam)} entries, not rank {engine.rs.rank}")
    if n < 0:
        raise ValueError(f"depth n={n} must be nonnegative")
    if n > level:
        raise InsufficientLevelError(
            f"idempotent at level {n} needs torus level at least {n}"
        )
    deg = engine.p**n - 1
    out = engine.binom_h_simple(0, deg, level)
    for i in range(1, engine.rs.rank):
        out = out.mul(engine.binom_h_simple(i, deg, level))
    # binom(h_i, p^n - 1) is the indicator of h_i = -1 modulo p^n.
    return out.shift(tuple(-(x + 1) for x in lam))


def mu_lambda(engine: Engine, lam: Weight, n: int, level: int) -> PBWElement:
    """Idempotent as an element: indicator of the coset of lam modulo p^n."""
    return engine.hpart_element(mu_hpart(engine, lam, n, level), level)


def mu_binomial_coeffs(
    engine: Engine, lam: Weight, n: int, level: int
) -> Dict[Tuple[int, ...], int]:
    """Binomial-basis expansion of the idempotent (independent test route)."""
    return engine.hpart_to_binomial_basis(mu_hpart(engine, lam, n, level))
