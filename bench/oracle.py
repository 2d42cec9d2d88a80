"""Expected answers computed apart from the engine, with ``hyperalg.qoracle``.

The oracle multiplies over Q in ordinary powers.  Everything that turns an
engine element into an oracle element, or an oracle answer into torus value
tables over F_p, lives here and uses Python integers and ``math.comb`` only:
no engine table operation (``HPart``, ``binom_h_*``, ``lucas_binom``) is
called, so a fault in those cannot hide in the expected answer.

An answer is compared as a dict ``(a, b) -> int64 table`` over weights
modulo p^level, with all-zero tables dropped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

Key = Tuple[Tuple[int, ...], Tuple[int, ...]]
Tables = Dict[Key, np.ndarray]


class OracleError(Exception):
    """The oracle answer cannot be represented at the requested level."""


def torus_table(h, p: int, level: int, rank: int) -> np.ndarray:
    """An engine torus part as a full int64 table over weights mod p^level."""
    shape = (p**level,) * rank
    return np.broadcast_to(np.asarray(h.arr, dtype=np.int64) % p, shape).copy()


def engine_tables(x, rank: int) -> Tables:
    """An engine element as ``(a, b) -> table``, zero tables dropped."""
    p = x.engine.p
    out: Tables = {}
    for (a, b), h in x.terms.items():
        tab = torus_table(h, p, x.level, rank)
        if tab.any():
            out[(tuple(a), tuple(b))] = tab
    return out


def same_tables(x: Tables, y: Tables) -> bool:
    return x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)


class Reducer:
    """Moves elements between the engine's F_p tables and the oracle over Q."""

    def __init__(self, qo, p: int, level: int):
        self.qo = qo
        self.p = p
        self.level = level
        self.rank = qo.rs.rank
        self.size = p**level
        # binom(x, d) mod p on x in [0, size), for every degree d < size
        self._binom = np.array(
            [[math.comb(x, d) % p for x in range(self.size)] for d in range(self.size)],
            dtype=np.int64,
        )
        # inverse of the binomial matrix: forward differences (-1)^(n-m) C(n, m)
        self._diff = np.array(
            [
                [(-1) ** (n - m) * math.comb(n, m) % p if m <= n else 0 for m in range(self.size)]
                for n in range(self.size)
            ],
            dtype=np.int64,
        )
        self._poly: Dict[int, Dict[int, Fraction]] = {}

    # -- oracle answer -> F_p tables --------------------------------------

    def tables(self, qelem) -> Tables:
        """Reduce an oracle element mod p into torus value tables."""
        p, size, rank = self.p, self.size, self.rank
        out: Tables = {}
        for (a, degs, b), coeff in self.qo.to_divided_basis(qelem).items():
            if coeff.denominator != 1:
                raise OracleError(f"coefficient {coeff} of {(a, degs, b)} is not integral")
            c = int(coeff) % p
            if c == 0:
                continue
            if max(degs, default=0) >= size:
                raise OracleError(f"binomial degree {max(degs)} needs a level above {self.level}")
            tab = np.full((size,) * rank, c, dtype=np.int64)
            for i, d in enumerate(degs):
                shape = [1] * rank
                shape[i] = size
                tab = tab * self._binom[d].reshape(shape) % p
            key = (tuple(a), tuple(b))
            out[key] = (out[key] + tab) % p if key in out else tab
        return {k: v for k, v in out.items() if v.any()}

    # -- engine element -> oracle element ---------------------------------

    def _binom_poly(self, d: int) -> Dict[int, Fraction]:
        """binom(h, d) as a polynomial in h over Q: power -> coefficient."""
        poly = self._poly.get(d)
        if poly is None:
            coeffs = [Fraction(1)]
            for t in range(d):
                # multiply by (h - t)
                new = [Fraction(0)] * (len(coeffs) + 1)
                for j, c in enumerate(coeffs):
                    new[j + 1] += c
                    new[j] -= t * c
                coeffs = new
            fd = math.factorial(d)
            poly = {j: c / fd for j, c in enumerate(coeffs) if c}
            self._poly[d] = poly
        return poly

    def binomial_coeffs(self, table: np.ndarray) -> Dict[Tuple[int, ...], int]:
        """Coefficients over products of Cartan binomials of degree < p^level."""
        arr = table.astype(np.int64) % self.p
        for axis in range(self.rank):
            arr = np.moveaxis(np.tensordot(self._diff, arr, axes=([1], [axis])), 0, axis) % self.p
        return {tuple(int(v) for v in idx): int(arr[idx]) for idx in zip(*np.nonzero(arr))}

    def to_q(self, tables: Tables):
        """An element given by its tables, lifted to an oracle element over Q."""
        out: Dict = {}
        for (a, b), tab in tables.items():
            denom = math.prod(math.factorial(n) for n in a) * math.prod(math.factorial(n) for n in b)
            for degs, c in self.binomial_coeffs(tab).items():
                terms = {(): Fraction(c, denom)}
                for d in degs:
                    poly = self._binom_poly(d)
                    terms = {k + (j,): v * pc for k, v in terms.items() for j, pc in poly.items()}
                for cvec, v in terms.items():
                    key = (a, cvec, b)
                    new = out.get(key, Fraction(0)) + v
                    if new:
                        out[key] = new
                    else:
                        out.pop(key, None)
        return out
