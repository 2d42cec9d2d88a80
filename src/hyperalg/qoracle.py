"""Brute-force oracle over the rationals.

Elements of the classical universal enveloping algebra are kept as linear
combinations of ordered monomials in ordinary (non-divided) powers: a
lowering block, a Cartan block, and a raising block, each in convex order.
Divided powers are realized literally as e^n / n!.  The oracle exists to
derive ground truth for the F_p fast path; it is exact and slow.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .chevalley import StructureConstants
from .rootdata import Root, RootSystem

# Monomial key: (a, c, b) with a = lowering exponents (by convex index),
# c = Cartan exponents, b = raising exponents (by convex index).
MonoKey = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
QElement = Dict[MonoKey, Fraction]

# Generator tags: ("f", k) / ("e", k) with k a convex index, ("h", i) with
# i a simple index.
Gen = Tuple[str, int]


class NotInZFormError(ValueError):
    """Raised when an element fails to lie in the divided-power integral form."""


def _stirling2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    # Triangular recurrence, small inputs only.
    row = [1] + [0] * n
    for m in range(1, n + 1):
        new = [0] * (n + 1)
        for j in range(1, m + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


class QOracle:
    """Exact-rational PBW arithmetic bound to one root system."""

    def __init__(self, rs: RootSystem, sc: StructureConstants | None = None):
        self.rs = rs
        self.sc = sc if sc is not None else StructureConstants(rs)
        self.nu = rs.num_positive
        self._gen_cache: Dict[Tuple[MonoKey, Gen], QElement] = {}

    # -- constructors ---------------------------------------------------

    def unit(self) -> QElement:
        zero_nu = (0,) * self.nu
        zero_l = (0,) * self.rs.rank
        return {(zero_nu, zero_l, zero_nu): Fraction(1)}

    def q_divided(self, gamma: Root, n: int) -> QElement:
        """Divided power of the root vector for gamma: e^n / n!."""
        if n < 0:
            return {}
        if n == 0:
            return self.unit()
        a = [0] * self.nu
        b = [0] * self.nu
        if self.rs._is_positive(gamma):
            b[self.rs.convex_index(gamma)] = n
        else:
            neg = tuple(-x for x in gamma)
            a[self.rs.convex_index(neg)] = n
        zero_l = (0,) * self.rs.rank
        return {(tuple(a), zero_l, tuple(b)): Fraction(1, math.factorial(n))}

    def h_power(self, i: int, n: int) -> QElement:
        c = [0] * self.rs.rank
        c[i] = n
        zero_nu = (0,) * self.nu
        return {(zero_nu, tuple(c), zero_nu): Fraction(1)}

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def add_into(acc: QElement, other: QElement, scale: Fraction = Fraction(1)) -> None:
        for key, coeff in other.items():
            new = acc.get(key, Fraction(0)) + coeff * scale
            if new:
                acc[key] = new
            else:
                acc.pop(key, None)

    def q_multiply(self, x: QElement, y: QElement) -> QElement:
        result: QElement = {}
        for key_y, coeff_y in y.items():
            part = x
            for gen in self._key_gens(key_y):
                part = self._mul_by_gen(part, gen)
            self.add_into(result, part, coeff_y)
        return result

    def multiply_divided(self, factors: Iterable[Tuple[Root, int]]) -> QElement:
        """Ordered product of divided powers."""
        out = self.unit()
        for gamma, n in factors:
            out = self.q_multiply(out, self.q_divided(gamma, n))
        return out

    def bracket(self, gamma: Root, delta: Root) -> QElement:
        """Commutator of two root vectors, as an oracle element."""
        x = self.q_divided(gamma, 1)
        y = self.q_divided(delta, 1)
        out = self.q_multiply(x, y)
        self.add_into(out, self.q_multiply(y, x), Fraction(-1))
        return out

    def _key_gens(self, key: MonoKey) -> List[Gen]:
        a, c, b = key
        gens: List[Gen] = []
        for k, n in enumerate(a):
            gens.extend([("f", k)] * n)
        for i, n in enumerate(c):
            gens.extend([("h", i)] * n)
        for k, n in enumerate(b):
            gens.extend([("e", k)] * n)
        return gens

    def _mul_by_gen(self, x: QElement, gen: Gen) -> QElement:
        result: QElement = {}
        for key, coeff in x.items():
            self.add_into(result, self._mono_times_gen(key, gen), coeff)
        return result

    def _single(self, gen: Gen) -> MonoKey:
        a = [0] * self.nu
        c = [0] * self.rs.rank
        b = [0] * self.nu
        kind, idx = gen
        if kind == "f":
            a[idx] = 1
        elif kind == "h":
            c[idx] = 1
        else:
            b[idx] = 1
        return (tuple(a), tuple(c), tuple(b))

    def _last_gen(self, key: MonoKey) -> Gen | None:
        a, c, b = key
        for k in range(self.nu - 1, -1, -1):
            if b[k]:
                return ("e", k)
        for i in range(self.rs.rank - 1, -1, -1):
            if c[i]:
                return ("h", i)
        for k in range(self.nu - 1, -1, -1):
            if a[k]:
                return ("f", k)
        return None

    def _strip(self, key: MonoKey, gen: Gen) -> MonoKey:
        a, c, b = [list(t) for t in key]
        kind, idx = gen
        if kind == "e":
            b[idx] -= 1
        elif kind == "h":
            c[idx] -= 1
        else:
            a[idx] -= 1
        return (tuple(a), tuple(c), tuple(b))

    def _append_ok(self, key: MonoKey, gen: Gen) -> bool:
        # True when appending gen on the right keeps the monomial ordered.
        a, c, b = key
        kind, idx = gen
        if kind == "e":
            return all(b[k] == 0 for k in range(idx + 1, self.nu))
        if kind == "h":
            return all(b[k] == 0 for k in range(self.nu)) and all(
                c[i] == 0 for i in range(idx + 1, self.rs.rank)
            )
        return (
            all(b[k] == 0 for k in range(self.nu))
            and all(c[i] == 0 for i in range(self.rs.rank))
            and all(a[k] == 0 for k in range(idx + 1, self.nu))
        )

    def _append(self, key: MonoKey, gen: Gen) -> MonoKey:
        a, c, b = [list(t) for t in key]
        kind, idx = gen
        if kind == "e":
            b[idx] += 1
        elif kind == "h":
            c[idx] += 1
        else:
            a[idx] += 1
        return (tuple(a), tuple(c), tuple(b))

    def _gen_root(self, gen: Gen) -> Root:
        kind, idx = gen
        beta = self.rs.convex_roots[idx]
        if kind == "e":
            return beta
        if kind == "f":
            return tuple(-x for x in beta)
        raise ValueError("Cartan generators carry no root")

    def _commutator(self, g1: Gen, g2: Gen) -> QElement:
        """[g1, g2] as an oracle element (small combination of generators)."""
        rs = self.rs
        k1, _ = g1
        k2, _ = g2
        if k1 == "h" and k2 == "h":
            return {}
        if k1 == "h" or k2 == "h":
            hgen, other, sign = (
                (g1, g2, 1) if k1 == "h" else (g2, g1, -1)
            )
            gamma = self._gen_root(other)
            coeff = rs.pairing(gamma, rs.simple(hgen[1])) * sign
            if coeff == 0:
                return {}
            return {self._single(other): Fraction(coeff)}
        gamma = self._gen_root(g1)
        delta = self._gen_root(g2)
        if delta == tuple(-x for x in gamma):
            # [e_gamma, e_{-gamma}] is the coroot of gamma (up to sign).
            base = gamma if rs._is_positive(gamma) else delta
            sign = 1 if rs._is_positive(gamma) else -1
            out: QElement = {}
            for i, d in enumerate(self.sc.coroot_coeffs(base)):
                if d:
                    self.add_into(out, self.h_power(i, 1), Fraction(d * sign))
            return out
        total = tuple(g + d for g, d in zip(gamma, delta))
        if total not in rs._root_set:
            return {}
        n = self.sc.bracket_const(gamma, delta)
        kind = "e" if rs._is_positive(total) else "f"
        pos = total if kind == "e" else tuple(-x for x in total)
        return {self._single((kind, rs.convex_index(pos))): Fraction(n)}

    def _mono_times_gen(self, key: MonoKey, gen: Gen) -> QElement:
        cached = self._gen_cache.get((key, gen))
        if cached is not None:
            return cached
        if self._append_ok(key, gen):
            result = {self._append(key, gen): Fraction(1)}
        else:
            last = self._last_gen(key)
            head = self._strip(key, last)
            # key*gen = (head*gen)*last + head*[last, gen]
            result = {}
            mid = self._mono_times_gen(head, gen)
            for k2, c2 in self._mul_by_gen(mid, last).items():
                self.add_into(result, {k2: c2})
            comm = self._commutator(last, gen)
            for ck, cc in comm.items():
                cgen = self._last_gen(ck)
                part = self._mono_times_gen(head, cgen)
                self.add_into(result, part, cc)
        self._gen_cache[(key, gen)] = result
        return result

    # -- reduction to the F_p divided-power form ------------------------

    def to_divided_basis(self, x: QElement) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]], Fraction]:
        """Rewrite over divided powers and Cartan binomials.

        Keys are (a, m, b): divided-power exponents for the lowering and
        raising blocks and degrees of per-simple-coroot binomial
        coefficients.  Coefficients stay rational; integrality is checked
        in reduce_mod_p.
        """
        out: Dict[Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]], Fraction] = {}
        rank = self.rs.rank
        for (a, c, b), coeff in x.items():
            scale = coeff
            for n in a:
                scale *= math.factorial(n)
            for n in b:
                scale *= math.factorial(n)
            # Expand each Cartan power over binomial coefficients:
            # h^n = sum_k S2(n, k) k! binom(h, k).
            expansions: List[List[Tuple[int, Fraction]]] = []
            for i in range(rank):
                n = c[i]
                exp = []
                for k in range(n + 1):
                    s2 = _stirling2(n, k)
                    if s2:
                        exp.append((k, Fraction(s2 * math.factorial(k))))
                expansions.append(exp)
            stack = [((), Fraction(1))]
            for exp in expansions:
                stack = [
                    (degs + (k,), f * fk) for degs, f in stack for k, fk in exp
                ]
            for degs, f in stack:
                key = (a, degs, b)
                new = out.get(key, Fraction(0)) + scale * f
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        return out

    def reduce_mod_p(self, x: QElement, p: int, level: int):
        """Image in the F_p algebra at the given torus level.

        The torus tables are computed here from math.comb in int64, apart
        from the engine's table code; the engine's element and torus-part
        classes only hold the result.
        """
        from .straighten import Engine, HPart, PBWElement

        size = p**level
        rank = self.rs.rank
        tables: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], np.ndarray] = {}
        binom: Dict[int, np.ndarray] = {}
        for (a, degs, b), coeff in self.to_divided_basis(x).items():
            if coeff.denominator != 1:
                raise NotInZFormError(
                    f"coefficient {coeff} of divided monomial {(a, degs, b)} "
                    "is not an integer"
                )
            scalar = int(coeff) % p
            if scalar == 0:
                continue
            if max(degs, default=0) >= size:
                raise NotInZFormError("torus level too small for reduction")
            # value at weight lam: scalar * prod_i binom(lam_i, degs_i) mod p
            tab = np.full((size,) * rank, scalar, dtype=np.int64)
            for i, d in enumerate(degs):
                if d not in binom:
                    binom[d] = np.array(
                        [math.comb(v, d) % p for v in range(size)], dtype=np.int64
                    )
                shape = [1] * rank
                shape[i] = size
                tab = tab * binom[d].reshape(shape) % p
            key = (a, b)
            tables[key] = (tables[key] + tab) % p if key in tables else tab
        terms = {
            key: HPart(tab, p, level) for key, tab in tables.items() if tab.any()
        }
        return PBWElement(Engine(self.rs, p, sc=self.sc), level, terms)
