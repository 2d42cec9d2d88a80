"""Chevalley-basis structure constants.

For each ordered root pair (gamma, delta) whose sum is a root, the bracket
of the corresponding basis vectors is N(gamma, delta) times the basis
vector of the sum, where |N| = m + 1 with m the largest q such that
delta - q*gamma is a root.  Signs are pinned by the extraspecial-pair
convention: order positive roots by height (then lexicographically); among
all ways to write a non-simple positive root as an ordered sum of two
positive roots, the pair whose first member is minimal gets the positive
sign, and all remaining constants are forced by the Jacobi identity,
bracket antisymmetry, and negation symmetry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .rootdata import Root, RootSystem


def _neg(gamma: Root) -> Root:
    return tuple(-c for c in gamma)


def _add(gamma: Root, delta: Root) -> Root:
    return tuple(g + d for g, d in zip(gamma, delta))


def _sub(gamma: Root, delta: Root) -> Root:
    return tuple(g - d for g, d in zip(gamma, delta))


class StructureConstants:
    """Bracket constants, signs, and coroot expansions for a root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._n: Dict[Tuple[Root, Root], int] = {}
        self._coroot: Dict[Root, Tuple[int, ...]] = {}
        for gamma in rs.roots:
            for delta in rs.roots:
                if _add(gamma, delta) in rs._root_set:
                    self._n[(gamma, delta)] = self._compute_n(gamma, delta)
        for beta in rs.roots:
            self._coroot[beta] = self._compute_coroot(beta)
        self._check()

    # -- public API -----------------------------------------------------

    def bracket_const(self, gamma: Root, delta: Root) -> int:
        """N with [e_gamma, e_delta] = N e_{gamma+delta}; requires the sum to be a root."""
        try:
            return self._n[(gamma, delta)]
        except KeyError:
            raise ValueError(f"{gamma} + {delta} is not a root") from None

    def coroot_coeffs(self, beta: Root) -> Tuple[int, ...]:
        """Coefficients of the coroot of beta over the simple coroots."""
        return self._coroot[beta]

    def table(self) -> List[dict]:
        """Full constant table in a JSON-friendly form."""
        rows = []
        for (gamma, delta), n in sorted(self._n.items()):
            rows.append(
                {
                    "first": list(gamma),
                    "second": list(delta),
                    "sum": list(_add(gamma, delta)),
                    "bracket_const": n,
                }
            )
        return rows

    # -- construction ---------------------------------------------------

    def _extraspecial(self, s: Root) -> Tuple[Root, Root]:
        rs = self.rs
        best = None
        for gamma in rs.positive_roots:
            delta = _sub(s, gamma)
            if delta in rs._root_set and rs._is_positive(delta):
                if rs._pos_index[gamma] <= rs._pos_index[delta]:
                    if best is None or rs._pos_index[gamma] < rs._pos_index[best[0]]:
                        best = (gamma, delta)
        if best is None:
            raise ValueError(f"{s} is not a sum of two positive roots")
        return best

    def _compute_n(self, gamma: Root, delta: Root) -> int:
        key = (gamma, delta)
        if key in self._n:
            return self._n[key]
        rs = self.rs
        s = _add(gamma, delta)
        g_pos = rs._is_positive(gamma)
        d_pos = rs._is_positive(delta)
        if g_pos and d_pos:
            if rs._pos_index[gamma] > rs._pos_index[delta]:
                val = -self._compute_n(delta, gamma)
            else:
                a1, b1 = self._extraspecial(s)
                if (gamma, delta) == (a1, b1):
                    val = rs.m_value(gamma, delta) + 1
                else:
                    val = self._jacobi_resolve(gamma, delta, a1, b1)
        elif not g_pos and not d_pos:
            val = -self._compute_n(_neg(gamma), _neg(delta))
        elif not g_pos:
            # Normalize so the first root is positive.
            val = -self._compute_n(delta, gamma)
        elif not rs._is_positive(s):
            val = -self._compute_n(_neg(gamma), _neg(delta))
        else:
            # gamma positive, delta negative, sum positive.  The cyclic
            # identity on the zero-sum triple (gamma, delta, -s) gives
            # N(gamma, delta) = |s|^2 / |gamma|^2 * N(delta, -s), and the
            # negation rule turns the right factor into a positive pair.
            ratio = Fraction(rs.ip(s, s), rs.ip(gamma, gamma))
            val_frac = -ratio * self._compute_n(_neg(delta), s)
            if val_frac.denominator != 1:
                raise RuntimeError("non-integral structure constant")
            val = int(val_frac)
        self._n[key] = val
        return val

    def _jacobi_resolve(self, gamma: Root, delta: Root, a1: Root, b1: Root) -> int:
        # Jacobi identity on (e_{-a1}, e_gamma, e_delta), where (a1, b1) is
        # the extraspecial pair for s = gamma + delta.  Solving for
        # N(gamma, delta) needs only constants of pairs of smaller height
        # or mixed sign.
        rs = self.rs
        s = _add(gamma, delta)
        na1 = _neg(a1)

        def bracket_pair(x: Root, y: Root) -> int:
            return self._compute_n(x, y) if _add(x, y) in rs._root_set else 0

        # t1 = [[e_{-a1}, e_gamma], e_delta] coefficient on e_{b1}.
        if gamma == a1:
            t1 = -rs.pairing(delta, a1)
        else:
            diff = _sub(gamma, a1)
            t1 = 0
            if diff in rs._root_set:
                t1 = self._compute_n(na1, gamma) * bracket_pair(diff, delta)
        # t2 = [[e_delta, e_{-a1}], e_gamma] coefficient on e_{b1}.
        if delta == a1:
            t2 = rs.pairing(gamma, a1)
        else:
            diff = _sub(delta, a1)
            t2 = 0
            if diff in rs._root_set:
                t2 = self._compute_n(delta, na1) * bracket_pair(diff, gamma)
        denom = self._compute_n(s, na1)
        val = Fraction(-(t1 + t2), denom)
        if val.denominator != 1:
            raise RuntimeError("non-integral structure constant from Jacobi step")
        return int(val)

    def _compute_coroot(self, beta: Root) -> Tuple[int, ...]:
        rs = self.rs
        d_beta = Fraction(rs.ip(beta, beta), 2)
        out = []
        for i in range(rs.rank):
            c = Fraction(beta[i] * rs.symmetrizer[i]) / d_beta
            if c.denominator != 1:
                raise RuntimeError("non-integral coroot coefficient")
            out.append(int(c))
        return tuple(out)

    def _check(self) -> None:
        rs = self.rs
        for (gamma, delta), n in self._n.items():
            if self._n[(delta, gamma)] != -n:
                raise RuntimeError("bracket constants are not antisymmetric")
            if abs(n) != rs.m_value(gamma, delta) + 1:
                raise RuntimeError("bracket constant magnitude mismatch")
