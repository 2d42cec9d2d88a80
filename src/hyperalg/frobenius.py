"""Frobenius endomorphism and its splitting.

The Frobenius endomorphism divides divided-power exponents by p (killing
exponents that p does not divide) and shifts torus-table digits down.
The splitting goes the other way: it multiplies exponents of simple-root
divided powers by p, is multiplicative on the raising, lowering, and
torus subalgebras separately, and extends to the whole algebra termwise
through the triangular decomposition.  Evaluating the splitting on a
divided power of a non-simple root requires rewriting it as a
combination of words in simple divided powers first; the rewriting table
is built lazily per weight block by one F_p row reduction
(`linalg.row_reduce`) of the block's word matrix next to an identity.
The one-sign images are exponent vector -> scalar dicts multiplied by
`Engine.fold_signed`, so Fr'(f^(a) H e^(b)) is a sum of monomials
f^(c) H' e^(d) already in normal form, which `fr_prime` writes directly.
"""

from __future__ import annotations

import numpy as np

from typing import Dict, List, Tuple

from .linalg import row_reduce
from .straighten import (Engine, HPart, InsufficientLevelError, PBWElement, _accumulate,
                         _add_scaled, exps_of_weight, exps_sum)

# A word is a product of simple-root divided powers, stored as a tuple of
# (simple index, exponent) with adjacent indices distinct.
Word = Tuple[Tuple[int, int], ...]


class SimpleWordTable:
    """Expresses one-sign PBW monomials over words in simple divided powers."""

    def __init__(self, engine: Engine, sign: int = +1):
        self.engine = engine
        self.sign = sign
        self._blocks: Dict[Tuple[int, ...], Dict] = {}

    def express(self, exps: Tuple[int, ...]) -> List[Tuple[int, Word]]:
        """Combination of simple words straightening to the given monomial."""
        mu = exps_sum(exps, self.engine.rs.convex_roots)
        block = self._block(mu)
        try:
            return block[exps]
        except KeyError:
            raise RuntimeError(f"monomial {exps} missing from weight block {mu}")

    # -- block construction ---------------------------------------------

    def _words_of_weight(self, mu: Tuple[int, ...]) -> List[Word]:
        rank = self.engine.rs.rank
        out: List[Word] = []

        def rec(rem: Tuple[int, ...], prev: int, acc: Word):
            if all(x == 0 for x in rem):
                out.append(acc)
                return
            for i in range(rank):
                if i == prev or rem[i] == 0:
                    continue
                for n in range(1, rem[i] + 1):
                    new = list(rem)
                    new[i] -= n
                    rec(tuple(new), i, acc + ((i, n),))

        rec(mu, -1, ())
        return out

    def _block(self, mu: Tuple[int, ...]) -> Dict:
        cached = self._blocks.get(mu)
        if cached is not None:
            return cached
        engine = self.engine
        rs = engine.rs
        p = engine.p
        words = self._words_of_weight(mu)
        monos = exps_of_weight(mu, rs.convex_roots)
        mono_index = {m: i for i, m in enumerate(monos)}
        nrows, ncols = len(monos), len(words)
        mat = np.zeros((nrows, ncols), dtype=np.int64)
        simple_idx = [rs.convex_index(rs.simple(i)) for i in range(rs.rank)]
        for j, word in enumerate(words):
            signed = tuple((simple_idx[i], n) for i, n in word)
            for vec, c in engine.straighten_signed(signed, self.sign).items():
                mat[mono_index[vec], j] = c
        # Row reduce [mat | I]; the simple words span the block exactly when
        # every pivot falls in mat, and then the identity half turns each
        # unit vector into a word combination.
        aug = np.concatenate([mat, np.eye(nrows, dtype=np.int64)], axis=1) % p
        pivots = row_reduce(aug, p)
        if pivots[-1] >= ncols:
            raise RuntimeError(f"simple words fail to span weight block {mu}")
        block: Dict[Tuple[int, ...], List[Tuple[int, Word]]] = {}
        for mono, t in mono_index.items():
            combo: List[Tuple[int, Word]] = []
            for i, col in enumerate(pivots):
                c = int(aug[i, ncols + t])
                if c:
                    combo.append((c, words[col]))
            block[mono] = combo
        self._blocks[mu] = block
        return block


class Frobenius:
    """Fr and its splitting, bound to one engine."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._table_plus = SimpleWordTable(engine, +1)
        self._table_minus = SimpleWordTable(engine, -1)
        self._split_cache: Dict = {}

    # -- the endomorphism ------------------------------------------------

    def fr(self, x: PBWElement) -> PBWElement:
        """Divide all exponents by p; kill terms with a non-divisible one."""
        p = self.engine.p
        out: Dict = {}
        for (a, b), h in x.terms.items():
            if any(v % p for v in a) or any(v % p for v in b):
                continue
            # A side-1 (constant) table is fixed: its index is [0].
            size = h.arr.shape[-1]
            idx = (p * np.arange(size)) % size
            h2 = HPart(h.arr[np.ix_(*([idx] * self.engine.rs.rank))], p, x.level)
            if not h2.is_zero():
                key = (tuple(v // p for v in a), tuple(v // p for v in b))
                _accumulate(out, key, h2)
        return PBWElement(self.engine, x.level, out)

    def fr_power(self, x: PBWElement, r: int) -> PBWElement:
        if r < 0:
            raise ValueError(f"depth r={r} must be nonnegative")
        for _ in range(r):
            x = self.fr(x)
        return x

    # -- the splitting ---------------------------------------------------

    def _split_root_power(self, k: int, n: int, sign: int, r: int) -> Dict:
        """Image of g_k^(n), g_k the k-th convex root of the given sign,
        under the one-sign splitting, as exponent vector -> scalar."""
        key = (k, n, sign, r)
        cached = self._split_cache.get(key)
        if cached is not None:
            return cached
        engine = self.engine
        rs = engine.rs
        q = engine.p**r
        exps = tuple(n if j == k else 0 for j in range(rs.num_positive))
        if sum(rs.convex_roots[k]) == 1:
            result = {tuple(v * q for v in exps): 1}
        else:
            table = self._table_plus if sign > 0 else self._table_minus
            simple_idx = [rs.convex_index(rs.simple(i)) for i in range(rs.rank)]
            result = {}
            for c, word in table.express(exps):
                scaled = tuple((simple_idx[i], m * q) for i, m in word)
                _add_scaled(result, engine.straighten_signed(scaled, sign), c, engine.p)
        self._split_cache[key] = result
        return result

    def _split_block(self, exps: Tuple[int, ...], sign: int, r: int) -> Dict:
        """Image of the monomial g^(exps) of the given sign, as exponent
        vector -> scalar."""
        engine = self.engine
        out = {(0,) * engine.nu: 1}
        for k, n in enumerate(exps):
            if n:
                out = engine.fold_signed([out], self._split_root_power(k, n, sign, r), sign)[0]
        return out

    def fr_prime_plus(self, x: PBWElement, r: int = 1) -> PBWElement:
        """Splitting on the raising subalgebra; input must be raising-only."""
        if any(any(a) or not h.is_periodic(0) for (a, _), h in x.terms.items()):
            raise ValueError("element is not supported on a single sign")
        return self.fr_prime(x, r)

    def fr_prime_minus(self, x: PBWElement, r: int = 1) -> PBWElement:
        """Splitting on the lowering subalgebra; input must be lowering-only."""
        if any(any(b) or not h.is_periodic(0) for (_, b), h in x.terms.items()):
            raise ValueError("element is not supported on a single sign")
        return self.fr_prime(x, r)

    def fr_prime_zero(self, h: HPart, r: int = 1) -> HPart:
        """Splitting on the torus part: binomial degrees n -> n*p^r."""
        if not h.is_periodic(h.level - r):
            raise InsufficientLevelError(
                "torus level too small to apply the splitting"
            )
        # A side-1 (constant) table is fixed: its index is [0].
        idx = np.arange(h.arr.shape[-1]) // (h.p**r)
        return HPart(h.arr[np.ix_(*([idx] * h.arr.ndim))], h.p, h.level)

    def fr_prime(self, x: PBWElement, r: int = 1) -> PBWElement:
        """Splitting on the whole algebra, termwise over triangular factors."""
        if r < 0:
            raise ValueError(f"depth r={r} must be nonnegative")
        out: Dict = {}
        for (a, b), h in x.terms.items():
            fpart = self._split_block(a, -1, r)
            epart = self._split_block(b, +1, r)
            h2 = self.fr_prime_zero(h, r)
            for c, sc in fpart.items():
                for d, sd in epart.items():
                    _accumulate(out, (c, d), h2.scale(sc * sd))
        return PBWElement(self.engine, x.level, out)
