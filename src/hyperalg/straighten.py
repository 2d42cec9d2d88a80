"""Production F_p engine: PBW elements and normal-form multiplication.

An element is stored in triangular normal form: a linear combination of
terms f^(a) * H * e^(b), where the lowering and raising blocks are
divided-power monomials in convex order and H is a torus part.  Torus
parts are kept as value tables on weight space modulo p^N (the level N
must satisfy p^N > every Cartan binomial degree that can arise, which the
engine checks); a table that is constant in the weight has side 1 and
broadcasts to the full table, so a constant costs one entry.
Multiplication rewrites words of divided powers in one loop,
`Engine.straighten_items`: an item is (slot, n) with lowering slots
0..nu-1 and raising slots nu..2nu-1 in convex order, and a word is normal
when its slots strictly increase.  A torus part commutes with a divided
power u up to a shift of weight, u * H = H(. - wt u) * u, so the loop
keeps one table left of each word instead of torus items in it.  It
applies same-root merges, the raising/lowering collision rule, commuting
and the rank-2 reorder patterns; the raising x lowering products of
`multiply` are a memoized adapter over it.  The reorder patterns are
data: each output root carries a factor (k, *names), an integer times
named bracket constants, and the output monomials are the exponent
vectors of the pair's weight over the pattern's base coordinates, which
`exps_of_weight` enumerates as the inverse of `exps_sum`.  One-sign
products are scalar dicts, folded by `fold_signed` right to left one
divided power at a time; a step that lands at or left of the monomial's
first slot is a juxtaposition or one Lucas merge, any other one memoized
`straighten_items` call.
"""

from __future__ import annotations

import math

import numpy as np

from typing import Dict, List, Optional, Sequence, Tuple

from .chevalley import StructureConstants
from .linalg import row_reduce
from .rootdata import Root, RootSystem, Weight, base_coords

_STEP_LIMIT = 50_000_000
# Torus tables are int16: a product of two residues must fit.
_TABLE_MAX = int(np.iinfo(np.int16).max)


class InsufficientLevelError(ValueError):
    """The torus level is too small for a binomial degree that arose."""


def lucas_binom(m: int, n: int, p: int) -> int:
    """Binomial coefficient modulo p, one base-p digit at a time (Lucas)."""
    if n < 0 or m < 0:
        raise ValueError("lucas_binom expects nonnegative arguments")
    result = 1
    while n and result:
        result = result * math.comb(m % p, n % p) % p
        m, n = m // p, n // p
    return result


def exps_sum(exps: Sequence[int], vectors: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Coordinatewise sum of exps[k] * vectors[k]."""
    out = [0] * len(vectors[0])
    for n, vec in zip(exps, vectors):
        if n:
            for i, v in enumerate(vec):
                out[i] += n * v
    return tuple(out)


def exps_of_weight(
    target: Sequence[int], vectors: Sequence[Sequence[int]]
) -> List[Tuple[int, ...]]:
    """Every exps >= 0 with exps_sum(exps, vectors) == target, in
    lexicographic order.

    The target and vectors have two coordinates, the vectors are
    nonnegative and nonzero, and the last two are not proportional: all
    but the last two exponents are enumerated, and those two solved by
    `base_coords`.
    """
    if len(target) != 2:
        raise ValueError(f"exps_of_weight needs a rank-2 target, not {tuple(target)}")
    *mids, s, t = vectors
    out: List[Tuple[int, ...]] = []

    def rec(rem: Tuple[int, int], acc: Tuple[int, ...]) -> None:
        if len(acc) == len(mids):
            xy = base_coords(rem, s, t)
            if xy is not None and min(xy) >= 0:
                out.append(acc + xy)
            return
        v = mids[len(acc)]
        bound = min(rem[i] // v[i] for i in range(2) if v[i] > 0)
        for n in range(bound + 1):
            rec((rem[0] - n * v[0], rem[1] - n * v[1]), acc + (n,))

    rec(tuple(target), ())
    return out


# (table side, rank, weight mod side) -> flat index of the shifted table,
# or None for the zero shift.  Shared by all engines, so that a fresh
# engine finds its indices built; a table shape holds at most side^rank
# entries of side^rank indices each.
_SHIFT_INDEX: Dict[Tuple[int, int, Tuple[int, ...]], Optional[np.ndarray]] = {}


def _shift_index(size: int, rank: int, w: Tuple[int, ...]) -> Optional[np.ndarray]:
    if not any(w):
        return None
    flat = np.zeros((size,) * rank, dtype=np.intp)
    for grid, wi in zip(np.indices((size,) * rank), w):
        flat = flat * size + (grid + wi) % size
    return flat


# (table side, rank, coroot coefficients) -> index into a binomial lookup
# table: entry lam of the index is <lam, coroot> mod side.  The constant c
# of binom(h + c, n) lives in the lookup table (Engine._lut), so one index
# serves every c.  Shared by all engines, like _SHIFT_INDEX.
_ROOT_INDEX: Dict[Tuple[int, int, Tuple[int, ...]], np.ndarray] = {}


def _root_index(size: int, rank: int, coeffs: Tuple[int, ...]) -> np.ndarray:
    grids = np.indices((size,) * rank)
    idx = np.zeros((size,) * rank, dtype=np.int64)
    for i, d in enumerate(coeffs):
        if d:
            idx = idx + d * grids[i]
    return idx % size


class HPart:
    """Torus part as an F_p value table on weights modulo p^level.

    The table's trailing rank axes are the weight axes.  Each has side
    p^level, or all have side 1 for a table that is constant in the weight
    (`ones` makes that form); a side-1 table broadcasts to the full one,
    which is the table it stands for.  Leading axes, if any, are batch axes
    holding several tables at once: shift, mul, scale and add act on each
    batch entry alike (mul, add and equals broadcast), and the part is
    zero only when every entry is.  value and is_periodic take tables
    without batch axes.
    """

    __slots__ = ("arr", "p", "level")

    def __init__(self, arr: np.ndarray, p: int, level: int):
        self.arr = arr
        self.p = p
        self.level = level

    @classmethod
    def ones(cls, p: int, level: int, rank: int) -> "HPart":
        cls._shape(p, level, rank)  # refuses level < 1
        return cls(np.ones((1,) * rank, dtype=np.int16), p, level)

    @staticmethod
    def _shape(p: int, level: int, rank: int) -> Tuple[int, ...]:
        if level < 1:
            raise ValueError(f"torus level {level} must be at least 1")
        return (p**level,) * rank

    def is_zero(self) -> bool:
        return not self.arr.any()

    def equals(self, other: "HPart") -> bool:
        return (
            self.p == other.p
            and self.level == other.level
            and np.array_equal(*np.broadcast_arrays(self.arr, other.arr))
        )

    def add(self, other: "HPart") -> "HPart":
        self._compat(other)
        return HPart((self.arr + other.arr) % self.p, self.p, self.level)

    def mul(self, other: "HPart") -> "HPart":
        self._compat(other)
        return HPart((self.arr * other.arr) % self.p, self.p, self.level)

    def scale(self, scalar: int) -> "HPart":
        return HPart((self.arr * (scalar % self.p)) % self.p, self.p, self.level)

    def shift(self, w: Weight) -> "HPart":
        """Table for lam -> value at lam + w, on each batch entry."""
        arr = self.arr
        size = arr.shape[-1]
        if size == 1:
            return self  # a constant table; tables are never written in place
        rank = len(w)
        key = (size, rank, tuple(wi % size for wi in w))
        try:
            idx = _SHIFT_INDEX[key]
        except KeyError:
            idx = _SHIFT_INDEX[key] = _shift_index(*key)
        if idx is None:
            return self
        flat = arr.reshape(arr.shape[:-rank] + (-1,))
        return HPart(flat.take(idx, axis=-1), self.p, self.level)

    def is_periodic(self, r: int) -> bool:
        """True when the table depends only on the weight modulo p^max(r, 0)."""
        if r >= self.level:
            return True
        period = self.p ** max(r, 0)
        for axis in range(self.arr.ndim):
            if not np.array_equal(self.arr, np.roll(self.arr, period, axis=axis)):
                return False
        return True

    def value(self, lam: Sequence[int]) -> int:
        idx = tuple(int(x) % size for x, size in zip(lam, self.arr.shape))
        return int(self.arr[idx])

    def _compat(self, other: "HPart") -> None:
        if self.p != other.p or self.level != other.level:
            raise ValueError("torus-part prime/level mismatch")


# A word item during straightening: (slot, exponent), see Engine.straighten_items.
Item = Tuple[int, int]


def _add_scaled(out: Dict, d: Dict, c: int, p: int) -> None:
    """Add c times the scalar dict d into out mod p, dropping zero sums."""
    for v, s in d.items():
        total = (out.get(v, 0) + c * s) % p
        if total:
            out[v] = total
        else:
            out.pop(v, None)


def _accumulate(terms: Dict, key, h: HPart) -> None:
    """Add the nonzero torus part h to terms[key], dropping the key on a
    zero sum."""
    old = terms.get(key)
    if old is not None:
        h = old.add(h)
        if h.is_zero():
            del terms[key]
            return
    terms[key] = h


class PBWElement:
    """F_p-linear combination of triangular divided-power monomials."""

    __slots__ = ("engine", "level", "terms")

    def __init__(self, engine: "Engine", level: int, terms: Optional[Dict] = None):
        self.engine = engine
        self.level = level
        self.terms: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], HPart] = terms or {}

    # -- ring operations ------------------------------------------------

    def add(self, other: "PBWElement") -> "PBWElement":
        self._compat(other)
        terms = dict(self.terms)
        for key, h in other.terms.items():
            _accumulate(terms, key, h)
        return PBWElement(self.engine, self.level, terms)

    def sub(self, other: "PBWElement") -> "PBWElement":
        return self.add(other.scale(-1))

    def scale(self, scalar: int) -> "PBWElement":
        scalar %= self.engine.p
        if scalar == 0:
            return PBWElement(self.engine, self.level, {})
        return PBWElement(
            self.engine, self.level, {k: h.scale(scalar) for k, h in self.terms.items()}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def equals(self, other: "PBWElement") -> bool:
        return self.sub(other).is_zero()

    # -- structure ------------------------------------------------------

    def in_truncation(self, r: int) -> bool:
        bound = self.engine.p**r
        for (a, b), h in self.terms.items():
            if any(x >= bound for x in a) or any(x >= bound for x in b):
                return False
            if not h.is_periodic(r):
                return False
        return True

    def _compat(self, other: "PBWElement") -> None:
        if (
            self.engine.rs is not other.engine.rs
            or self.engine.p != other.engine.p
            or self.level != other.level
        ):
            raise ValueError("element engine/level mismatch")


class Engine:
    """Multiplication engine bound to one root system and prime."""

    def __init__(self, rs: RootSystem, p: int, sc: Optional[StructureConstants] = None):
        if p > 1 and (p - 1) ** 2 > _TABLE_MAX:
            raise ValueError(
                f"p={p} is too large: products of residues overflow the int16 torus tables"
            )
        if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"p={p} is not a prime")
        self.rs = rs
        self.p = p
        self.sc = sc if sc is not None else StructureConstants(rs)
        self.nu = rs.num_positive
        self.convex_weights = [rs.weight_coords(b) for b in rs.convex_roots]
        # Root and weight of each word slot (see straighten_items), and the
        # slot of each root.
        self._slot_root = [tuple(-x for x in g) for g in rs.convex_roots]
        self._slot_root += list(rs.convex_roots)
        self._slot_weight = [rs.weight_coords(g) for g in self._slot_root]
        self._root_slot = {g: s for s, g in enumerate(self._slot_root)}
        self._reorder_cache: Dict = {}
        self._signed_cache: Dict = {}
        self._mid_cache: Dict = {}
        self._binom_lut: Dict = {}
        self._weight_cache: Dict[int, Dict] = {1: {}, -1: {}}
        self._mul_signed_cache: Dict = {}
        self._step_cache: Dict = {}
        self._ones: Dict[int, HPart] = {}

    # -- weights --------------------------------------------------------

    def exps_weight(self, exps: Tuple[int, ...], sign: int = 1) -> Weight:
        """Weight of e^(exps) (sign +1) or f^(exps) (sign -1), memoized."""
        cache = self._weight_cache[sign]
        w = cache.get(exps)
        if w is None:
            w = exps_sum(exps, self.convex_weights)
            w = cache[exps] = w if sign > 0 else tuple(-x for x in w)
        return w

    def term_weight(self, key) -> Weight:
        """Weight of the monomial f^(a) * H * e^(b), for key (a, b)."""
        a, b = key
        return tuple(
            x + y for x, y in zip(self.exps_weight(a, -1), self.exps_weight(b))
        )

    # -- constructors ---------------------------------------------------

    def zero(self, level: int) -> PBWElement:
        return PBWElement(self, level, {})

    def hpart_one(self, level: int) -> HPart:
        """The constant one table at this level, shared and read-only."""
        one = self._ones.get(level)
        if one is None:
            one = self._ones[level] = HPart.ones(self.p, level, self.rs.rank)
            one.arr.flags.writeable = False
        return one

    def one(self, level: int) -> PBWElement:
        zero_nu = (0,) * self.nu
        return PBWElement(self, level, {(zero_nu, zero_nu): self.hpart_one(level)})

    def monomial(
        self,
        a: Sequence[int],
        b: Sequence[int],
        h: Optional[HPart],
        level: int,
    ) -> PBWElement:
        if h is None:
            h = self.hpart_one(level)
        if h.is_zero():
            return self.zero(level)
        return PBWElement(self, level, {(tuple(a), tuple(b)): h})

    def divided_power(self, gamma: Root, n: int, level: int) -> PBWElement:
        if n < 0:
            return self.zero(level)
        a = [0] * self.nu
        b = [0] * self.nu
        if n > 0:
            if self.rs._is_positive(gamma):
                b[self.rs.convex_index(gamma)] = n
            else:
                a[self.rs.convex_index(tuple(-x for x in gamma))] = n
        return self.monomial(a, b, None, level)

    def hpart_element(self, h: HPart, level: int) -> PBWElement:
        zero_nu = (0,) * self.nu
        if h.is_zero():
            return self.zero(level)
        return PBWElement(self, level, {(zero_nu, zero_nu): h})

    # -- torus-part builders --------------------------------------------

    def _lut(self, n: int, level: int, c: int) -> np.ndarray:
        """binom(x + c, n) mod p for x = 0 .. p^level - 1."""
        size = self.p**level
        key = (n, level)
        twice = self._binom_lut.get(key)
        if twice is None:
            # Two periods of the table, so that every c is a slice of it.
            once = [lucas_binom(x, n, self.p) for x in range(size)]
            twice = self._binom_lut[key] = np.array(once * 2, dtype=np.int16)
        c %= size
        return twice[c : c + size]

    def binom_h_simple(self, i: int, n: int, level: int) -> HPart:
        """Table of the binomial coefficient of the i-th Cartan generator."""
        return self.binom_h_root(self.rs.simple(i), 0, n, level)

    def binom_h_root(self, gamma: Root, c: int, n: int, level: int) -> HPart:
        """Table of binom(h_gamma + c, n) via the coroot expansion of gamma."""
        HPart._shape(self.p, level, self.rs.rank)  # refuses level < 1
        if n >= self.p**level:
            raise InsufficientLevelError(
                f"binomial degree {n} needs level above {level}"
            )
        key = (self.p**level, self.rs.rank, tuple(self.sc.coroot_coeffs(gamma)))
        idx = _ROOT_INDEX.get(key)
        if idx is None:
            idx = _ROOT_INDEX[key] = _root_index(*key)
        return HPart(self._lut(n, level, c)[idx], self.p, level)

    def hpart_to_binomial_basis(self, h: HPart) -> Dict[Tuple[int, ...], int]:
        """Coefficients over products of per-generator Cartan binomials."""
        size = self.p**h.level
        inv = self._binomial_matrix_inverse(h.level)
        arr = np.broadcast_to(h.arr, (size,) * self.rs.rank).astype(np.int64)
        for axis in range(self.rs.rank):
            arr = np.tensordot(inv, arr, axes=([1], [axis]))
            arr = np.moveaxis(arr, 0, axis) % self.p
        out = {}
        for degs in np.ndindex(*(size,) * self.rs.rank):
            v = int(arr[degs])
            if v:
                out[degs] = v
        return out

    def _binomial_matrix_inverse(self, level: int) -> np.ndarray:
        key = ("binv", level)
        cached = self._binom_lut.get(key)
        if cached is None:
            size = self.p**level
            mat = np.array(
                [[lucas_binom(m, n, self.p) for n in range(size)] for m in range(size)],
                dtype=np.int64,
            )
            # The matrix is unipotent lower triangular, so reducing
            # [mat | I] leaves its inverse in the right half.
            aug = np.concatenate([mat, np.eye(size, dtype=np.int64)], axis=1)
            row_reduce(aug, self.p)
            cached = np.ascontiguousarray(aug[:, size:])
            self._binom_lut[key] = cached
        return cached

    # -- rank-2 reorder patterns ----------------------------------------

    _PATTERNS = {
        # Keyed by subsystem root count, then by the base coordinates of
        # the left and right factor.  Each output entry is (base coords,
        # weight factor); a factor (k, *names) is the integer k times the
        # named bracket constants of the base (_base_constants).  The
        # output monomials are the exponent vectors over these coordinates
        # of the pair's weight, enumerated by exps_of_weight.
        6: {
            ((1, 0), (0, 1)): [((0, 1), (1,)), ((1, 1), (1, "c1")), ((1, 0), (1,))],
            ((0, 1), (1, 0)): [((1, 0), (1,)), ((1, 1), (-1, "c1")), ((0, 1), (1,))],
        },
        8: {
            ((1, 0), (0, 1)): [
                ((0, 1), (1,)),
                ((1, 1), (1, "c1")),
                ((2, 1), (1, "c1", "c2")),
                ((1, 0), (1,)),
            ],
            ((0, 1), (1, 0)): [
                ((1, 0), (1,)),
                ((2, 1), (1, "c1", "c2")),
                ((1, 1), (-1, "c1")),
                ((0, 1), (1,)),
            ],
            ((1, 0), (1, 1)): [((1, 1), (1,)), ((2, 1), (2, "c2")), ((1, 0), (1,))],
            ((1, 1), (1, 0)): [((1, 0), (1,)), ((2, 1), (-2, "c2")), ((1, 1), (1,))],
        },
        12: {
            ((1, 0), (0, 1)): [
                ((0, 1), (1,)),
                ((1, 1), (1, "c1")),
                ((3, 2), (1, "c2", "c4")),
                ((2, 1), (1, "c1", "c2")),
                ((3, 1), (1, "c1", "c2", "c3")),
                ((1, 0), (1,)),
            ],
            ((0, 1), (1, 0)): [
                ((1, 0), (1,)),
                ((3, 1), (-1, "c1", "c2", "c3")),
                ((2, 1), (1, "c1", "c2")),
                ((3, 2), (1, "c2", "c4")),
                ((1, 1), (-1, "c1")),
                ((0, 1), (1,)),
            ],
            ((1, 0), (1, 1)): [
                ((1, 1), (1,)),
                ((3, 2), (3, "c2", "c4")),
                ((2, 1), (2, "c2")),
                ((3, 1), (3, "c2", "c3")),
                ((1, 0), (1,)),
            ],
            ((1, 1), (1, 0)): [
                ((1, 0), (1,)),
                ((3, 1), (3, "c2", "c3")),
                ((2, 1), (-2, "c2")),
                ((3, 2), (3, "c2", "c4")),
                ((1, 1), (1,)),
            ],
            ((1, 0), (2, 1)): [((2, 1), (1,)), ((3, 1), (3, "c3")), ((1, 0), (1,))],
            ((2, 1), (1, 0)): [((1, 0), (1,)), ((3, 1), (-3, "c3")), ((2, 1), (1,))],
            ((2, 1), (1, 1)): [((1, 1), (1,)), ((3, 2), (3, "c4")), ((2, 1), (1,))],
            ((1, 1), (2, 1)): [((2, 1), (1,)), ((3, 2), (-3, "c4")), ((1, 1), (1,))],
        },
    }

    def _base_constants(self, s: Root, t: Root, count: int) -> Dict[str, int]:
        sc = self.sc
        add = lambda x, y: tuple(u + v for u, v in zip(x, y))
        a_pb = add(s, t)
        consts = {"c1": sc.bracket_const(s, t)}
        if count >= 8:
            b_2ab = add(s, a_pb)
            consts["c2"] = sc.bracket_const(s, a_pb) // 2
        if count == 12:
            consts["c3"] = sc.bracket_const(s, b_2ab) // 3
            consts["c4"] = sc.bracket_const(b_2ab, a_pb) // 3
        return consts

    def reorder_pair(
        self, gamma: Root, a: int, delta: Root, b: int
    ) -> List[Tuple[int, Tuple[Tuple[Root, int], ...]]]:
        """Rewrite e_gamma^(a) e_delta^(b) as ordered rank-2 monomials.

        Requires gamma + delta to be a root and delta distinct from both
        gamma and its negative.  Returns (scalar mod p, fragment) pairs,
        fragments being tuples of (root, exponent).
        """
        key = (gamma, a, delta, b)
        cached = self._reorder_cache.get(key)
        if cached is not None:
            return cached
        p = self.p
        s, t, cg, cd, count = self.rs.rank2_base(gamma, delta)
        pattern = self._PATTERNS[count][(cg, cd)]
        consts = self._base_constants(s, t, count)
        coords = [xy for xy, _ in pattern]
        roots = [tuple(x * u + y * v for u, v in zip(s, t)) for x, y in coords]
        factors = [
            math.prod((consts[c] for c in names), start=k) % p
            for _, (k, *names) in pattern
        ]
        # The middle roots are enumerated in pattern order and the outer
        # two solved, then the exponents are put back in pattern order.
        out: List[Tuple[int, Tuple[Tuple[Root, int], ...]]] = []
        target = exps_sum((a, b), (cg, cd))
        for e in exps_of_weight(target, coords[1:-1] + [coords[0], coords[-1]]):
            exps = (e[-2],) + e[:-2] + (e[-1],)
            coeff = math.prod(pow(f, n, p) for f, n in zip(factors, exps)) % p
            if coeff:
                out.append((coeff, tuple((r, n) for r, n in zip(roots, exps) if n)))
        self._reorder_cache[key] = out
        return out

    # -- straightening -----------------------------------------------------

    def straighten_items(self, word: Tuple[Item, ...], level: int) -> Dict:
        """Normal form of a word of divided powers.

        Items are (slot, n): slot k < nu is f^(n) of convex root k, slot
        nu + k is e^(n) of convex root k.  A word is normal when its slots
        strictly increase.  level is the torus level of the tables the
        rewriting creates.  Returns (a, b) -> the torus part of
        f^(a) * H * e^(b), a side-1 table where no collision made one.
        """
        nu = self.nu
        p = self.p
        roots = self._slot_root
        weights = self._slot_weight
        root_set = self.rs._root_set
        out: Dict = {}
        # (coefficient, torus part standing left of the word, word, index
        # where the scan resumes); the pairs before that index are in order.
        stack: List[Tuple[int, HPart, Tuple[Item, ...], int]] = [
            (1, self.hpart_one(level), word, 0)
        ]
        steps = 0
        while stack:
            steps += 1
            if steps > _STEP_LIMIT:
                raise RuntimeError("straightening step limit exceeded")
            coeff, h, w, i = stack.pop()
            last = len(w) - 1
            while i < last and w[i][0] < w[i + 1][0]:
                i += 1
            if i >= last:
                self._collect(out, w, coeff, h)
                continue
            (s1, x1), (s2, x2) = w[i], w[i + 1]
            head, tail = w[:i], w[i + 2 :]
            back = i - 1 if i else 0
            if s1 == s2:
                c = lucas_binom(x1 + x2, x2, p)
                if c:
                    stack.append((coeff * c % p, h, head + ((s1, x1 + x2),) + tail, back))
            elif s1 - nu == s2:
                # Raising-lowering collision on one root g:
                # e^(x1) f^(x2) = sum_k f^(x2-k) binom(h_g - x1 - x2 + 2k, k) e^(x1-k).
                # Moved left past f^(x2-k) and the head, the binomial's
                # constant becomes x2 - x1 - <wt(head), g-vee>, the same for
                # every k.
                g = roots[s1]
                d = self.sc.coroot_coeffs(g)
                head_d = sum(x * u * v for s, x in head for u, v in zip(weights[s], d))
                for k in range(min(x1, x2) + 1):
                    hk = h
                    if k:
                        hk = h.mul(self.binom_h_root(g, x2 - x1 - head_d, k, level))
                        if hk.is_zero():
                            continue
                    mid: Tuple[Item, ...] = ((s2, x2 - k),) if x2 - k else ()
                    if x1 - k:
                        mid += ((s1, x1 - k),)
                    stack.append((coeff, hk, head + mid + tail, back))
            else:
                g1, g2 = roots[s1], roots[s2]
                if tuple(u + v for u, v in zip(g1, g2)) not in root_set:
                    stack.append((coeff, h, head + ((s2, x2), (s1, x1)) + tail, back))
                else:
                    slot_of = self._root_slot
                    for c, frag in self.reorder_pair(g1, x1, g2, x2):
                        mid = tuple((slot_of[rho], e) for rho, e in frag)
                        stack.append((coeff * c % p, h, head + mid + tail, back))
        return out

    def _collect(self, out: Dict, w: Tuple[Item, ...], coeff: int, h: HPart) -> None:
        """Add coeff * h * w to out, for a normal word w."""
        nu = self.nu
        a = [0] * nu
        b = [0] * nu
        for s, x in w:
            if s < nu:
                a[s] = x
            else:
                b[s - nu] = x
        a = tuple(a)
        # h moves right past f^(a).
        _accumulate(out, (a, tuple(b)), h.shift(self.exps_weight(a, -1)).scale(coeff))

    def straighten_signed(self, word: Tuple[Item, ...], sign: int) -> Dict:
        """Normal form of a one-sign word of (convex index, exponent) items,
        sign +1 raising and -1 lowering, as exponent vector -> scalar mod
        p: one `_step` per item, right to left, every suffix memoized."""
        key = (word, sign)
        out = self._signed_cache.get(key)
        if out is None:
            out = {(0,) * self.nu: 1}
            if word:
                (k, n), rest = word[0], word[1:]
                out = self._step(k, n, self.straighten_signed(rest, sign), sign)
            self._signed_cache[key] = out
        return out

    def mul_signed(self, x: Tuple[int, ...], y: Tuple[int, ...], sign: int) -> Dict:
        """Product of two normal-ordered one-sign monomials: `fold_signed` of
        x into y, memoized."""
        if not any(x):
            return {y: 1}
        key = (x, y, sign)
        out = self._mul_signed_cache.get(key)
        if out is None:
            out = self._mul_signed_cache[key] = self.fold_signed([{x: 1}], {y: 1}, sign)[0]
        return out

    def fold_signed(self, xs: Sequence[Dict], y: Dict, sign: int) -> List[Dict]:
        """[x * y for x in xs], one-sign elements as exponent vector ->
        scalar mod p dicts.  Each monomial m of each x folds into the whole
        of y right to left, one `_step` per divided power; the partial
        products are shared within the call, keyed by the suffix of m."""
        partial: Dict = {}
        out = []
        for x in xs:
            total: Dict = {}
            for m, c in x.items():
                acc = y
                for k in range(len(m) - 1, -1, -1):
                    if m[k]:
                        got = partial.get(m[k:])
                        if got is None:
                            got = partial[m[k:]] = self._step(k, m[k], acc, sign)
                        acc = got
                _add_scaled(total, acc, c, self.p)
            out.append(total)
        return out

    def _step(self, k: int, n: int, y: Dict, sign: int) -> Dict:
        """g_k^(n) * y, g_k the k-th convex root of the given sign.  On a
        monomial d of y with d[:k] zero it joins d, or merges into d[k] by
        one Lucas binomial; else the word g_k^(n) g^(d), whose tables are
        constant, is straightened once, memoized per (k, n, sign) then d."""
        p, out = self.p, {}
        memo = self._step_cache.setdefault((k, n, sign), {})
        for d, c in y.items():
            if any(d[:k]):
                terms = memo.get(d)
                if terms is None:
                    base = self.nu if sign > 0 else 0
                    word = ((base + k, n),) + tuple((base + j, v) for j, v in enumerate(d) if v)
                    terms = memo[d] = {(b if sign > 0 else a): h.value((0,) * self.rs.rank)
                                       for (a, b), h in self.straighten_items(word, 1).items()}
            else:
                s = lucas_binom(n + d[k], n, p) if d[k] else 1
                terms = {d[:k] + (n + d[k],) + d[k + 1 :]: s} if s else {}
            _add_scaled(out, terms, c, p)
        return out

    # -- the cross product of raising and lowering blocks ----------------

    def _middle(
        self, b1: Tuple[int, ...], a2: Tuple[int, ...], level: int
    ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...], HPart]]:
        """Normal form of e^(b1) * f^(a2) as (a, b, torus part) triples."""
        key = (b1, a2, level)
        cached = self._mid_cache.get(key)
        if cached is not None:
            return cached
        nu = self.nu
        word = tuple((nu + k, n) for k, n in enumerate(b1) if n) + tuple(
            (k, n) for k, n in enumerate(a2) if n
        )
        result = [(a, b, h) for (a, b), h in self.straighten_items(word, level).items()]
        self._mid_cache[key] = result
        return result

    def multiply(self, x: PBWElement, y: PBWElement) -> PBWElement:
        """Normal form of x * y.

        Torus tables may carry batch axes (see HPart): with x batched
        (L, 1) and y batched (1, L'), entry [s, t] of every product table
        belongs to the product of entry s of x with entry t of y.
        """
        x._compat(y)
        level = x.level
        out: Dict = {}
        p = self.p
        for (a1, b1), h1 in x.terms.items():
            for (a2, b2), h2 in y.terms.items():
                for c, d, hm in self._middle(b1, a2, level):
                    # h1 moves right past f^(c), h2 moves left past e^(d).
                    wc = self.exps_weight(c, -1)
                    wd = self.exps_weight(d, -1)
                    h_total = h1.shift(wc).mul(hm).mul(h2.shift(wd))
                    if h_total.is_zero():
                        continue
                    fprod = self.mul_signed(a1, c, -1)
                    eprod = self.mul_signed(d, b2, +1)
                    for g, sf in fprod.items():
                        for e, se in eprod.items():
                            _accumulate(out, (g, e), h_total.scale(sf * se % p))
        return PBWElement(self, level, out)
