"""Matrix-rank certification of the multiplication isomorphisms.

Each supported statement names a multiplication map from a tensor product
of truncated subalgebras into a larger truncation.  The harness
materializes the map's columns on explicit bases, splits them into
independent blocks along the weight grading (multiplication adds
weights), computes exact ranks over F_p, and reports bijectivity; the
first rank-deficient block also gets a kernel witness, read off the
reduced form of the whole block.

A block's rank is read from its sparse entries first: `linalg.peel` takes
every row or column with one live entry as a pivot, which changes no other
value, and `rank_fp` reduces densely only the submatrix left over.  On the
certificates of the desk set and the stretch case (Thm5.5-first, A2, p=2,
dimension 65536) nothing is left over, so no dense block is built; the
largest stretch block would take 38 MB as int64.

Every map is a product of factors, listed by `_factors` as pairs
(truncation depth, power of Fr'): a two-factor map sends x (x) y to
x * Fr'^r(y), an iterated one x_0 (x) ... (x) x_{r-1} to
Fr'^0(x_0) * ... * Fr'^{r-1}(x_{r-1}).  `_build_columns` checks each
factor's images against the target, so a map that leaves its target is
refused before any column product, and folds the factors left to right.
With torus tables (hsize > 1) it folds in batches: basis elements
f^(a) mu(lam) e^(b) that share their monomial key (a, b) differ only in
their torus table, so one `Engine.multiply` of the products so far, as
batch (L, 1), with the stacked images of a key group, as (1, R), gives
all L * R columns of the pair.  The raising and lowering spaces (hsize 1)
have one element per key and only constant tables, so there each image
is read as its constant coefficients c_d, a dict of scalars, and
`Engine.fold_signed` multiplies all the columns so far by one image at a
time.  Both end in one column format, runs: a monomial key, the columns it
meets and one row of table entries per column.  `_TargetIndex.split`
cuts the runs into weight blocks in one sorted pass.  Each block keeps
one sparse form, its entries nonzero modulo p, from `peel` to the
witness: `_dense` writes the submatrix left over after peeling, and the
whole block for a kernel witness.  Source labels are kept per factor; a
label is joined only for each column of a witness.

No index of the target's rows is built in advance: `split` takes each
block's rows from the runs, in sorted key order, the order of the
target basis.  The target is a dimension and a membership test, read from
`_SPACES`, the table of spaces that also drives `enumerate_basis`.
"""

from __future__ import annotations

import json
import math
import time

from dataclasses import dataclass
from functools import reduce
from itertools import islice, product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chevalley import StructureConstants
from .frobenius import Frobenius
from .idempotents import enumerate_Xm, mu_hpart
from .linalg import peel, row_reduce
from .rootdata import RootSystem, build_root_system
from .straighten import Engine, HPart, PBWElement

# Statement -> the truncated subalgebra whose products its map takes.
_STATEMENT_SPACE = {
    "Thm4.5-first": "plus",
    "Thm4.5-second": "plus",
    "Cor4.6-truncated": "plus",
    "Prop5.1-first": "zero",
    "Prop5.1-second": "zero",
    "Thm5.5-first": "full",
    "Thm5.5-second": "full",
    "Borel-variant": "borel",
    "Minus-variant": "minus-borel",
}
STATEMENTS = tuple(_STATEMENT_SPACE)
# Statements whose map multiplies r Frobenius images of depth-1 bases (the
# others multiply a depth-r basis by the Fr'^r images of a depth-n one).
_ITERATED = frozenset({"Thm4.5-second", "Prop5.1-second", "Thm5.5-second"})


@dataclass(frozen=True)
class MapSpec:
    statement: str
    system: str
    p: int
    r: int
    n: int = 1

    def __post_init__(self):
        if self.statement not in STATEMENTS:
            raise ValueError(f"unknown statement {self.statement!r}")
        if self.r < 1 or self.n < 1:
            raise ValueError(f"depths r={self.r}, n={self.n} must be at least 1")
        if self.statement in _ITERATED and self.n != 1:
            raise ValueError(
                f"{self.statement} multiplies depth-1 factors only; n={self.n} must be 1"
            )


@dataclass
class VerificationReport:
    statement: str
    system: str
    p: int
    r: int
    n: int
    source_dim: int
    rank: int
    bijective: bool
    blocks: List[Dict]
    elapsed_ms: int
    kernel_witness: Optional[List[Tuple[int, str]]] = None
    multiplicative: Optional[bool] = None

    def to_dict(self) -> Dict:
        out = {
            "statement": self.statement,
            "system": self.system,
            "p": self.p,
            "r": self.r,
            "n": self.n,
            "source_dim": self.source_dim,
            "rank": self.rank,
            "bijective": self.bijective,
            "blocks": self.blocks,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.kernel_witness is not None:
            out["kernel_witness"] = [
                {"coeff": c, "element": s} for c, s in self.kernel_witness
            ]
        if self.multiplicative is not None:
            out["multiplicative"] = self.multiplicative
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# -- bases --------------------------------------------------------------

# Truncated space -> its factors in basis loop order, outermost first:
# "f" a lowering exponent vector, "h" a torus idempotent, "e" a raising
# exponent vector.
_SPACES = {
    "plus": "e",
    "minus": "f",
    "zero": "h",
    "borel": "he",
    "minus-borel": "hf",
    "full": "fhe",
}


def enumerate_basis(
    engine: Engine, space: str, r: int, level: int
) -> List[Tuple[str, PBWElement]]:
    """Ordered basis of a truncated subalgebra as labelled elements.

    space is a key of `_SPACES`; r is the truncation depth, level the
    torus level of the produced elements.  The basis runs over the
    space's factors in its loop order, each exponent vector and each
    weight of X_r in increasing order.
    """
    if space not in _SPACES:
        raise ValueError(f"unknown space {space!r}")
    if r < 0:
        raise ValueError(f"depth r={r} must be nonnegative")
    rs, p, factors = engine.rs, engine.p, _SPACES[space]
    zero_nu = (0,) * engine.nu
    exps = list(iproduct(range(p**r), repeat=engine.nu))
    choices = {"f": exps, "e": exps}
    if "h" in factors:
        choices["h"] = [
            (lam, mu_hpart(engine, lam, r, level)) for lam in enumerate_Xm(rs, p, r)
        ]
    out: List[Tuple[str, PBWElement]] = []
    for combo in iproduct(*(choices[c] for c in factors)):
        pick = dict(zip(factors, combo))
        a, b = pick.get("f", zero_nu), pick.get("e", zero_nu)
        lam, h = pick.get("h", (None, None))
        mu = None if lam is None else (lam, r)
        out.append((_mono_label(rs, a, b, mu), engine.monomial(a, b, h, level)))
    return out


def _mono_label(rs: RootSystem, a: Sequence[int], b: Sequence[int], mu) -> str:
    parts = []
    for k, n in enumerate(a):
        if n:
            root = " ".join(str(x) for x in rs.convex_roots[k])
            parts.append(f"f[{root}]^({n})")
    if mu is not None:
        lam, r = mu
        parts.append(f"mu({' '.join(str(x) for x in lam)};{r})")
    for k, n in enumerate(b):
        if n:
            root = " ".join(str(x) for x in rs.convex_roots[k])
            parts.append(f"e[{root}]^({n})")
    return "*".join(parts) if parts else "1"


# -- exact rank over F_p ------------------------------------------------


def _residues(mat: np.ndarray, p: int) -> np.ndarray:
    """mat modulo p as a new int32 matrix, the working copy for row_reduce.

    Made in one pass, without an int64 intermediate, at half the width of
    int64.
    """
    return np.remainder(mat, p, out=np.empty(np.shape(mat), dtype=np.int32))


def rank_fp(mat: np.ndarray, p: int) -> int:
    """Exact rank of an integer matrix modulo p."""
    return len(row_reduce(_residues(mat, p), p))


def _kernel_vector(mat: np.ndarray, p: int) -> Optional[np.ndarray]:
    """One nonzero kernel vector of mat over F_p, or None if injective.

    The vector sets the first free column of the reduced matrix to 1 and
    solves for the pivot columns.
    """
    m = _residues(mat, p)
    pivots = row_reduce(m, p)
    # Pivots increase, so the first free column is the first i with
    # pivots[i] != i.
    free = next((i for i, c in enumerate(pivots) if c != i), len(pivots))
    if free == m.shape[1]:
        return None
    vec = np.zeros(m.shape[1], dtype=np.int64)
    vec[free] = 1
    vec[pivots] = -m[: len(pivots), free] % p
    return vec


# -- map construction ---------------------------------------------------


class _TargetIndex:
    """The target space: its dimension and the monomial keys it holds.

    No row is enumerated in advance.  `split` takes the rows of each weight
    block from the column runs: the keys of that weight that carry a nonzero
    entry, in sorted key order, each key a run of hsize rows.  That is the
    order of the target basis, so a bijective map, which touches every
    row, gets each block on the full target basis.  Any other map loses
    only rows that no column touches; they are zero, so the block's rank
    and reduced form are unchanged.
    """

    def __init__(self, engine: Engine, space: str, depth: int):
        if space not in _SPACES:
            raise ValueError(f"unknown space {space!r}")
        self.engine = engine
        factors = _SPACES[space]
        # Sides of a key (a, b) that may be nonzero: a lowers, b raises.
        self.sides = np.array([["f" in factors], ["e" in factors]])
        self.size = engine.p**depth
        # Pure-sign spaces hold one value per monomial, as their tables are
        # constant; the rest hold a full torus table per monomial, at the
        # target's torus level.
        self.hsize = self.size**engine.rs.rank if "h" in factors else 1
        self.dim = self.size ** (engine.nu * int(self.sides.sum())) * self.hsize

    def holds(self, keys: Sequence) -> np.ndarray:
        """Which of the monomial keys (a, b), or their (K, 2, nu) exponent
        array, are keys of the target."""
        exps = np.array(keys, dtype=np.intp).reshape(len(keys), 2, self.engine.nu)
        return ((exps < self.size) & self.sides | (exps == 0)).all(axis=(1, 2))

    def split(self, runs: Tuple[List, List, List], n_cols: int) -> Dict[Tuple[int, ...], Tuple]:
        """Cut the column runs of `_build_columns` into weight blocks,
        emptying their lists once gathered, so that their tables are freed.

        n_cols is the number of columns, numbered from 0.  Returns weight
        -> (cols, n_rows, rows, places, residues), the block's sparse form:
        cols are its column numbers in increasing order, n_rows is hsize
        times the number of keys it meets, and each entry that is nonzero
        modulo p sits in row rows[i] (offset * hsize + j, for table entry j
        of the block's offset-th key in sorted order), column
        cols[places[i]], with value residues[i].  A column whose terms have
        more than one weight raises ValueError, a term outside the target
        RuntimeError, and a column no entry meets goes to the zero weight.
        """
        hsize, p = self.hsize, self.engine.p
        run_keys, col_runs, tables = runs
        # Keys are numbered in sorted order, the order of the target basis.
        keys = sorted(set(run_keys))
        number = {k: i for i, k in enumerate(keys)}
        exps = np.array(keys, dtype=np.intp).reshape(len(keys), 2, self.engine.nu)
        # f^(a) * H * e^(b) has weight (b - a) . convex root weights.
        weights = (exps[:, 1] - exps[:, 0]) @ np.array(
            self.engine.convex_weights, dtype=np.intp
        )
        names, key_weight = np.unique(weights, axis=0, return_inverse=True)
        names = [tuple(w) for w in names.tolist()]
        key_weight = key_weight.ravel()
        sizes = [c.size for c in col_runs]
        key_at = np.repeat(np.array([number[k] for k in run_keys], dtype=np.intp), sizes)
        col = np.concatenate([np.zeros(0, dtype=np.intp)] + col_runs)
        values = np.concatenate([np.zeros((0, hsize), dtype=np.int16)] + tables)
        for run in runs:
            run.clear()
        # Nonzero entries, ordered by weight, then column.
        live = np.flatnonzero(values.any(axis=1))
        keep = live[np.lexsort((col[live], key_weight[key_at[live]]))]
        key_at, col, values = key_at[keep], col[keep], values[keep]
        weight_at = key_weight[key_at]
        # first[i]: entry i opens a new (weight, column) pair
        first = np.ones(len(col), dtype=bool)
        first[1:] = (weight_at[1:] != weight_at[:-1]) | (col[1:] != col[:-1])
        taken = col[first]
        if (np.bincount(taken) > 1).any():
            raise ValueError("element is not weight-homogeneous")
        outside = np.flatnonzero(~self.holds(exps)[key_at])
        if outside.size:
            k = key_at[outside[0]]
            raise RuntimeError(
                f"term {keys[k]} falls outside its weight block {names[key_weight[k]]}"
            )
        bounds = np.flatnonzero(np.diff(weight_at, prepend=-1, append=-1))
        spans = {names[weight_at[a]]: slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])}
        # Zero columns join the zero weight block.
        zero = (0,) * self.engine.rs.rank
        empty = np.setdiff1d(np.arange(n_cols), taken)
        if empty.size:
            spans.setdefault(zero, slice(0, 0))
        out: Dict[Tuple[int, ...], Tuple] = {}
        for w, at in spans.items():
            cols = np.union1d(col[at][first[at]], empty) if w == zero else col[at][first[at]]
            # The block's rows: the keys it meets, numbered in key order.
            met = np.unique(key_at[at])
            residues = values[at] % p
            i, j = np.nonzero(residues)
            rows = np.searchsorted(met, key_at[at][i]) * hsize + j
            places = np.searchsorted(cols, col[at][i])
            out[w] = (cols, met.size * hsize, rows, places, residues[i, j])
        return out


def _dense(piece: Tuple, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The submatrix of a `split` block on the given row and column
    positions, both increasing, as int64 residues."""
    _, _, at_row, at_col, residues = piece
    keep = np.isin(at_row, rows) & np.isin(at_col, cols)
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    mat[np.searchsorted(rows, at_row[keep]), np.searchsorted(cols, at_col[keep])] = residues[keep]
    return mat


def _basis_groups(basis: Sequence[Tuple[str, PBWElement]]) -> List[List[int]]:
    """Positions of the basis elements, grouped by monomial key."""
    groups: Dict = {}
    for i, (_, x) in enumerate(basis):
        groups.setdefault(tuple(x.terms), []).append(i)
    return list(groups.values())


def _stack(
    engine: Engine, xs: Sequence[PBWElement], batch: Tuple[int, ...]
) -> PBWElement:
    """One element whose tables hold those of xs along batch axes of the
    given shape, a zero table standing in for a key that an x lacks.  A
    single x may carry batch axes already; they are reshaped to the new
    ones, in order."""
    level, rank = xs[0].level, engine.rs.rank
    zero = np.zeros((1,) * rank, dtype=np.int16)
    terms = {}
    for key in dict.fromkeys(k for x in xs for k in x.terms):
        # Constant (side-1) tables stay side-1 unless a full one is stacked
        # with them.
        arrs = np.broadcast_arrays(*(x.terms[key].arr if key in x.terms else zero for x in xs))
        side = arrs[0].shape[-rank:]
        terms[key] = HPart(np.stack(arrs).reshape(batch + side), engine.p, level)
    return PBWElement(engine, level, terms)


def _factors(spec: MapSpec) -> List[Tuple[int, Optional[int]]]:
    """The map's factors in source order, as (truncation depth, power of
    Fr'): the map sends x_0 (x) x_1 (x) ... to the product of the images
    Fr'^k(x_i), a power None leaving its factor unsplit."""
    if spec.statement in _ITERATED:
        return [(1, i) for i in range(spec.r)]
    return [(spec.r, None), (spec.n, spec.r)]


def _image(fro: Frobenius, x: PBWElement, power: Optional[int]) -> PBWElement:
    return x if power is None else fro.fr_prime(x, power)


def _build_columns(spec: MapSpec, engine: Engine, fro: Frobenius, level: int):
    """The map's columns, as (names, runs).

    names holds each factor's basis labels: column c is the source tuple
    `np.unravel_index(c, [len(n) for n in names])`, the first factor
    most significant.  runs, the column format `split` reads, is (keys,
    cols, values): run i puts key keys[i] in the increasing columns
    cols[i], and the arrays of values, concatenated, hold one row of the
    target's hsize table entries per column of each run, in run order.  A
    term of a factor's images outside the target raises RuntimeError
    before any product is made.
    """
    space = _STATEMENT_SPACE[spec.statement]
    target = _TargetIndex(engine, space, level)
    names, factors = [], []
    for depth, power in _factors(spec):
        basis = enumerate_basis(engine, space, depth, level)
        images = [_image(fro, x, power) for _, x in basis]
        keys = [key for y in images for key in y.terms]
        outside = np.flatnonzero(~target.holds(keys))
        if outside.size:
            key = keys[outside[0]]
            raise RuntimeError(
                f"term {key} falls outside its weight block {engine.term_weight(key)}"
            )
        names.append([lab if power is None else f"Fr'^{power}({lab})" for lab, _ in basis])
        factors.append((basis, images))
    if target.hsize == 1:
        sign = {"e": 1, "f": -1}[_SPACES[space]]
        return names, _scalar_runs(engine, factors, sign)
    return names, _table_runs(engine, factors, target.hsize)


def _table_runs(engine: Engine, factors: List, hsize: int) -> Tuple[List, List, List]:
    """The column runs of a map with torus tables, from batched products:
    the products so far, as batch (L, 1), times the stacked images of each
    key group of the next factor, as (1, R)."""
    stacks = [
        (len(basis), [(group, _stack(engine, [images[j] for j in group], (1, len(group))))
                      for group in _basis_groups(basis)])
        for basis, images in factors
    ]
    parts = [(np.array([group]), ys) for group, ys in stacks[0][1]]
    for size, groups in stacks[1:]:
        folded = []
        for cols, prod in parts:
            xs = _stack(engine, [prod], (cols.size, 1))
            folded += [(np.add.outer(cols.ravel() * size, group), engine.multiply(xs, ys))
                       for group, ys in groups]
        parts = folded
    return _product_runs(parts, hsize)


def _product_runs(parts: List, hsize: int) -> Tuple[List, List, List]:
    """The column runs of (cols, product) parts, column cols[s, t] being
    slice [s, t] of every table, a constant table standing for hsize equal
    entries.  Empties the list parts, each product let go once copied."""
    keys, col_runs, tables = [], [], []
    while parts:
        cols, prod = parts.pop()
        if not prod.terms:
            continue
        cols = np.ravel(cols)
        n = cols.size
        keys += prod.terms
        col_runs += [cols] * len(prod.terms)
        rows = np.empty((len(prod.terms) * n, hsize), dtype=np.int16)
        for i, h in enumerate(prod.terms.values()):
            rows[i * n : (i + 1) * n] = h.arr.reshape(n, -1)
        tables.append(rows)
    return keys, col_runs, tables


def _scalar_runs(engine: Engine, factors: List, sign: int) -> Tuple[List, List, List]:
    """The column runs of a one-sign map, whose tables are all constant:
    each image is read as its constant coefficients, a scalar dict, and
    one `Engine.fold_signed` per image of the next factor multiplies every
    column so far by it; columns stay in first-factor-major order."""
    side = 1 if sign > 0 else 0
    zero = (0,) * engine.nu
    images = [[{key[side]: int(h.arr.item()) for key, h in y.terms.items()} for y in ys]
              for _, ys in factors]
    columns = images[0]
    for ys in images[1:]:
        per_image = [engine.fold_signed(columns, y, sign) for y in ys]
        columns = [column for row in zip(*per_image) for column in row]
    runs: Dict = {}
    for c, column in enumerate(columns):
        for m, v in column.items():
            runs.setdefault(m, []).append((c, v))
    keys = [(zero, m) if sign > 0 else (m, zero) for m in runs]
    col_runs = [np.array([c for c, _ in run], dtype=np.intp) for run in runs.values()]
    values = np.array([v for run in runs.values() for _, v in run], dtype=np.int16)
    return keys, col_runs, [values.reshape(-1, 1)]


def _check_multiplicative(
    spec: MapSpec, engine: Engine, fro: Frobenius, level: int, cap: int = 6
) -> bool:
    """The torus maps are algebra maps made of splittings: on the first
    cap^2 source tuples against the first cap, the product of two images
    is the image of the factorwise product, and Fr^k undoes Fr'^k on every
    factor with power k >= 1."""
    factors = _factors(spec)
    bases = [[x for _, x in enumerate_basis(engine, "zero", depth, level)]
             for depth, _ in factors]

    def split(xs):
        return [_image(fro, x, power) for x, (_, power) in zip(xs, factors)]

    tuples = list(islice(iproduct(*bases), cap * cap))
    splits = [split(xs) for xs in tuples]
    images = [reduce(engine.multiply, ys) for ys in splits]
    for xs, ys, lhs in zip(tuples, splits, images):
        for x, y, (_, power) in zip(xs, ys, factors):
            if power and not fro.fr_power(y, power).equals(x):
                return False
        for zs, rhs in zip(tuples[:cap], images[:cap]):
            products = [engine.multiply(x, z) for x, z in zip(xs, zs)]
            if not engine.multiply(lhs, rhs).equals(reduce(engine.multiply, split(products))):
                return False
    return True


def verify(
    spec: MapSpec,
    engine: Optional[Engine] = None,
    column_cap: int = 2**16,
) -> VerificationReport:
    """Certify one statement by exact blockwise rank computation; a given
    engine must be on the spec's root system and prime."""
    t0 = time.monotonic()
    depth = max(d + (power or 0) for d, power in _factors(spec))
    if engine is None:
        engine = Engine(build_root_system(spec.system), spec.p)
    elif (engine.rs.type_label, engine.p) != (spec.system, spec.p):
        raise ValueError(f"engine on {engine.rs.type_label}, p={engine.p} does not "
                         f"match the spec's {spec.system}, p={spec.p}")
    space = _STATEMENT_SPACE[spec.statement]
    target = _TargetIndex(engine, space, depth)
    # A bijective map has as many columns as the target has rows.
    if target.dim > column_cap:
        raise ValueError(f"{target.dim} columns exceed the cap {column_cap}")
    fro = Frobenius(engine)
    names, runs = _build_columns(spec, engine, fro, depth)
    sizes = [len(n) for n in names]
    source_dim = math.prod(sizes)
    if source_dim != target.dim:
        raise RuntimeError(
            f"source dimension {source_dim} differs from target {target.dim}"
        )
    pieces = target.split(runs, source_dim)
    total_rank = 0
    blocks = []
    witness = None
    for w in sorted(pieces):
        piece = pieces[w]
        cols, n_rows, rows, places, _ = piece
        pivots, left_rows, left_cols = peel(rows, places, n_rows, len(cols))
        # Peeling changes no value, so what is left is a submatrix.
        rk = len(pivots) + rank_fp(_dense(piece, left_rows, left_cols), spec.p)
        blocks.append({"weight": list(w), "dim": len(cols), "rank": rk})
        total_rank += rk
        if rk < len(cols) and witness is None:
            vec = _kernel_vector(
                _dense(piece, np.arange(n_rows), np.arange(len(cols))), spec.p
            )
            if vec is not None:
                # Column c is the source tuple unravel_index(c, sizes).
                witness = [
                    (int(c), " * ".join(
                        n[i] for n, i in zip(names, np.unravel_index(cols[j], sizes))))
                    for j, c in enumerate(vec)
                    if c % spec.p
                ]
    bijective = total_rank == source_dim
    multiplicative = None
    if spec.statement in ("Prop5.1-first", "Prop5.1-second"):
        multiplicative = _check_multiplicative(spec, engine, fro, depth)
    return VerificationReport(
        statement=spec.statement,
        system=spec.system,
        p=spec.p,
        r=spec.r,
        n=spec.n,
        source_dim=source_dim,
        rank=total_rank,
        bijective=bijective,
        blocks=blocks,
        elapsed_ms=int((time.monotonic() - t0) * 1000),
        kernel_witness=witness,
        multiplicative=multiplicative,
    )


def sabotaged_engine(system: str, p: int) -> Engine:
    """Engine with one structure-constant sign flipped inconsistently.

    Regression aid: the resulting 'constants' violate antisymmetry, so
    downstream certifications are expected to break detectably.  The
    flipped constant is N(s, t) of the rank-2 base (s, t) of the first
    composite positive pair, the constant reorder_pair reads for that
    pair on every system.
    """
    rs = build_root_system(system)
    sc = StructureConstants(rs)
    for gamma, delta in sorted(sc._n):
        if rs._is_positive(gamma) and rs._is_positive(delta):
            s, t = rs.rank2_base(gamma, delta)[:2]
            sc._n[(s, t)] = -sc._n[(s, t)]
            return Engine(rs, p, sc=sc)
    raise ValueError("system has no composite positive pair to sabotage")


DESK_SPECS: List[MapSpec] = [
    MapSpec("Thm4.5-first", "A2", 2, 1, 1),
    MapSpec("Thm4.5-first", "A2", 3, 1, 1),
    MapSpec("Thm4.5-first", "A2", 5, 1, 1),
    MapSpec("Thm4.5-first", "B2", 2, 1, 1),
    MapSpec("Thm4.5-first", "B2", 3, 1, 1),
    MapSpec("Thm4.5-first", "G2", 2, 1, 1),
    MapSpec("Thm4.5-first", "A2", 2, 1, 2),
    MapSpec("Thm4.5-second", "A2", 2, 2),
    MapSpec("Thm4.5-second", "A2", 2, 3),
    MapSpec("Prop5.1-first", "A2", 2, 1, 1),
    MapSpec("Prop5.1-first", "A2", 3, 1, 1),
    MapSpec("Prop5.1-second", "A2", 2, 2),
    MapSpec("Prop5.1-second", "A2", 3, 2),
    MapSpec("Prop5.1-first", "A2", 2, 1, 2),
    MapSpec("Prop5.1-first", "A2", 3, 1, 2),
    MapSpec("Prop5.1-second", "A2", 2, 3),
    MapSpec("Prop5.1-second", "A2", 3, 3),
    MapSpec("Thm5.5-first", "A1", 2, 1, 1),
    MapSpec("Thm5.5-first", "A1", 3, 1, 1),
    MapSpec("Thm5.5-first", "A1", 2, 1, 2),
    MapSpec("Borel-variant", "A2", 2, 1, 1),
    MapSpec("Borel-variant", "B2", 2, 1, 1),
    MapSpec("Minus-variant", "A2", 2, 1, 1),
    MapSpec("Minus-variant", "B2", 2, 1, 1),
]
