"""Matrix-rank certification of the multiplication isomorphisms.

Each supported statement names a multiplication map from a tensor product
of truncated subalgebras into a larger truncation.  The harness
materializes the map column by column on explicit bases, splits it into
independent blocks along the weight grading (multiplication adds
weights), computes exact ranks over F_p with `linalg.row_reduce`, and
reports bijectivity; the first rank-deficient block also gets a kernel
witness, read off its reduced form.
"""

from __future__ import annotations

import json
import time

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chevalley import StructureConstants
from .frobenius import Frobenius
from .idempotents import enumerate_Xm, mu_hpart
from .linalg import row_reduce
from .rootdata import RootSystem, build_root_system
from .straighten import Engine, PBWElement

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
# Statements whose map multiplies r Frobenius images of depth-1 bases, so
# that the target has depth r (the others: depth r + n).
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


def _exp_vectors(p: int, r: int, nu: int) -> List[Tuple[int, ...]]:
    return list(iproduct(range(p**r), repeat=nu))


def enumerate_basis(
    engine: Engine, space: str, r: int, level: int
) -> List[Tuple[str, PBWElement]]:
    """Ordered basis of a truncated subalgebra as labelled elements.

    space is one of "plus", "minus", "zero", "borel", "minus-borel",
    "full"; r is the truncation depth, level the torus level of the
    produced elements.
    """
    rs = engine.rs
    nu = engine.nu
    p = engine.p
    zero_nu = (0,) * nu
    out: List[Tuple[str, PBWElement]] = []

    def label(a, b, mu):
        return _mono_label(rs, a, b, mu)

    if space == "plus":
        for b in _exp_vectors(p, r, nu):
            out.append((label((), b, None), engine.monomial(zero_nu, b, None, level)))
    elif space == "minus":
        for a in _exp_vectors(p, r, nu):
            out.append((label(a, (), None), engine.monomial(a, zero_nu, None, level)))
    elif space == "zero":
        for lam in enumerate_Xm(rs, p, r):
            h = mu_hpart(engine, lam, r, level)
            out.append((label((), (), (lam, r)), engine.hpart_element(h, level)))
    elif space == "borel":
        for lam in enumerate_Xm(rs, p, r):
            h = mu_hpart(engine, lam, r, level)
            for b in _exp_vectors(p, r, nu):
                out.append(
                    (label((), b, (lam, r)), engine.monomial(zero_nu, b, h, level))
                )
    elif space == "minus-borel":
        for lam in enumerate_Xm(rs, p, r):
            h = mu_hpart(engine, lam, r, level)
            for a in _exp_vectors(p, r, nu):
                out.append(
                    (label(a, (), (lam, r)), engine.monomial(a, zero_nu, h, level))
                )
    elif space == "full":
        for a in _exp_vectors(p, r, nu):
            for lam in enumerate_Xm(rs, p, r):
                h = mu_hpart(engine, lam, r, level)
                for b in _exp_vectors(p, r, nu):
                    out.append(
                        (label(a, b, (lam, r)), engine.monomial(a, b, h, level))
                    )
    else:
        raise ValueError(f"unknown space {space!r}")
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

    Made in one pass, without an int64 intermediate.  Half the width of
    int64 keeps the copy of a large block small: the largest block of the
    A2 p=2 Thm5.5 certificate is 38 MB as int64.
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
    """Rows of the target space, grouped by weight."""

    def __init__(self, engine: Engine, space: str, depth: int, level: int):
        self.engine = engine
        self.space = space
        self.level = level
        p = engine.p
        nu = engine.nu
        zero_nu = (0,) * nu
        if space == "plus":
            keys = [(zero_nu, b) for b in _exp_vectors(p, depth, nu)]
        elif space == "minus":
            keys = [(a, zero_nu) for a in _exp_vectors(p, depth, nu)]
        elif space == "zero":
            keys = [(zero_nu, zero_nu)]
        elif space == "borel":
            keys = [(zero_nu, b) for b in _exp_vectors(p, depth, nu)]
        elif space == "minus-borel":
            keys = [(a, zero_nu) for a in _exp_vectors(p, depth, nu)]
        elif space == "full":
            keys = [
                (a, b)
                for a in _exp_vectors(p, depth, nu)
                for b in _exp_vectors(p, depth, nu)
            ]
        else:
            raise ValueError(space)
        # Pure-sign spaces carry a scalar per monomial; the rest carry a
        # full torus table per monomial.
        self.scalar_only = space in ("plus", "minus")
        self.hsize = 1 if self.scalar_only else (p**level) ** engine.rs.rank
        self.key_offset: Dict = {}
        self.weight_of_key: Dict = {}
        self.rows_by_weight: Dict[Tuple[int, ...], List] = {}
        for key in keys:
            w = engine.term_weight(key)
            self.weight_of_key[key] = w
            block = self.rows_by_weight.setdefault(w, [])
            self.key_offset[key] = len(block)
            block.append(key)
        self.dim = len(keys) * self.hsize

    def block(self, xs: Sequence[PBWElement], weight: Tuple[int, ...]) -> np.ndarray:
        """Matrix of the coordinates of weight-homogeneous elements, one
        column each, filled in place."""
        rows = self.rows_by_weight.get(weight, [])
        mat = np.zeros((len(rows) * self.hsize, len(xs)), dtype=np.int64)
        for j, x in enumerate(xs):
            for key, h in x.terms.items():
                if self.weight_of_key.get(key) != weight:
                    raise RuntimeError(
                        f"term {key} falls outside its weight block {weight}"
                    )
                base = self.key_offset[key] * self.hsize
                if self.scalar_only:
                    mat[base, j] = h.value((0,) * self.engine.rs.rank)
                else:
                    mat[base : base + self.hsize, j] = h.arr.ravel()
        return mat


def _element_weight(engine: Engine, x: PBWElement) -> Tuple[int, ...]:
    weights = {x.weight_of_term(k) for k in x.terms}
    if len(weights) > 1:
        raise ValueError("element is not weight-homogeneous")
    return weights.pop() if weights else (0,) * engine.rs.rank


def _build_columns(spec: MapSpec, engine: Engine, fro: Frobenius, level: int):
    """The map's columns as (source label, image element) pairs."""
    r, n = spec.r, spec.n
    space = _STATEMENT_SPACE[spec.statement]
    cols = []
    if spec.statement in _ITERATED:
        basis1 = enumerate_basis(engine, space, 1, level)
        images = [
            [(lab, fro.fr_prime(x, i)) for lab, x in basis1] for i in range(r)
        ]
        for combo in iproduct(*[range(len(basis1)) for _ in range(r)]):
            prod = engine.one(level)
            labels = []
            for i, j in enumerate(combo):
                lab, img = images[i][j]
                prod = engine.multiply(prod, img)
                labels.append(f"Fr'^{i}({lab})")
            cols.append((" * ".join(labels), prod))
    else:
        left = enumerate_basis(engine, space, r, level)
        right = enumerate_basis(engine, space, n, level)
        right_img = [(lab, fro.fr_prime(y, r)) for lab, y in right]
        for lab_x, x in left:
            for lab_y, img in right_img:
                cols.append(
                    (f"{lab_x} * Fr'^{r}({lab_y})", engine.multiply(x, img))
                )
    return cols


def _check_multiplicative(
    spec: MapSpec, engine: Engine, fro: Frobenius, level: int, cap: int = 6
) -> bool:
    """The torus maps are algebra maps: compare products of images with
    images of products on basis pairs."""
    r, n = spec.r, spec.n
    if spec.statement == "Prop5.1-second":
        bases = [enumerate_basis(engine, "zero", 1, level) for _ in range(r)]
        combos = list(iproduct(*[range(len(b)) for b in bases]))[:cap]

        def image(combo):
            prod = engine.one(level)
            for i, j in enumerate(combo):
                prod = engine.multiply(prod, fro.fr_prime(bases[i][j][1], i))
            return prod

        def source_product(c1, c2):
            return tuple(
                (bases[i][c1[i]][1], bases[i][c2[i]][1]) for i in range(r)
            )

        for c1 in combos:
            for c2 in combos:
                lhs = engine.multiply(image(c1), image(c2))
                rhs = engine.one(level)
                for i, (u, v) in enumerate(source_product(c1, c2)):
                    rhs = engine.multiply(rhs, fro.fr_prime(engine.multiply(u, v), i))
                if not lhs.equals(rhs):
                    return False
        return True
    left = enumerate_basis(engine, "zero", r, level)
    right = enumerate_basis(engine, "zero", n, level)
    pairs = [(x, y) for _, x in left for _, y in right][: cap * cap]
    for x1, y1 in pairs:
        for x2, y2 in pairs[:cap]:
            lhs = engine.multiply(
                engine.multiply(x1, fro.fr_prime(y1, r)),
                engine.multiply(x2, fro.fr_prime(y2, r)),
            )
            rhs = engine.multiply(
                engine.multiply(x1, x2),
                fro.fr_prime(engine.multiply(y1, y2), r),
            )
            if not lhs.equals(rhs):
                return False
    return True


def verify(
    spec: MapSpec,
    engine: Optional[Engine] = None,
    column_cap: int = 2**16,
) -> VerificationReport:
    """Certify one statement by exact blockwise rank computation."""
    t0 = time.monotonic()
    rs = build_root_system(spec.system)
    depth = spec.r if spec.statement in _ITERATED else spec.r + spec.n
    level = depth
    if engine is None:
        engine = Engine(rs, spec.p)
    fro = Frobenius(engine)
    cols = _build_columns(spec, engine, fro, level)
    if len(cols) > column_cap:
        raise ValueError(f"{len(cols)} columns exceed the cap {column_cap}")
    target = _TargetIndex(engine, _STATEMENT_SPACE[spec.statement], depth, level)
    source_dim = len(cols)
    if source_dim != target.dim:
        raise RuntimeError(
            f"source dimension {source_dim} differs from target {target.dim}"
        )
    by_weight: Dict[Tuple[int, ...], List] = {}
    for label, x in cols:
        w = _element_weight(engine, x)
        by_weight.setdefault(w, []).append((label, x))
    total_rank = 0
    blocks = []
    witness = None
    for w in sorted(by_weight):
        entries = by_weight[w]
        mat = target.block([x for _, x in entries], w)
        rk = rank_fp(mat, spec.p)
        blocks.append({"weight": list(w), "dim": len(entries), "rank": rk})
        total_rank += rk
        if rk < len(entries) and witness is None:
            vec = _kernel_vector(mat, spec.p)
            if vec is not None:
                witness = [
                    (int(c), entries[j][0])
                    for j, c in enumerate(vec)
                    if c % spec.p
                ]
        del mat
    bijective = total_rank == source_dim
    multiplicative = None
    if spec.statement in ("Prop5.1-first", "Prop5.1-second"):
        multiplicative = _check_multiplicative(spec, engine, fro, level)
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
    downstream certifications are expected to break detectably.
    """
    rs = build_root_system(system)
    sc = StructureConstants(rs)
    for (gamma, delta), val in sorted(sc._n.items()):
        if rs._is_positive(gamma) and rs._is_positive(delta):
            sc._n[(gamma, delta)] = -val
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


def run_all_desk(column_cap: int = 2**16) -> List[VerificationReport]:
    return [verify(spec, column_cap=column_cap) for spec in DESK_SPECS]
