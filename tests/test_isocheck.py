"""Rank harness: exact linear algebra, bases, certification reports."""

import itertools
import json
import random

import numpy as np
import pytest

from hyperalg import isocheck
from hyperalg.frobenius import Frobenius
from hyperalg.isocheck import (
    DESK_SPECS,
    STATEMENTS,
    MapSpec,
    _SPACES,
    _build_columns,
    _kernel_vector,
    _TargetIndex,
    enumerate_basis,
    rank_fp,
    sabotaged_engine,
    verify,
)
from hyperalg.linalg import peel
from hyperalg.qoracle import QOracle
from hyperalg.rootdata import build_root_system
from hyperalg.straighten import Engine, HPart, PBWElement


def test_rank_fp_basics():
    for p in (2, 3, 5):
        eye = np.eye(7, dtype=np.int64)
        assert rank_fp(eye, p) == 7
        assert rank_fp(np.zeros((4, 5), dtype=np.int64), p) == 0
    # p divides an entry: rank drops mod p but not over Q
    m = np.array([[2, 0], [0, 1]], dtype=np.int64)
    assert rank_fp(m, 2) == 1
    assert rank_fp(m, 3) == 2
    # dependent columns
    m2 = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert rank_fp(m2, 5) == 1
    assert rank_fp(m2, 3) == 1


def test_rank_fp_random_consistency():
    rng = np.random.default_rng(9)
    for p in (2, 3):
        for _ in range(10):
            a = rng.integers(0, p, size=(12, 7))
            b = rng.integers(0, p, size=(7, 12))
            # rank of a product is at most min of the ranks
            assert rank_fp((a @ b) % p, p) <= min(rank_fp(a, p), rank_fp(b, p))


def test_basis_sizes_and_labels():
    eng = Engine(build_root_system("A2"), 2)
    r, level = 1, 2
    plus = enumerate_basis(eng, "plus", r, level)
    zero = enumerate_basis(eng, "zero", r, level)
    borel = enumerate_basis(eng, "borel", r, level)
    full = enumerate_basis(eng, "full", r, level)
    assert len(plus) == 2**3
    assert len(zero) == 2**2
    assert len(borel) == len(plus) * len(zero)
    assert len(full) == len(plus) ** 2 * len(zero)
    labels = [lab for lab, _ in full]
    assert len(set(labels)) == len(labels)
    assert any("e[" in lab for lab in labels)
    assert any("f[" in lab for lab in labels)
    assert any("mu(" in lab for lab in labels)
    # each element is the monomial its label announces: nonzero, right level
    for _, x in full:
        assert not x.is_zero() and x.level == level


def test_mapspec_validation():
    with pytest.raises(ValueError):
        MapSpec("NotAStatement", "A2", 2, 1)
    assert set(s.statement for s in DESK_SPECS) <= set(STATEMENTS)


def test_verify_a1_products_bijective():
    # the raising-algebra statement: source is U_1^+ x U_1^+, target U_2^+
    rep = verify(MapSpec("Thm4.5-first", "A1", 2, 1, 1))
    assert rep.bijective and rep.rank == rep.source_dim == 4
    assert sum(b["dim"] for b in rep.blocks) == 4
    assert sum(b["rank"] for b in rep.blocks) == 4
    assert rep.kernel_witness is None
    d = json.loads(rep.to_json())
    assert d["statement"] == "Thm4.5-first" and d["bijective"] is True


def test_verify_torus_map_multiplicative():
    rep = verify(MapSpec("Prop5.1-first", "A1", 2, 1, 1))
    assert rep.bijective and rep.multiplicative is True
    rep2 = verify(MapSpec("Prop5.1-second", "A1", 2, 2))
    assert rep2.bijective and rep2.multiplicative is True


def test_verify_iterated_statement():
    rep = verify(MapSpec("Thm4.5-second", "A1", 2, 2))
    assert rep.bijective
    # the iterated source has the dimension of the depth-r truncation
    assert rep.source_dim == 2**2


def test_column_cap_enforced(monkeypatch):
    def refuse(*args):
        raise AssertionError("multiply called although the cap refuses")

    monkeypatch.setattr(Engine, "multiply", refuse)
    for spec in (MapSpec("Thm4.5-first", "G2", 2, 1, 1),
                 MapSpec("Thm5.5-first", "A2", 2, 1, 1),
                 MapSpec("Thm4.5-second", "A2", 2, 3)):
        with pytest.raises(ValueError, match="exceed the cap 16"):
            verify(spec, column_cap=16)


def test_borel_and_minus_variants_small():
    for stmt in ("Borel-variant", "Minus-variant"):
        rep = verify(MapSpec(stmt, "A1", 2, 1, 1))
        assert rep.bijective
        assert rep.source_dim == (2 * 2) * (2 * 2)


def test_sabotage_detected_against_oracle():
    # A flipped structure-constant sign still yields a basis automorphism,
    # so the rank harness alone stays bijective; the cross-check against
    # the exact rational oracle is what catches it.
    eng = sabotaged_engine("A2", 3)
    rep = verify(MapSpec("Thm4.5-first", "A2", 3, 1, 1), engine=eng)
    assert rep.rank == rep.source_dim  # well-formed, rank-complete report
    qo = QOracle(eng.rs)
    good = Engine(eng.rs, 3, sc=qo.sc)
    x = [((0, 1), 1), ((1, 0), 1)]
    expect = qo.reduce_mod_p(qo.multiply_divided(x), 3, 1)
    got = eng.multiply(
        eng.divided_power((0, 1), 1, 1), eng.divided_power((1, 0), 1, 1)
    )
    assert not got.equals(expect)
    # and the healthy engine agrees with the oracle on the same product
    direct = good.multiply(
        good.divided_power((0, 1), 1, 1), good.divided_power((1, 0), 1, 1)
    )
    assert direct.equals(expect)


def test_report_block_weights_are_lists_of_ints():
    rep = verify(MapSpec("Thm5.5-first", "A1", 2, 1, 1))
    assert rep.bijective
    for b in rep.blocks:
        assert isinstance(b["weight"], list)
        assert all(isinstance(v, int) for v in b["weight"])


def _reference_rank_mod2(mat):
    """Plain Gaussian elimination over F_2 on a copy of the matrix."""
    m = (np.asarray(mat) % 2).astype(np.int64)
    rank = 0
    for col in range(m.shape[1]):
        rows = [i for i in range(rank, m.shape[0]) if m[i, col]]
        if not rows:
            continue
        m[[rank, rows[0]]] = m[[rows[0], rank]]
        for i in range(m.shape[0]):
            if i != rank and m[i, col]:
                m[i] = (m[i] + m[rank]) % 2
        rank += 1
    return rank


def test_rank_fp_p2_matches_reference():
    rng = np.random.default_rng(23)
    for nrows, ncols in ((5, 3), (9, 13), (17, 7), (30, 65), (70, 71), (40, 130)):
        for density in (0.1, 0.5):
            m = (rng.random((nrows, ncols)) < density).astype(np.int64)
            # repeat some rows and columns so that the rank drops
            m[nrows // 2] = m[0]
            m[:, ncols - 1] = m[:, 0]
            assert rank_fp(m, 2) == _reference_rank_mod2(m), (nrows, ncols)
            # odd entries count as ones, even ones as zeros
            assert rank_fp(3 * m + 2, 2) == _reference_rank_mod2(m)


# -- batched column building -----------------------------------------------

_NON_ITERATED = {
    "Thm4.5-first": "plus",
    "Prop5.1-first": "zero",
    "Borel-variant": "borel",
    "Minus-variant": "minus-borel",
    "Thm5.5-first": "full",
}


def _split_columns(labels, parts):
    """Every column of a `_build_columns` result as its own element:
    {key: table}, keeping only the keys whose table is nonzero."""
    cols = [None] * len(labels)
    for idx, prod in parts:
        flat = np.ravel(idx)
        for s, col in enumerate(flat):
            terms = {}
            for key, h in prod.terms.items():
                side = h.arr.shape[np.ndim(idx):]
                table = h.arr.reshape((flat.size,) + side)[s]
                if table.any():
                    terms[key] = table
            assert cols[col] is None, f"column {col} built twice"
            cols[col] = terms
    assert all(c is not None for c in cols)
    return cols


def _assert_batched_matches_per_column(spec, engine, sample=None):
    level = spec.r + spec.n
    fro = Frobenius(engine)
    labels, parts = _build_columns(spec, engine, fro, level)
    batched = _split_columns(labels, parts)
    space = _NON_ITERATED[spec.statement]
    left = enumerate_basis(engine, space, spec.r, level)
    right = enumerate_basis(engine, space, spec.n, level)
    assert len(labels) == len(left) * len(right)
    picks = range(len(labels))
    if sample is not None and len(labels) > sample:
        picks = sorted(random.Random(31).sample(picks, sample) + [0, len(labels) - 1])
    for k in picks:
        i, j = divmod(k, len(right))
        assert labels[k] == f"{left[i][0]} * Fr'^{spec.r}({right[j][0]})"
        want = engine.multiply(left[i][1], fro.fr_prime(right[j][1], spec.r))
        got = batched[k]
        assert set(got) == set(want.terms), (spec, k)
        for key, h in want.terms.items():
            assert got[key].dtype == h.arr.dtype
            assert np.array_equal(got[key], h.arr), (spec, k, key)
    return labels, parts


_SMALL_CASES = [
    (stmt, system, p)
    for stmt in _NON_ITERATED
    for system in ("A1", "A2")
    for p in (2, 3)
    # A2 Borel at p=3 (59049 columns) and A2 full (65536 columns at p=2)
    # are sampled below; A2 full at p=3 has 3^16 columns.
    if system == "A1"
    or stmt in ("Thm4.5-first", "Prop5.1-first")
    or (p == 2 and stmt != "Thm5.5-first")
]


@pytest.mark.parametrize("statement,system,p", _SMALL_CASES)
def test_batched_columns_match_per_column(statement, system, p):
    spec = MapSpec(statement, system, p, 1, 1)
    engine = Engine(build_root_system(system), p)
    labels, parts = _assert_batched_matches_per_column(spec, engine)
    # a key held by one basis element keeps plain tables, one product per column
    assert (len(parts) == len(labels)) == (statement == "Thm4.5-first")
    assert all((np.ndim(idx) == 0) == (statement == "Thm4.5-first") for idx, _ in parts)


@pytest.mark.parametrize("spec", [
    MapSpec("Borel-variant", "A2", 3, 1, 1),
    MapSpec("Minus-variant", "A2", 3, 1, 1),
    MapSpec("Thm5.5-first", "A2", 2, 1, 1),
    MapSpec("Thm5.5-first", "A1", 2, 1, 2),
])
def test_batched_columns_match_per_column_sampled(spec):
    engine = Engine(build_root_system(spec.system), spec.p)
    _assert_batched_matches_per_column(spec, engine, sample=150)


def test_batched_columns_on_sabotaged_engine():
    spec = MapSpec("Borel-variant", "A2", 3, 1, 1)
    _assert_batched_matches_per_column(spec, sabotaged_engine("A2", 3), sample=150)


def _batched_part(eng, level, tables):
    """A product whose tables, given per key as lists of slices, carry a
    (1, len(slices)) batch axis."""
    terms = {key: HPart(np.stack(sl)[None], eng.p, level) for key, sl in tables.items()}
    return PBWElement(eng, level, terms)


def test_zero_slice_lands_in_zero_weight_block():
    eng = Engine(build_root_system("A1"), 2)
    level = 2
    target = _TargetIndex(eng, "full", level, level)
    key = ((0,), (1,))  # e^(1): weight 2
    w = eng.term_weight(key)
    ones = np.ones((4,), dtype=np.int16)
    zero = np.zeros((4,), dtype=np.int16)
    first = np.array([1, 0, 1, 0], dtype=np.int16)
    prod = _batched_part(eng, level, {key: [first, zero, ones]})
    pieces = target.split([(np.array([[7, 2, 5]]), prod)])
    assert set(pieces) == {w, (0,)}
    cols, rows, offsets, entry_cols, values = pieces[w]
    assert list(cols) == [5, 7] and list(entry_cols) == [5, 7]
    # the block's only key is its only row
    assert rows == [key] and list(offsets) == [0] * 2
    assert np.array_equal(values, np.stack([ones, first]))
    cols0, rows0, offsets0, entry_cols0, values0 = pieces[(0,)]
    assert list(cols0) == [2] and rows0 == []
    assert offsets0.size == entry_cols0.size == len(values0) == 0
    mat, cols = target.block(pieces[(0,)])
    assert list(cols) == [2] and mat.shape == (0, 1)
    mat, cols = target.block(pieces[w])
    assert list(cols) == [5, 7]
    assert mat.shape == (target.hsize, 2)
    assert np.array_equal(mat, np.stack([ones, first], axis=1))
    assert mat.sum() == 6
    # a plain zero product also goes to the zero weight
    pieces = target.split([(3, eng.zero(level))])
    assert list(pieces) == [(0,)] and list(pieces[(0,)][0]) == [3]


def test_split_refuses_mixed_weights_per_slice():
    eng = Engine(build_root_system("A1"), 2)
    level = 2
    target = _TargetIndex(eng, "full", level, level)
    ones = np.ones((4,), dtype=np.int16)
    zero = np.zeros((4,), dtype=np.int16)
    e1, f1 = ((0,), (1,)), ((1,), (0,))
    # two weights in different slices: fine, one piece each
    prod = _batched_part(eng, level, {e1: [ones, zero], f1: [zero, ones]})
    pieces = target.split([(np.array([[0, 1]]), prod)])
    assert {w: list(piece[0]) for w, piece in pieces.items()} == {
        eng.term_weight(e1): [0], eng.term_weight(f1): [1]}
    # two weights in one slice: the column is not homogeneous
    prod = _batched_part(eng, level, {e1: [ones, zero], f1: [ones, zero]})
    with pytest.raises(ValueError, match="weight-homogeneous"):
        target.split([(np.array([[0, 1]]), prod)])


def test_split_refuses_term_outside_target():
    eng = Engine(build_root_system("A1"), 2)
    level = 1
    target = _TargetIndex(eng, "plus", level, level)
    key = ((0,), (2,))  # e^(2) lies outside the depth-1 truncation
    prod = eng.monomial(*key, None, level)
    with pytest.raises(RuntimeError, match="outside its weight block"):
        target.split([(0, prod)])
    # a zero slice of such a term is left out, not refused
    zero = np.zeros((2,), dtype=np.int16)
    ones = np.ones((2,), dtype=np.int16)
    prod = _batched_part(eng, level, {key: [zero, zero], ((0,), (1,)): [ones, zero]})
    pieces = target.split([(np.array([[0, 1]]), prod)])
    assert {w: list(piece[0]) for w, piece in pieces.items()} == {
        eng.term_weight(((0,), (1,))): [0], (0,): [1]}


@pytest.mark.parametrize("spec", [
    MapSpec("Thm4.5-first", "A2", 3, 1, 1),
    MapSpec("Thm5.5-first", "A1", 3, 1, 1),
    MapSpec("Borel-variant", "A2", 2, 1, 1),
    MapSpec("Prop5.1-first", "A2", 2, 1, 2),
])
def test_blocks_match_per_column_coordinates(spec):
    # Each weight block equals the matrix of the per-column products'
    # coordinates, columns in column order; on these bijective maps its rows
    # are all the target keys of its weight, in the basis order.
    engine = Engine(build_root_system(spec.system), spec.p)
    level = spec.r + spec.n
    fro = Frobenius(engine)
    space = _NON_ITERATED[spec.statement]
    target = _TargetIndex(engine, space, level, level)
    labels, parts = _build_columns(spec, engine, fro, level)
    pieces = target.split(parts)
    left = enumerate_basis(engine, space, spec.r, level)
    right = enumerate_basis(engine, space, spec.n, level)
    target_keys = _basis_keys(engine, space, level)
    columns = {}
    for k in range(len(labels)):
        i, j = divmod(k, len(right))
        col = engine.multiply(left[i][1], fro.fr_prime(right[j][1], spec.r))
        weights = {engine.term_weight(key) for key in col.terms}
        assert len(weights) <= 1
        w = weights.pop() if weights else (0,) * engine.rs.rank
        columns.setdefault(w, []).append((k, col))
    assert set(pieces) == set(columns)
    for w, entries in columns.items():
        rows = pieces[w][1]
        assert rows == [key for key in target_keys if engine.term_weight(key) == w]
        mat, cols = target.block(pieces[w])
        assert list(cols) == [k for k, _ in entries]
        want = _coordinates([col for _, col in entries], rows, target.hsize)
        assert np.array_equal(mat, want)


def _basis_keys(engine, space, depth):
    """The monomial keys of a truncated space, in basis order."""
    basis = enumerate_basis(engine, space, depth, depth)
    return list(dict.fromkeys(key for _, x in basis for key in x.terms))


def _coordinates(columns, rows, hsize):
    """Matrix of the columns' coordinates on the given row keys, hsize
    entries of each key's table per key."""
    mat = np.zeros((len(rows) * hsize, len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for key, h in col.terms.items():
            base = rows.index(key) * hsize
            mat[base : base + hsize, j] = h.arr.ravel()[:hsize]
    return mat


@pytest.mark.parametrize("system,p", [(s, p) for s in ("A1", "A2") for p in (2, 3)])
def test_target_dimension_matches_basis(system, p):
    engine = Engine(build_root_system(system), p)
    for space in _SPACES:
        for depth in (1, 2) if system == "A1" else (1,):
            target = _TargetIndex(engine, space, depth, depth)
            basis = enumerate_basis(engine, space, depth, depth)
            assert target.dim == len(basis)
            assert target.holds([key for _, x in basis for key in x.terms]).all()
            # a unit exponent holds on the sides the space has; one step past
            # the truncation holds on neither
            zero, unit = (0,) * engine.nu, (1,) + (0,) * (engine.nu - 1)
            past = (p**depth,) + (0,) * (engine.nu - 1)
            probes = [(zero, unit), (unit, zero), (zero, past), (past, zero)]
            assert list(target.holds(probes)) == [
                "e" in _SPACES[space], "f" in _SPACES[space], False, False]


def _identity_frobenius(monkeypatch):
    monkeypatch.setattr(Frobenius, "fr_prime", lambda self, x, r: x)


@pytest.mark.parametrize("spec", [
    MapSpec("Thm4.5-first", "A2", 3, 1, 1),
    MapSpec("Thm5.5-first", "A1", 2, 1, 1),
])
def test_blocks_missing_target_keys_keep_rank_and_kernel(monkeypatch, spec):
    # With Fr' the identity the products miss some target keys, so some
    # blocks have fewer rows than the target has keys of their weight.
    # Against the full-row matrix on the target basis, they keep the rank
    # and the kernel vector.
    _identity_frobenius(monkeypatch)
    engine = Engine(build_root_system(spec.system), spec.p)
    level = spec.r + spec.n
    space = _NON_ITERATED[spec.statement]
    target = _TargetIndex(engine, space, level, level)
    labels, parts = _build_columns(spec, engine, Frobenius(engine), level)
    pieces = target.split(parts)
    left = enumerate_basis(engine, space, spec.r, level)
    right = enumerate_basis(engine, space, spec.n, level)
    target_keys = _basis_keys(engine, space, level)
    short = 0
    for w, piece in pieces.items():
        mat, cols = target.block(piece)
        rows = [key for key in target_keys if engine.term_weight(key) == w]
        columns = [engine.multiply(left[k // len(right)][1], right[k % len(right)][1])
                   for k in cols]
        full = _coordinates(columns, rows, target.hsize)
        short += len(rows) > len(piece[1])
        assert rank_fp(mat, spec.p) == rank_fp(full, spec.p)
        got, want = _kernel_vector(mat, spec.p), _kernel_vector(full, spec.p)
        assert (got is None) == (want is None)
        assert want is None or np.array_equal(got, want)
    assert short


# Kernel witnesses of four maps with Fr' the identity, kept as literals:
# the witness must not depend on which zero rows a block carries.
_IDENTITY_WITNESSES = [
    (MapSpec("Thm4.5-first", "A2", 3, 1, 1),
     [(1, "1 * Fr'^1(e[0 1]^(2))"), (1, "e[0 1]^(1) * Fr'^1(e[0 1]^(1))")]),
    (MapSpec("Thm5.5-first", "A1", 2, 1, 1),
     [(1, "mu(0;1) * Fr'^1(f[1]^(1)*mu(0;1))"),
      (1, "f[1]^(1)*mu(0;1) * Fr'^1(mu(0;1))")]),
    (MapSpec("Prop5.1-first", "A2", 3, 1, 1),
     [(1, "mu(0 0;1) * Fr'^1(mu(0 1;1))")]),
    (MapSpec("Thm4.5-second", "A2", 2, 2),
     [(1, "Fr'^0(1) * Fr'^1(e[0 1]^(1))"), (1, "Fr'^0(e[0 1]^(1)) * Fr'^1(1)")]),
]


def _identity_columns(spec, engine, level):
    """Source label -> column of the map with Fr' the identity, each
    column its own product."""
    if spec.statement == "Thm4.5-second":
        basis = enumerate_basis(engine, "plus", 1, level)
        out = {}
        for combo in itertools.product(basis, repeat=spec.r):
            prod = engine.one(level)
            for _, x in combo:
                prod = engine.multiply(prod, x)
            out[" * ".join(f"Fr'^{i}({lab})" for i, (lab, _) in enumerate(combo))] = prod
        return out
    space = _NON_ITERATED[spec.statement]
    left = enumerate_basis(engine, space, spec.r, level)
    right = enumerate_basis(engine, space, spec.n, level)
    return {
        f"{lx} * Fr'^{spec.r}({ly})": engine.multiply(x, y)
        for lx, x in left
        for ly, y in right
    }


@pytest.mark.parametrize("spec,witness", _IDENTITY_WITNESSES)
def test_kernel_witness_is_a_kernel_vector(monkeypatch, spec, witness):
    _identity_frobenius(monkeypatch)
    rep = verify(spec)
    assert not rep.bijective
    assert rep.kernel_witness == witness
    engine = Engine(build_root_system(spec.system), spec.p)
    level = spec.r if spec.statement == "Thm4.5-second" else spec.r + spec.n
    columns = _identity_columns(spec, engine, level)
    total = engine.zero(level)
    for c, label in rep.kernel_witness:
        assert c % spec.p
        total = total.add(columns[label].scale(c))
    assert rep.kernel_witness and total.is_zero()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_entries_skip_multiples_of_p(p):
    # A table value p (or 2p) is zero mod p: no live entry, so no pivot.
    eng = Engine(build_root_system("A1"), p)
    target = _TargetIndex(eng, "full", 2, 2)
    key = ((0,), (1,))
    values = np.zeros((2, target.hsize), dtype=np.int16)
    values[0, :2] = [1, p]
    values[1, 1:3] = [p - 1, 2 * p]
    piece = (np.array([3, 8]), [key], np.array([0, 0]), np.array([3, 8]), values)
    rows, cols, residues = target.entries(piece)
    assert sorted(zip(rows.tolist(), cols.tolist(), residues.tolist())) == [
        (0, 0, 1), (1, 1, p - 1)]
    mat, _ = target.block(piece)
    assert all(mat[r, c] % p == v for r, c, v in zip(rows, cols, residues))
    pivots, left_rows, left_cols = peel(rows, cols, *mat.shape)
    assert sorted(map(tuple, pivots.tolist())) == [(0, 0), (1, 1)]
    assert not left_rows.size and not left_cols.size
    assert len(pivots) == rank_fp(mat, p)


def _report(spec, engine=None):
    out = verify(spec, engine=engine).to_dict()
    del out["elapsed_ms"]
    return out


@pytest.mark.parametrize("spec,sabotaged,identity", [
    (MapSpec("Thm4.5-first", "A2", 3, 1, 1), False, False),
    (MapSpec("Thm5.5-first", "A1", 2, 1, 1), False, False),
    (MapSpec("Thm4.5-first", "A2", 3, 1, 1), True, False),
] + [(spec, False, True) for spec, _ in _IDENTITY_WITNESSES])
def test_dense_leftover_path_gives_the_same_report(monkeypatch, spec, sabotaged, identity):
    # With nothing peeled, every block goes whole through rank_fp, the
    # leftover path; the report must equal the peeled one.
    if identity:
        _identity_frobenius(monkeypatch)

    def engine():
        return sabotaged_engine(spec.system, spec.p) if sabotaged else None

    peeled = _report(spec, engine())
    monkeypatch.setattr(
        isocheck, "peel",
        lambda rows, cols, n_rows, n_cols: (
            np.zeros((0, 2), dtype=np.intp), np.unique(rows), np.unique(cols)),
    )
    assert _report(spec, engine()) == peeled
    assert identity == (peeled.get("kernel_witness") is not None)
