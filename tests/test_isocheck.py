"""Rank harness: exact linear algebra, bases, certification reports."""

import itertools
import json
import random
import re

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
    _dense,
    _kernel_vector,
    _TargetIndex,
    enumerate_basis,
    rank_fp,
    sabotaged_engine,
    verify,
)
from hyperalg.idempotents import mu_hpart
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


def test_mapspec_refuses_n_on_iterated_statements():
    # An iterated map multiplies depth-1 factors; an n it never reads
    # would only show up, unused, in the report.
    for stmt in _ITERATED_STATEMENTS:
        with pytest.raises(ValueError, match="n=3 must be 1"):
            MapSpec(stmt, "A2", 2, 2, 3)
        assert MapSpec(stmt, "A2", 2, 2).n == 1
    assert MapSpec("Prop5.1-first", "A2", 2, 1, 3).n == 3


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


def test_scaled_torus_splitting_is_not_multiplicative(monkeypatch):
    # Fr' on the torus doubled: still bijective, as 2 is a unit mod 3, but a
    # product of two images carries 2^(2k) against 2^k for the image of the
    # product, k the number of split factors.  These agree mod 3 for even k,
    # so the iterated map is taken at r = 3.
    fr_prime_zero = Frobenius.fr_prime_zero
    monkeypatch.setattr(
        Frobenius, "fr_prime_zero", lambda self, h, r=1: fr_prime_zero(self, h, r).scale(2))
    for spec in (MapSpec("Prop5.1-first", "A2", 3, 1, 1), MapSpec("Prop5.1-second", "A1", 3, 3)):
        rep = verify(spec)
        assert rep.bijective and rep.multiplicative is False


def test_scaled_torus_splitting_is_not_a_splitting(monkeypatch):
    # The same doubling where products cannot see it: at k = 2 split factors
    # 2^4 = 2^2 mod 3, and at p = 2 every image is zero.  Fr^k o Fr'^k is
    # then 2 or 0 times the identity, not the identity.
    fr_prime_zero = Frobenius.fr_prime_zero
    monkeypatch.setattr(
        Frobenius, "fr_prime_zero", lambda self, h, r=1: fr_prime_zero(self, h, r).scale(2))
    for spec in (MapSpec("Prop5.1-second", "A2", 3, 2), MapSpec("Prop5.1-first", "A2", 2, 1, 1)):
        assert verify(spec).multiplicative is False


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


@pytest.mark.parametrize("system", ["A2", "B2", "G2"])
def test_sabotage_reaches_every_system(system):
    # (0, 1), (1, 0) is the first composite positive pair on each system;
    # the sabotaged engine must change the product it reorders.
    rs = build_root_system(system)

    def product(eng):
        return eng.multiply(eng.divided_power((0, 1), 1, 1), eng.divided_power((1, 0), 1, 1))

    assert not product(sabotaged_engine(system, 3)).equals(product(Engine(rs, 3)))


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

_ITERATED_STATEMENTS = ("Thm4.5-second", "Prop5.1-second", "Thm5.5-second")


def _source_factors(spec):
    """The map's factors as (truncation depth, power of Fr'), None for a
    factor that enters unsplit, and its target depth."""
    if spec.statement in _ITERATED_STATEMENTS:
        factors = [(1, k) for k in range(spec.r)]
    else:
        factors = [(spec.r, None), (spec.n, spec.r)]
    return factors, max(d + (k or 0) for d, k in factors)


def _split_columns(n_cols, parts):
    """Every column of a `_build_columns` result as its own element:
    {key: table}, keeping only the keys whose table is nonzero."""
    cols = [None] * n_cols
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
    # Column k is the product of Fr'^k(x_k) over the source tuple of
    # column k, the first factor most significant.
    factors, level = _source_factors(spec)
    fro = Frobenius(engine)
    factor_labels, parts = _build_columns(spec, engine, fro, level)
    # the source labels, joined from the per-factor lists in column order
    labels = [" * ".join(combo) for combo in itertools.product(*factor_labels)]
    batched = _split_columns(len(labels), parts)
    space = isocheck._STATEMENT_SPACE[spec.statement]
    bases = [enumerate_basis(engine, space, d, level) for d, _ in factors]
    sizes = [len(b) for b in bases]
    assert [len(n) for n in factor_labels] == sizes
    assert len(labels) == np.prod(sizes)
    picks = range(len(labels))
    if sample is not None and len(labels) > sample:
        picks = sorted(random.Random(31).sample(picks, sample) + [0, len(labels) - 1])
    for k in picks:
        names, want = [], engine.one(level)
        for (_, power), basis, i in zip(factors, bases, np.unravel_index(k, sizes)):
            lab, x = basis[i]
            if power is not None:
                lab, x = f"Fr'^{power}({lab})", fro.fr_prime(x, power)
            names.append(lab)
            want = engine.multiply(want, x)
        assert labels[k] == " * ".join(names)
        got = batched[k]
        assert set(got) == set(want.terms), (spec, k)
        for key, h in want.terms.items():
            assert got[key].dtype == h.arr.dtype
            assert np.array_equal(got[key], h.arr), (spec, k, key)
    return labels, parts


def _column_count(spec):
    """p^(depth * k), k the exponents and torus coordinates of one basis
    element of the target space, on A1 (nu=1, rank 1) or A2 (nu=3, rank 2)."""
    nu, rank = {"A1": (1, 1), "A2": (3, 2)}[spec.system]
    space = isocheck._STATEMENT_SPACE[spec.statement]
    k = sum({"f": nu, "e": nu, "h": rank}[c] for c in _SPACES[space])
    return spec.p ** (_source_factors(spec)[1] * k)


# Every statement on A1 and A2, p = 2 and 3, iterated ones at r = 2 and 3
# (r in their test id), built in full up to 4096 columns; larger ones are
# sampled below.
_SMALL_CASES = [
    pytest.param(
        spec.statement, spec.system, spec.p, spec.r,
        id="-".join(map(str, (spec.statement, spec.system, spec.p)
                         + ((spec.r,) if spec.statement in _ITERATED_STATEMENTS else ()))),
    )
    for spec in (
        MapSpec(stmt, system, p, r)
        for stmt in STATEMENTS
        for system in ("A1", "A2")
        for p in (2, 3)
        for r in ((2, 3) if stmt in _ITERATED_STATEMENTS else (1,))
    )
    if _column_count(spec) <= 4096
]


@pytest.mark.parametrize("statement,system,p,r", _SMALL_CASES)
def test_batched_columns_match_per_column(statement, system, p, r):
    spec = MapSpec(statement, system, p, r, 1)
    engine = Engine(build_root_system(system), p)
    _, parts = _assert_batched_matches_per_column(spec, engine)
    # every part is batched, a key group of one included: its column numbers
    # form a 2-D array, the leading batch axes of every table of its product
    for idx, prod in parts:
        assert np.ndim(idx) == 2
        assert all(h.arr.shape[:2] == idx.shape for h in prod.terms.values())


@pytest.mark.parametrize("spec", [
    MapSpec("Borel-variant", "A2", 3, 1, 1),
    MapSpec("Minus-variant", "A2", 3, 1, 1),
    MapSpec("Thm5.5-first", "A2", 2, 1, 1),
    MapSpec("Thm5.5-first", "A1", 2, 1, 2),
    MapSpec("Thm5.5-second", "A2", 2, 2),
    MapSpec("Thm5.5-second", "A1", 3, 3),
])
def test_batched_columns_match_per_column_sampled(spec):
    engine = Engine(build_root_system(spec.system), spec.p)
    _assert_batched_matches_per_column(spec, engine, sample=150)


def test_batched_columns_on_sabotaged_engine():
    for spec in (MapSpec("Borel-variant", "A2", 3, 1, 1), MapSpec("Thm5.5-second", "A2", 2, 2)):
        _assert_batched_matches_per_column(
            spec, sabotaged_engine(spec.system, spec.p), sample=150)


def _batched_part(eng, level, tables):
    """A product whose tables, given per key as lists of slices, carry a
    (1, len(slices)) batch axis."""
    terms = {key: HPart(np.stack(sl)[None], eng.p, level) for key, sl in tables.items()}
    return PBWElement(eng, level, terms)


def _whole(piece):
    """The dense matrix of a whole `split` block."""
    return _dense(piece, np.arange(piece[1]), np.arange(len(piece[0])))


def test_zero_slice_lands_in_zero_weight_block():
    eng = Engine(build_root_system("A1"), 2)
    level = 2
    target = _TargetIndex(eng, "full", level)
    key = ((0,), (1,))  # e^(1): weight 2
    w = eng.term_weight(key)
    ones = np.ones((4,), dtype=np.int16)
    zero = np.zeros((4,), dtype=np.int16)
    first = np.array([1, 0, 1, 0], dtype=np.int16)
    prod = _batched_part(eng, level, {key: [first, zero, ones]})
    pieces = target.split([(np.array([[7, 2, 5]]), prod)])
    assert set(pieces) == {w, (0,)}
    cols, n_rows, rows, places, residues = pieces[w]
    assert list(cols) == [5, 7] and sorted(set(places.tolist())) == [0, 1]
    # the block's only key is its only run of hsize rows
    assert n_rows == target.hsize and rows.max() < target.hsize
    assert (residues == 1).all() and len(residues) == 6
    cols0, n_rows0, rows0, places0, residues0 = pieces[(0,)]
    assert list(cols0) == [2] and n_rows0 == 0
    assert rows0.size == places0.size == residues0.size == 0
    assert _whole(pieces[(0,)]).shape == (0, 1)
    mat = _whole(pieces[w])
    assert mat.shape == (target.hsize, 2)
    assert np.array_equal(mat, np.stack([ones, first], axis=1))
    assert mat.sum() == 6
    # a plain zero product also goes to the zero weight
    pieces = target.split([(3, eng.zero(level))])
    assert list(pieces) == [(0,)] and list(pieces[(0,)][0]) == [3]


def test_split_refuses_mixed_weights_per_slice():
    eng = Engine(build_root_system("A1"), 2)
    level = 2
    target = _TargetIndex(eng, "full", level)
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


def test_term_outside_target_refused_before_column_products(monkeypatch):
    # With Fr' one step too deep, Fr'^2 of e[0 1]^(1) is e[0 1]^(9), past
    # the depth-2 truncation.  Column products multiply batched tables, the
    # splitting only plain ones: none may be made before the refusal.
    fr_prime = Frobenius.fr_prime
    monkeypatch.setattr(Frobenius, "fr_prime", lambda self, x, r: fr_prime(self, x, r + 1))
    multiply = Engine.multiply

    def plain_only(self, x, y):
        batched = [h.arr.shape for z in (x, y) for h in z.terms.values()
                   if h.arr.ndim > self.rs.rank]
        assert not batched, f"column product made on tables {batched}"
        return multiply(self, x, y)

    monkeypatch.setattr(Engine, "multiply", plain_only)
    with pytest.raises(RuntimeError, match=re.escape(
            "term ((0, 0, 0), (0, 0, 9)) falls outside its weight block (-9, 18)")):
        verify(MapSpec("Thm4.5-first", "A2", 3, 1, 1))


def test_split_refuses_term_outside_target():
    eng = Engine(build_root_system("A1"), 2)
    level = 1
    target = _TargetIndex(eng, "plus", level)
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
    space = isocheck._STATEMENT_SPACE[spec.statement]
    target = _TargetIndex(engine, space, level)
    _, parts = _build_columns(spec, engine, fro, level)
    pieces = target.split(parts)
    left = enumerate_basis(engine, space, spec.r, level)
    right = enumerate_basis(engine, space, spec.n, level)
    target_keys = _basis_keys(engine, space, level)
    columns = {}
    for k in range(len(left) * len(right)):
        i, j = divmod(k, len(right))
        col = engine.multiply(left[i][1], fro.fr_prime(right[j][1], spec.r))
        weights = {engine.term_weight(key) for key in col.terms}
        assert len(weights) <= 1
        w = weights.pop() if weights else (0,) * engine.rs.rank
        columns.setdefault(w, []).append((k, col))
    assert set(pieces) == set(columns)
    for w, entries in columns.items():
        cols, n_rows = pieces[w][:2]
        rows = [key for key in target_keys if engine.term_weight(key) == w]
        assert n_rows == len(rows) * target.hsize
        assert list(cols) == [k for k, _ in entries]
        want = _coordinates([col for _, col in entries], rows, target.hsize)
        assert np.array_equal(_whole(pieces[w]), want)


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
            target = _TargetIndex(engine, space, depth)
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
    space = isocheck._STATEMENT_SPACE[spec.statement]
    target = _TargetIndex(engine, space, level)
    _, parts = _build_columns(spec, engine, Frobenius(engine), level)
    pieces = target.split(parts)
    left = enumerate_basis(engine, space, spec.r, level)
    right = enumerate_basis(engine, space, spec.n, level)
    target_keys = _basis_keys(engine, space, level)
    short = 0
    for w, piece in pieces.items():
        mat, cols = _whole(piece), piece[0]
        rows = [key for key in target_keys if engine.term_weight(key) == w]
        columns = [engine.multiply(left[k // len(right)][1], right[k % len(right)][1])
                   for k in cols]
        full = _coordinates(columns, rows, target.hsize)
        short += len(rows) * target.hsize > piece[1]
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
    space = isocheck._STATEMENT_SPACE[spec.statement]
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
    level = 2
    target = _TargetIndex(eng, "full", level)
    key = ((0,), (1,))
    values = np.zeros((2, target.hsize), dtype=np.int16)
    values[0, :2] = [1, p]
    values[1, 1:3] = [p - 1, 2 * p]
    prod = _batched_part(eng, level, {key: list(values)})
    (piece,) = target.split([(np.array([[3, 8]]), prod)]).values()
    assert list(piece[0]) == [3, 8] and piece[1] == target.hsize
    rows, cols, residues = piece[2:]
    assert sorted(zip(rows.tolist(), cols.tolist(), residues.tolist())) == [
        (0, 0, 1), (1, 1, p - 1)]
    mat = _whole(piece)
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


@pytest.mark.parametrize("system,p", [("A2", 5), ("B2", 3)])
def test_verify_refuses_an_engine_off_its_spec(system, p):
    # An engine on another prime or root system would certify its own map
    # under the spec's name.
    spec = MapSpec("Thm4.5-first", "A2", 3, 1, 1)
    with pytest.raises(ValueError, match="does not match"):
        verify(spec, engine=Engine(build_root_system(system), p))


def test_plus_columns_keep_constant_tables():
    # Every torus part of the raising algebra is constant, so no column
    # product of a plus statement builds a full table; the idempotents of
    # the other spaces are full tables.
    spec = MapSpec("Thm4.5-first", "A2", 3, 1, 1)
    engine = Engine(build_root_system(spec.system), spec.p)
    level = spec.r + spec.n
    _, parts = _build_columns(spec, engine, Frobenius(engine), level)
    assert parts
    for cols, prod in parts:
        for h in prod.terms.values():
            assert h.arr.shape == cols.shape + (1, 1), h.arr.shape
    size = spec.p**level
    assert mu_hpart(engine, (1, 2), 1, level).arr.shape == (size, size)


def test_split_broadcasts_constant_tables_on_the_zero_space():
    # A constant table on a space with full tables fills all hsize rows of
    # its key, as its broadcast full table would.
    eng = Engine(build_root_system("A2"), 3)
    level = 1
    target = _TargetIndex(eng, "zero", level)
    assert target.hsize == 9
    key = ((0,) * 3, (0,) * 3)
    const = eng.hpart_one(level).scale(2)
    full = HPart(np.broadcast_to(const.arr, (3, 3)).copy(), eng.p, level)
    for h in (const, full):
        pieces = target.split([(np.array([[4]]), eng.hpart_element(h, level))])
        cols, n_rows, rows, places, residues = pieces[(0, 0)]
        assert list(cols) == [4] and n_rows == 9
        assert list(rows) == list(range(9)) and not places.any()
        assert np.array_equal(residues, np.full(9, 2))
        assert np.array_equal(_whole(pieces[(0, 0)]), np.full((9, 1), 2))
    # batched: each column's constant fills its own rows
    stacked = PBWElement(eng, level, {key: HPart(
        np.array([1, 0, 2], dtype=np.int16).reshape(1, 3, 1, 1), eng.p, level)})
    pieces = target.split([(np.array([[0, 1, 2]]), stacked)])
    cols, n_rows, rows, places, residues = pieces[(0, 0)]
    assert list(cols) == [0, 1, 2] and sorted(set(places.tolist())) == [0, 2]
    assert np.array_equal(_whole(pieces[(0, 0)]), np.repeat([[1, 0, 2]], 9, axis=0))


def test_rank2_bases_belong_to_the_root_system(monkeypatch):
    # The base of each rank-2 subsystem is searched once per root system:
    # a second engine on it, cold, finds every base memoized.  The
    # sabotaged engine shares the bases but not the constants it reads
    # on them.
    rs = build_root_system("A2")
    x, y = ((0, 1), 1), ((1, 0), 1)

    def product(eng):
        return eng.multiply(eng.divided_power(*x, 1), eng.divided_power(*y, 1))

    honest = product(Engine(rs, 3))
    assert rs._rank2_bases
    searched = []
    subsystem_roots = rs.subsystem_roots
    monkeypatch.setattr(rs, "subsystem_roots",
                        lambda g, d: searched.append((g, d)) or subsystem_roots(g, d))
    assert product(Engine(rs, 3)).equals(honest)
    sabotaged = product(sabotaged_engine("A2", 3))
    assert searched == []
    key = ((0, 0, 0), (0, 1, 0))  # e[1 1]^(1)
    assert rs.convex_roots[1] == (1, 1)
    assert honest.terms[key].value((0, 0)) == 2
    assert sabotaged.terms[key].value((0, 0)) == 1
    assert not sabotaged.equals(honest)
