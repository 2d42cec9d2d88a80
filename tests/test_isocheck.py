"""Rank harness: exact linear algebra, bases, certification reports."""

import json

import numpy as np
import pytest

from hyperalg.isocheck import (
    DESK_SPECS,
    STATEMENTS,
    MapSpec,
    enumerate_basis,
    rank_fp,
    sabotaged_engine,
    verify,
)
from hyperalg.qoracle import QOracle
from hyperalg.rootdata import build_root_system
from hyperalg.straighten import Engine


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


def test_column_cap_enforced():
    with pytest.raises(ValueError):
        verify(MapSpec("Thm4.5-first", "G2", 2, 1, 1), column_cap=16)


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
