"""Torus idempotents: orthogonality, partition of unity, composition."""

import math

import numpy as np
import pytest

from hyperalg.frobenius import Frobenius
from hyperalg.idempotents import (
    enumerate_Xm,
    mu_binomial_coeffs,
    mu_hpart,
    mu_lambda,
)
from hyperalg.rootdata import build_root_system
from hyperalg.straighten import Engine, HPart, InsufficientLevelError, lucas_binom

CASES = [
    (label, p, n) for label in ("A1", "A2") for p in (2, 3) for n in (1, 2)
]


def engine_for(label, p):
    return Engine(build_root_system(label), p)


@pytest.mark.parametrize("label,p,n", CASES)
def test_weight_set_size(label, p, n):
    rs = build_root_system(label)
    xs = enumerate_Xm(rs, p, n)
    assert len(xs) == (p**n) ** rs.rank
    assert len(set(xs)) == len(xs)


@pytest.mark.parametrize("label,p,n", CASES)
def test_indicator_table(label, p, n):
    # The idempotent's value table is the indicator of lam's coset mod p^n.
    eng = engine_for(label, p)
    level = n
    size = p**level
    for lam in enumerate_Xm(eng.rs, p, n):
        h = mu_hpart(eng, lam, n, level)
        for idx in enumerate_Xm(eng.rs, p, level):
            expect = 1 if all((idx[i] - lam[i]) % p**n == 0 for i in range(eng.rs.rank)) else 0
            assert h.value(idx) % p == expect


@pytest.mark.parametrize("label,p,n", CASES)
def test_table_matches_binomial_product(label, p, n):
    # Entry x of the table is the product over i of
    # binom(x_i - lam_i - 1 mod p^level, p^n - 1), as an int16 table.
    eng = engine_for(label, p)
    level = n + 1
    size = p**level
    for lam in enumerate_Xm(eng.rs, p, n):
        h = mu_hpart(eng, lam, n, level)
        assert h.arr.dtype == np.int16 and h.arr.shape == (size,) * eng.rs.rank
        for idx in enumerate_Xm(eng.rs, p, level):
            want = math.prod(
                lucas_binom((x - l - 1) % size, p**n - 1, p) for x, l in zip(idx, lam)
            )
            assert h.value(idx) == want, (lam, idx)


@pytest.mark.parametrize("label,p,n", CASES)
def test_cartan_eigenvalue(label, p, n):
    # binom(h_i, t) acts on the idempotent by binom(<lam, a_i-vee>, t).
    eng = engine_for(label, p)
    level = n
    for lam in enumerate_Xm(eng.rs, p, n):
        h = mu_hpart(eng, lam, n, level)
        for i in range(eng.rs.rank):
            for t in range(p**n):
                lhs = eng.binom_h_simple(i, t, level).mul(h)
                rhs = h.scale(lucas_binom(lam[i], t, p))
                assert lhs.equals(rhs), (lam, i, t)


@pytest.mark.parametrize("label,p,n", CASES)
def test_orthogonal_idempotents_partition_unity(label, p, n):
    eng = engine_for(label, p)
    level = n
    xs = enumerate_Xm(eng.rs, p, n)
    hs = {lam: mu_hpart(eng, lam, n, level) for lam in xs}
    total = HPart.zeros(p, level, eng.rs.rank)
    for lam, h in hs.items():
        assert h.mul(h).equals(h)
        total = total.add(h)
    assert total.equals(eng.hpart_one(level))
    for i, lam in enumerate(xs):
        for mu in xs[i + 1 :]:
            assert hs[lam].mul(hs[mu]).is_zero()


@pytest.mark.parametrize("label,p,n", CASES)
def test_coset_equality(label, p, n):
    # Two weights give the same idempotent exactly when congruent mod p^n.
    eng = engine_for(label, p)
    rank = eng.rs.rank
    level = n
    base = (1,) * rank
    same = tuple(1 + p**n for _ in range(rank))
    diff = tuple(2 if i == 0 else 1 for i in range(rank))
    assert mu_hpart(eng, base, n, level).equals(mu_hpart(eng, same, n, level))
    if p**n > 1:
        assert not mu_hpart(eng, base, n, level).equals(
            mu_hpart(eng, diff, n, level)
        )


@pytest.mark.parametrize("label,p", [(l, p) for l in ("A1", "A2") for p in (2, 3)])
def test_composition_through_split(label, p):
    # mu_{lam + p^m lam'} at level n+m equals mu_lam^(m) * Fr'^m(mu_lam'^(n)).
    eng = engine_for(label, p)
    fr = Frobenius(eng)
    m = n = 1
    level = m + n
    rank = eng.rs.rank
    for lam in enumerate_Xm(eng.rs, p, m):
        for lamp in enumerate_Xm(eng.rs, p, n):
            combined = tuple(lam[i] + p**m * lamp[i] for i in range(rank))
            lhs = mu_hpart(eng, combined, n + m, level)
            inner = mu_hpart(eng, lamp, n, n)
            lifted = eng.hpart_from_binomial_basis(
                eng.hpart_to_binomial_basis(inner), level
            )
            rhs = mu_hpart(eng, lam, m, level).mul(
                fr.fr_prime_zero(lifted, m)
            )
            assert lhs.equals(rhs), (lam, lamp)


@pytest.mark.parametrize("label,p,n", CASES)
def test_conjugation_shifts_weight(label, p, n):
    # e_alpha^(m) mu_lam = mu_{lam + m alpha} e_alpha^(m).
    eng = engine_for(label, p)
    level = n
    rs = eng.rs
    for alpha in rs.roots:
        for m in (1, 2):
            lam = (1,) * rs.rank
            x = eng.divided_power(alpha, m, level)
            lhs = eng.multiply(x, mu_lambda(eng, lam, n, level))
            shifted = tuple(
                lam[i] + m * rs.weight_coords(alpha)[i] for i in range(rs.rank)
            )
            rhs = eng.multiply(mu_lambda(eng, shifted, n, level), x)
            assert lhs.equals(rhs), (alpha, m)


def test_binomial_route_matches_indicator_route():
    for p in (2, 3):
        eng = engine_for("A2", p)
        n = level = 2
        lam = (1, p - 1)
        coeffs = mu_binomial_coeffs(eng, lam, n, level)
        back = eng.hpart_from_binomial_basis(coeffs, level)
        assert back.equals(mu_hpart(eng, lam, n, level))
        # the top binomial degree must appear: the defining product has
        # degree p^n - 1 in each variable
        assert any(max(k) == p**n - 1 for k in coeffs)


def test_level_too_small_rejected():
    eng = engine_for("A1", 2)
    with pytest.raises(InsufficientLevelError):
        mu_hpart(eng, (0,), 2, 1)


def test_negative_depth_rejected():
    # p^n - 1 is no binomial degree for n < 0.
    eng = engine_for("A1", 2)
    with pytest.raises(ValueError, match="depth n=-1"):
        mu_hpart(eng, (1,), -1, 1)
