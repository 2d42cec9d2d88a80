"""Engine unit tests: rewrite rules, torus tables, support shapes."""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperalg.frobenius import Frobenius, SimpleWordTable
from hyperalg.qoracle import QOracle
from hyperalg.rootdata import build_root_system
from hyperalg import straighten
from hyperalg.straighten import (
    Engine, HPart, InsufficientLevelError, exps_of_weight, exps_sum, lucas_binom
)

SYSTEMS = ["A2", "B2", "G2"]


def engine_for(label, p):
    return Engine(build_root_system(label), p)


@given(st.integers(0, 400), st.integers(0, 400), st.sampled_from([2, 3, 5, 7]))
def test_lucas_binom_matches_comb(m, n, p):
    assert lucas_binom(m, n, p) == math.comb(m, n) % p


def test_same_root_merge():
    eng = engine_for("A2", 5)
    g = (1, 0)
    for m in range(6):
        for n in range(6):
            prod = eng.multiply(
                eng.divided_power(g, m, 1), eng.divided_power(g, n, 1)
            )
            expect = eng.divided_power(g, m + n, 1).scale(lucas_binom(m + n, n, 5))
            assert prod.equals(expect)


def test_ef_collision_formula():
    # e^(m) f^(n) = sum_k f^(n-k) binom(h - m - n + 2k, k) e^(m-k)
    for p in (2, 3):
        eng = engine_for("A2", p)
        g = (1, 1)
        level = 2
        for m in range(4):
            for n in range(4):
                prod = eng.multiply(
                    eng.divided_power(g, m, level),
                    eng.divided_power((-1, -1), n, level),
                )
                expect = eng.zero(level)
                for k in range(min(m, n) + 1):
                    h = eng.binom_h_root(g, -m - n + 2 * k, k, level)
                    f = eng.divided_power((-1, -1), n - k, level)
                    e = eng.divided_power(g, m - k, level)
                    expect = expect.add(
                        eng.multiply(f, eng.multiply(eng.hpart_element(h, level), e))
                    )
                assert prod.equals(expect)


def test_torus_shift_rule():
    # e^(m) * binom(h_beta + c, n) = binom(h_beta + c - <alpha,beta-vee>m, n) * e^(m)
    eng = engine_for("B2", 3)
    level = 2
    rs = eng.rs
    for alpha in rs.roots:
        for beta in rs.positive_roots:
            m, n, c = 2, 3, 1
            h = eng.binom_h_root(beta, c, n, level)
            lhs = eng.multiply(
                eng.divided_power(alpha, m, level), eng.hpart_element(h, level)
            )
            h2 = eng.binom_h_root(beta, c - rs.pairing(alpha, beta) * m, n, level)
            rhs = eng.multiply(
                eng.hpart_element(h2, level), eng.divided_power(alpha, m, level)
            )
            assert lhs.equals(rhs)


def test_commuting_pairs():
    for label in SYSTEMS:
        eng = engine_for(label, 5)
        rs = eng.rs
        for g in rs.roots:
            for d in rs.roots:
                s = tuple(x + y for x, y in zip(g, d))
                if rs.is_root(s) or d == g or d == tuple(-x for x in g):
                    continue
                x = eng.divided_power(g, 3, 2)
                y = eng.divided_power(d, 2, 2)
                assert eng.multiply(x, y).equals(eng.multiply(y, x))


def test_cartan_binomial_product_identity():
    # binom(h,m) binom(h,n) = sum_k binom(m+n-k,n) binom(n,k) binom(h,m+n-k)
    for p in (2, 3, 5):
        eng = Engine(build_root_system("A1"), p)
        level = 3 if p == 2 else 2
        for m in range(4):
            for n in range(4):
                lhs = eng.binom_h_simple(0, m, level).mul(
                    eng.binom_h_simple(0, n, level)
                )
                rhs = HPart.zeros(p, level, 1)
                for k in range(n + 1):
                    c = math.comb(m + n - k, n) * math.comb(n, k)
                    if m + n - k < p**level:
                        rhs = rhs.add(
                            eng.binom_h_simple(0, m + n - k, level).scale(c)
                        )
                assert lhs.equals(rhs)


def test_associativity_fast_path():
    rng = random.Random(11)
    for label in SYSTEMS:
        for p in (2, 3):
            eng = engine_for(label, p)
            level = 2
            for _ in range(8):
                xs = [
                    eng.divided_power(rng.choice(eng.rs.roots), rng.randint(1, 3), level)
                    for _ in range(3)
                ]
                left = eng.multiply(eng.multiply(xs[0], xs[1]), xs[2])
                right = eng.multiply(xs[0], eng.multiply(xs[1], xs[2]))
                assert left.equals(right)


def test_weight_grading():
    eng = engine_for("B2", 3)
    rs = eng.rs
    level = 2
    rng = random.Random(5)
    for _ in range(10):
        g, d = rng.choice(rs.roots), rng.choice(rs.roots)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        x = eng.divided_power(g, m, level)
        y = eng.divided_power(d, n, level)
        w = tuple(
            m * a + n * b
            for a, b in zip(rs.weight_coords(g), rs.weight_coords(d))
        )
        prod = eng.multiply(x, y)
        for key in prod.terms:
            assert eng.term_weight(key) == w


def test_binomial_periodicity():
    # binom(h + c + m p^r, n) = binom(h + c, n) for n <= p^r - 1.
    for p in (2, 3):
        eng = engine_for("A2", p)
        level = 2
        r = 1
        for n in range(p**r):
            for c in (-2, 0, 3):
                for m in (1, 2):
                    h1 = eng.binom_h_root((1, 1), c, n, level)
                    h2 = eng.binom_h_root((1, 1), c + m * p**r, n, level)
                    assert h1.equals(h2)


def test_alternating_binomial_sum_dichotomy():
    # sum_i (-1)^i binom(n p^r - m, i p^r) is 1 exactly when
    # (n-1) p^r < m <= n p^r, else 0.
    for p in (2, 3, 5):
        for r in (1, 2):
            for n in range(5):
                for m in range(n * p**r + 1):
                    total = sum(
                        (-1) ** i * lucas_binom(n * p**r - m, i * p**r, p)
                        for i in range(n + 1)
                    ) % p
                    expect = 1 if (n - 1) * p**r < m <= n * p**r else 0
                    assert total == expect, (p, r, n, m)


def test_in_truncation():
    eng = engine_for("A2", 2)
    level = 2
    assert eng.one(level).in_truncation(1)
    assert not eng.divided_power((1, 0), 2, level).in_truncation(1)
    assert eng.divided_power((1, 0), 2, level).in_truncation(2)
    from hyperalg.idempotents import mu_lambda

    mu = mu_lambda(eng, (1, 0), 1, level)
    assert mu.in_truncation(1)
    mu2 = mu_lambda(eng, (1, 0), 2, level)
    assert mu2.in_truncation(2) and not mu2.in_truncation(1)


def test_insufficient_level_raised():
    eng = engine_for("A2", 2)
    with pytest.raises(InsufficientLevelError):
        eng.binom_h_simple(0, 4, 2)
    with pytest.raises(InsufficientLevelError):
        eng.binom_h_root((1, 1), 0, 2, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3 ** 2 - 1), st.data())
def test_binomial_basis_roundtrip(seed, data):
    p, level, rank = 3, 1, 2
    eng = engine_for("A2", p)
    size = p**level
    arr = np.array(
        data.draw(
            st.lists(
                st.integers(0, p - 1),
                min_size=size**rank,
                max_size=size**rank,
            )
        ),
        dtype=np.int16,
    ).reshape((size,) * rank)
    h = HPart(arr, p, level)
    coeffs = eng.hpart_to_binomial_basis(h)
    back = eng.hpart_from_binomial_basis(coeffs, level)
    assert back.equals(h)


def _root_weight(rs, vec):
    return tuple(
        sum(vec[k] * rs.convex_roots[k][i] for k in range(rs.num_positive))
        for i in range(rs.rank)
    )


def test_straightened_commutator_support():
    # e_{beta_k}^(a) e_{beta_j}^(b) - e_{beta_j}^(b) e_{beta_k}^(a), j < k,
    # is supported between j and k with the stated exponent bounds.
    rng = random.Random(13)
    for label in SYSTEMS:
        for p in (2, 3):
            eng = engine_for(label, p)
            rs = eng.rs
            nu = rs.num_positive
            for _ in range(20):
                j = rng.randrange(nu - 1)
                k = rng.randrange(j + 1, nu)
                a = rng.randint(1, 5)
                b = rng.randint(1, 5)
                x = eng.divided_power(rs.convex_roots[k], a, 1)
                y = eng.divided_power(rs.convex_roots[j], b, 1)
                diff = eng.multiply(x, y).sub(eng.multiply(y, x))
                if k == j + 1:
                    assert diff.is_zero()
                    continue
                for (av, bv) in diff.terms:
                    assert av == (0,) * nu
                    assert all(bv[i] == 0 for i in range(nu) if i < j or i > k)
                    assert bv[j] < b and bv[k] < a
                    assert sum(bv[j:k]) <= b and sum(bv[j + 1 : k + 1]) <= a


def test_interval_commutation_shape():
    # Multiplying an interval-supported bounded monomial by a divided
    # power just outside the interval keeps the interval part bounded
    # and the new exponent below the outer one.
    rng = random.Random(17)
    for label in SYSTEMS:
        p, r = 2, 1
        eng = engine_for(label, p)
        rs = eng.rs
        nu = rs.num_positive
        for _ in range(20):
            j = rng.randrange(nu)
            k = rng.randrange(j, nu)
            exps = [0] * nu
            for i in range(j, k + 1):
                exps[i] = rng.randrange(p**r)
            mono = eng.monomial((0,) * nu, tuple(exps), None, 1)
            c = rng.randint(1, 4)
            if k != nu - 1:
                outer = eng.divided_power(rs.convex_roots[k + 1], c, 1)
                diff = eng.multiply(outer, mono).sub(eng.multiply(mono, outer))
                for (_, bv) in diff.terms:
                    assert bv[k + 1] < c
                    assert all(bv[i] < p**r for i in range(j, k + 1))
                    assert all(bv[i] == 0 for i in range(nu) if i < j or i > k + 1)
            if j != 0:
                outer = eng.divided_power(rs.convex_roots[j - 1], c, 1)
                diff = eng.multiply(mono, outer).sub(eng.multiply(outer, mono))
                for (_, bv) in diff.terms:
                    assert bv[j - 1] < c
                    assert all(bv[i] < p**r for i in range(j, k + 1))
                    assert all(bv[i] == 0 for i in range(nu) if i < j - 1 or i > k)


def test_conjugation_sum_stays_truncated():
    # sum_i (-1)^i e_alpha^((n-i)p^r) z e_alpha^(i p^r) stays truncated
    # for truncated z.
    rng = random.Random(19)
    from hyperalg.idempotents import mu_lambda

    for label in ("A2", "B2"):
        for p in (2, 3):
            r = 1
            eng = engine_for(label, p)
            rs = eng.rs
            nu = rs.num_positive
            level = r + 1
            for _ in range(8):
                a = tuple(rng.randrange(p**r) for _ in range(nu))
                b = tuple(rng.randrange(p**r) for _ in range(nu))
                lam = tuple(rng.randrange(p**r) for _ in range(rs.rank))
                h = mu_lambda(eng, lam, r, level).terms[((0,) * nu, (0,) * nu)]
                z = eng.monomial(a, b, h, level)
                alpha = rng.choice(rs.positive_roots)
                n = rng.randint(1, 2)
                total = eng.zero(level)
                for i in range(n + 1):
                    left = eng.divided_power(alpha, (n - i) * p**r, level)
                    right = eng.divided_power(alpha, i * p**r, level)
                    part = eng.multiply(left, eng.multiply(z, right))
                    total = total.add(part.scale((-1) ** i))
                assert total.in_truncation(r), (label, p, a, b, lam, alpha, n)


def test_mixed_commutator_triangular_shape():
    # For homogeneous x in the raising and y in the lowering algebra,
    # every term of xy - yx has raising weight strictly below |x| and
    # raising-minus-lowering weight equal to |x| - |y|.
    rng = random.Random(23)
    for label in SYSTEMS:
        p = 3
        eng = engine_for(label, p)
        rs = eng.rs
        nu = rs.num_positive
        level = 3
        for _ in range(15):
            bx = tuple(rng.randrange(3) for _ in range(nu))
            ay = tuple(rng.randrange(3) for _ in range(nu))
            if sum(bx) == 0 or sum(ay) == 0:
                continue
            x = eng.monomial((0,) * nu, bx, None, level)
            y = eng.monomial(ay, (0,) * nu, None, level)
            diff = eng.multiply(x, y).sub(eng.multiply(y, x))
            wx = _root_weight(rs, bx)
            wy = _root_weight(rs, ay)
            for (av, bv) in diff.terms:
                wb = _root_weight(rs, bv)
                wa = _root_weight(rs, av)
                gap = tuple(u - v for u, v in zip(wx, wb))
                assert all(g >= 0 for g in gap) and any(g > 0 for g in gap)
                assert tuple(u - v for u, v in zip(wx, wy)) == tuple(
                    u - v for u, v in zip(wb, wa)
                )


def _rolled(arr, w):
    """Reference shift: one np.roll per axis."""
    size = arr.shape[0]
    for axis, wi in enumerate(w):
        arr = np.roll(arr, -(wi % size), axis=axis)
    return arr


def test_shift_matches_roll():
    rng = np.random.default_rng(5)
    for p, level in ((2, 1), (2, 2), (3, 1), (2, 4), (3, 3)):
        size = p**level
        for rank in (1, 2):
            arr = rng.integers(0, p, size=(size,) * rank).astype(np.int16)
            arr.flat[0] = (arr.flat[-1] + 1) % p  # not constant
            h = HPart(arr, p, level)
            for _ in range(12):
                w = tuple(int(v) for v in rng.integers(-3 * size, 3 * size, size=rank))
                got = h.shift(w)
                assert got.arr.dtype == arr.dtype
                assert np.array_equal(got.arr, _rolled(arr, w)), (p, level, w)
            for w in [(0,) * rank, (size,) * rank, (-size,) * rank]:
                assert h.shift(w).arr is arr
            for w in [(1,) * rank, (-1,) * rank, (size + 1,) * rank]:
                assert np.array_equal(h.shift(w).arr, _rolled(arr, w))


def test_shift_of_batched_table_shifts_each_slice():
    rng = np.random.default_rng(6)
    for p, level, rank, batch in ((2, 2, 2, (3, 1)), (2, 2, 2, (1, 4)),
                                  (3, 1, 2, (2, 3)), (2, 3, 1, (5,)), (3, 2, 1, (2, 2))):
        size = p**level
        arr = rng.integers(0, p, size=batch + (size,) * rank).astype(np.int16)
        h = HPart(arr, p, level)
        for _ in range(8):
            w = tuple(int(v) for v in rng.integers(-2 * size, 2 * size, size=rank))
            got = h.shift(w).arr
            assert got.shape == arr.shape and got.dtype == arr.dtype
            for s in np.ndindex(*batch):
                single = HPart(arr[s].copy(), p, level).shift(w).arr
                assert np.array_equal(got[s], single), (p, level, batch, w, s)
                assert np.array_equal(got[s], _rolled(arr[s], w))
        assert h.shift((0,) * rank).arr is arr


def _binom_root_direct(eng, gamma, c, n, level):
    """binom(h_gamma + c, n) on every weight, one lucas_binom per entry."""
    size = eng.p**level
    coeffs = eng.sc.coroot_coeffs(gamma)
    out = np.zeros((size,) * eng.rs.rank, dtype=np.int16)
    for lam in np.ndindex(*out.shape):
        x = (c + sum(d * v for d, v in zip(coeffs, lam))) % size
        out[lam] = lucas_binom(x, n, eng.p)
    return out


def test_binom_h_root_matches_direct_construction(monkeypatch):
    rng = random.Random(23)
    for label in ("A2", "B2", "G2"):
        for p in (2, 3):
            index = {}
            monkeypatch.setattr(straighten, "_ROOT_INDEX", index)
            eng = engine_for(label, p)
            level = 2
            size = p**level
            for gamma in eng.rs.roots:
                for _ in range(3):
                    c = rng.randrange(-3 * size, 3 * size)
                    n = rng.randrange(size)
                    want = _binom_root_direct(eng, gamma, c, n, level)
                    for _ in range(2):  # the second call reads the cached index
                        got = eng.binom_h_root(gamma, c, n, level)
                        assert got.arr.dtype == np.int16
                        assert np.array_equal(got.arr, want), (label, p, gamma, c, n)
                # a cold engine finds the same tables
                fresh = Engine(eng.rs, p, sc=eng.sc)
                assert np.array_equal(fresh.binom_h_root(gamma, c, n, level).arr, want)
            # binom_h_simple(i, n) is binom(h_i, n), on every degree
            for i in range(eng.rs.rank):
                for n in range(size):
                    want = _binom_root_direct(eng, eng.rs.simple(i), 0, n, level)
                    got = eng.binom_h_simple(i, n, level)
                    assert got.arr.dtype == np.int16
                    assert np.array_equal(got.arr, want), (label, p, i, n)
            # the several values of c above share one index per coroot
            coroots = {tuple(eng.sc.coroot_coeffs(g)) for g in eng.rs.roots}
            assert set(index) == {(size, eng.rs.rank, d) for d in coroots}



@pytest.mark.parametrize("build", [
    lambda eng: eng.binom_h_simple(0, 0, 0),
    lambda eng: eng.binom_h_root((1, 0), 0, 0, 0),
], ids=["binom_h_simple", "binom_h_root"])
def test_binomial_tables_refuse_level_zero(build):
    # the same refusal as an HPart of level 0, not a level-0 table
    eng = engine_for("A2", 2)
    with pytest.raises(ValueError, match="torus level 0 must be at least 1"):
        HPart.ones(2, 0, eng.rs.rank)
    with pytest.raises(ValueError, match="torus level 0 must be at least 1"):
        build(eng)

def test_exps_weight_is_the_grading():
    for label in SYSTEMS:
        eng = engine_for(label, 2)
        rs = eng.rs
        rng = random.Random(17)
        for _ in range(20):
            a = tuple(rng.randrange(3) for _ in range(eng.nu))
            b = tuple(rng.randrange(3) for _ in range(eng.nu))
            root = [0] * rs.rank
            for k in range(eng.nu):
                for i in range(rs.rank):
                    root[i] += (b[k] - a[k]) * rs.convex_roots[k][i]
            assert eng.term_weight((a, b)) == rs.weight_coords(tuple(root))
            assert eng.exps_weight(a, -1) == tuple(-x for x in eng.exps_weight(a))


@pytest.mark.parametrize("p", [0, 1, 4, 9, 15, 49])
def test_engine_rejects_non_prime(p):
    with pytest.raises(ValueError, match="not a prime"):
        Engine(build_root_system("A1"), p)


@pytest.mark.parametrize("p", [191, 193, 257])
def test_engine_rejects_primes_that_overflow_tables(p):
    with pytest.raises(ValueError, match="too large"):
        Engine(build_root_system("A1"), p)


def test_largest_accepted_prime_matches_oracle():
    # (p-1)^2 still fits the int16 tables at p=181: products whose torus
    # parts meet large values agree with the oracle's independent tables.
    rs = build_root_system("A1")
    qo = QOracle(rs)
    p, level = 181, 1
    eng = Engine(rs, p, sc=qo.sc)
    for b, a, c, d in ((2, 2, 2, 2), (3, 3, 3, 3), (6, 5, 4, 3)):
        x = eng.multiply(eng.divided_power((1,), b, level), eng.divided_power((-1,), a, level))
        y = eng.multiply(eng.divided_power((1,), c, level), eng.divided_power((-1,), d, level))
        qprod = qo.multiply_divided([((1,), b), ((-1,), a), ((1,), c), ((-1,), d)])
        assert eng.multiply(x, y).equals(qo.reduce_mod_p(qprod, p, level))


def _word(exps):
    return tuple((k, n) for k, n in enumerate(exps) if n)


def _whole_word(engine, word, sign):
    """Normal form of a one-sign word from one `straighten_items` call on
    the whole word: raising slots are nu + k, lowering slots k, and each
    constant table is read at weight 0."""
    base = engine.nu if sign > 0 else 0
    zero = (0,) * engine.rs.rank
    items = tuple((base + k, n) for k, n in word)
    return {(b if sign > 0 else a): h.value(zero)
            for (a, b), h in engine.straighten_items(items, 1).items()}


@pytest.mark.parametrize("label,p", [("A1", 2), ("A2", 2), ("B2", 2), ("G2", 2), ("A2", 3)])
def test_mul_signed_fold_matches_whole_word(label, p):
    # mul_signed folds x into y one divided power at a time; on a separate
    # engine, straightening the whole word x y at once must give the same
    # dict.
    rs = build_root_system(label)
    fold, whole = Engine(rs, p), Engine(rs, p)
    xs = list(itertools.product(range(p), repeat=fold.nu))
    ys = list(itertools.product(range(p * p), repeat=fold.nu))
    if len(ys) > 1024:
        # G2: straightening all 524,288 whole words takes half a minute.
        ys = random.Random(5).sample(ys, 256)
    for sign in (1, -1):
        for x in xs:
            for y in ys:
                expect = _whole_word(whole, _word(x) + _word(y), sign)
                assert fold.mul_signed(x, y, sign) == expect, (x, y, sign)


# G2 at p=3, r=2 is left out: its whole words take ten seconds.
@pytest.mark.parametrize("label,p", [("A2", 2), ("A2", 3), ("B2", 2), ("B2", 3), ("G2", 2)])
@pytest.mark.parametrize("r", [1, 2])
def test_straighten_signed_scaled_simple_words(label, p, r):
    # The Fr' tables straighten the words in simple divided powers of each
    # positive root's weight, with their exponents times p^r.
    # straighten_signed folds each word right to left; straightening the
    # whole word on a separate engine must agree.
    rs = build_root_system(label)
    fold, whole = Engine(rs, p), Engine(rs, p)
    table = SimpleWordTable(fold)
    simple = [rs.convex_index(rs.simple(i)) for i in range(rs.rank)]
    for beta in rs.positive_roots:
        for word in table._words_of_weight(beta):
            scaled = tuple((simple[i], n * p**r) for i, n in word)
            for sign in (1, -1):
                got = fold.straighten_signed(scaled, sign)
                assert got == _whole_word(whole, scaled, sign), (scaled, sign)


def _wide(h, rank):
    """The full table a side-1 (constant) table stands for."""
    size = h.p**h.level
    return HPart(np.broadcast_to(h.arr, (size,) * rank).copy(), h.p, h.level)


@pytest.mark.parametrize("label,p", [(s, p) for s in ("A1", "A2", "B2") for p in (2, 3)])
def test_constant_table_acts_as_its_broadcast(label, p):
    # A constant torus part is a side-1 table.  Every table operation on it
    # must equal the same operation on the full table it broadcasts to, and
    # a constant stays side-1 where the result is constant too.
    eng = engine_for(label, p)
    rank, nu = eng.rs.rank, eng.nu
    fro = Frobenius(eng)
    rng = np.random.default_rng(13)
    side1 = (1,) * rank
    for level in (1, 2):
        size = p**level
        full = HPart(rng.integers(0, p, size=(size,) * rank).astype(np.int16), p, level)
        full.arr.flat[0] = (full.arr.flat[-1] + 1) % p  # not constant
        weights = [tuple(int(v) for v in rng.integers(-3 * size, 3 * size, size=rank))
                   for _ in range(6)] + [(size,) * rank, (-1,) * rank]
        for x in (eng.one(level), eng.divided_power(eng.rs.roots[0], 2, level),
                  eng.monomial((1,) * nu, (1,) * nu, None, level)):
            assert [h.arr.shape for h in x.terms.values()] == [side1]
        for c in range(p):
            const = eng.hpart_one(level).scale(c)
            wide = _wide(const, rank)
            assert const.arr.shape == side1 and const.arr.dtype == np.int16
            assert const.equals(wide) and wide.equals(const)
            assert not const.equals(full) and not full.equals(const)
            other = eng.hpart_one(level).scale(c + 1)
            assert not const.equals(other) and not const.equals(_wide(other, rank))
            for g in (full, wide, other, _wide(other, rank)):
                for op in ("add", "mul"):
                    got, want = getattr(const, op)(g), getattr(wide, op)(g)
                    assert got.equals(want) and want.equals(got), (op, c, level)
                    assert np.array_equal(np.broadcast_to(got.arr, want.arr.shape), want.arr)
            for op in ("add", "mul"):
                assert getattr(const, op)(other).arr.shape == side1
            for k in range(-1, p + 1):
                assert const.scale(k).arr.shape == side1
                assert const.scale(k).equals(wide.scale(k))
            for w in weights:
                assert const.shift(w).arr is const.arr
                assert const.shift(w).equals(wide.shift(w))
                assert const.value(w) == wide.value(w) == c
            for r in range(level + 1):
                assert const.is_periodic(r) and wide.is_periodic(r)
            assert eng.hpart_to_binomial_basis(const) == eng.hpart_to_binomial_basis(wide)
            for r in range(1, level + 1):
                got, want = fro.fr_prime_zero(const, r), fro.fr_prime_zero(wide, r)
                assert got.arr.shape == side1 and got.equals(want)
            if c:
                b = (p,) + (0,) * (nu - 1)
                x = eng.monomial((0,) * nu, b, const, level)
                y = eng.monomial((0,) * nu, b, wide, level)
                got, want = fro.fr(x), fro.fr(y)
                assert got.equals(want) and not got.is_zero()
                assert all(h.arr.shape == side1 for h in got.terms.values())


def test_straighten_items_gives_tables_only():
    # Every coefficient is a table: side-1 for words without a torus part
    # (one-sign words, or collision terms of binomial degree 0), full where
    # a raising-lowering collision creates one.
    eng = engine_for("A2", 3)
    nu, level = eng.nu, 2
    signed = eng.straighten_items(((nu + 1, 1), (nu, 1)), level)
    assert signed and all(isinstance(h, HPart) for h in signed.values())
    assert all(h.arr.shape == (1, 1) for h in signed.values())
    mixed = eng.straighten_items(((nu, 2), (0, 2)), level)
    shapes = {key: h.arr.shape for key, h in mixed.items()}
    assert shapes[((2, 0, 0), (2, 0, 0))] == (1, 1)
    assert shapes[((1, 0, 0), (1, 0, 0))] == (9, 9)


def test_hpart_one_is_shared_and_read_only():
    # One constant one table per level serves every normal word collected.
    eng = engine_for("A2", 3)
    one = eng.hpart_one(2)
    assert eng.hpart_one(2) is one and eng.hpart_one(1) is not one
    assert one.arr.shape == (1, 1) and not one.arr.flags.writeable
    with pytest.raises(ValueError):
        one.arr[0, 0] = 2
    assert eng.one(2).terms[((0,) * 3, (0,) * 3)] is one


def test_accumulate_drops_zero_sums():
    eng = engine_for("A2", 3)
    level = 1
    h = eng.binom_h_simple(0, 1, level)
    for x in (eng.divided_power((1, 0), 2, level),
              eng.monomial((1, 0, 0), (0, 0, 1), h, level),
              eng.one(level).add(eng.monomial((0,) * 3, (0,) * 3, h, level))):
        assert x.terms
        assert x.add(x.scale(-1)).terms == {}
        assert x.scale(2).add(x).terms == {}
        assert eng.multiply(x, eng.one(level).scale(-1)).add(x).terms == {}
    # e f - f e = h on sl2: the f e terms cancel in the sum.
    e = eng.divided_power((1, 0), 1, level)
    f = eng.divided_power((-1, 0), 1, level)
    diff = eng.multiply(e, f).sub(eng.multiply(f, e))
    assert list(diff.terms) == [((0,) * 3, (0,) * 3)]


def _exps_lists():
    for label in ("A2", "B2", "G2"):
        yield label, build_root_system(label).convex_roots
    for count, patterns in Engine._PATTERNS.items():
        for pair, pattern in patterns.items():
            yield f"{count}{pair}", [xy for xy, _ in pattern]


@pytest.mark.parametrize("name,vectors", list(_exps_lists()))
def test_exps_of_weight_matches_brute_force(name, vectors):
    # Each vector has a positive coordinate, so no exponent of a target
    # with coordinates at most bound exceeds bound: the box holds them all.
    bound = 4
    by_target = {}
    for exps in itertools.product(range(bound + 1), repeat=len(vectors)):
        by_target.setdefault(exps_sum(exps, vectors), []).append(exps)
    for target in itertools.product(range(bound + 1), repeat=2):
        assert exps_of_weight(target, vectors) == by_target.get(target, []), target


def test_exps_of_weight_refuses_rank_one():
    with pytest.raises(ValueError, match="rank-2 target"):
        exps_of_weight((2,), build_root_system("A1").convex_roots)


# sha256 of repr(((gamma, a, delta, b), reorder_pair(gamma, a, delta, b)))
# over every ordered pair of roots whose sum is a root and 1 <= a, b <= 3,
# in root order, pinned so that any change of coefficient, fragment or
# term order shows here.
_REORDER_PINS = {
    ("A2", 3): "f488c953c329849d34a6a49cc8e5a690803991327f668dd48acb27b6e2a45d66",
    ("A2", 5): "c65ed7ec20c0925e761849e3a90977dcc257e91fad1a87f68aa8359ae664ef8d",
    ("B2", 3): "51ba3bc246ba92087aa3dd8c7495c86fbb1991166cf796676b61788713d1c475",
    ("B2", 5): "15f0511a6b8c6b97a8e07b13778d5d7e7b7170a9a44005b05690de664d8fedc8",
    ("G2", 3): "4c3ff15f4fb23bd5d9220da2396a76e0100c9306e8fa13884fd6005b2f0817c3",
    ("G2", 5): "a4ce9c9c335a318d439d06d5d5a96f652ce7070e98c4dd9982520ffab1dfb758",
}


@pytest.mark.parametrize("label,p", list(_REORDER_PINS))
def test_reorder_pair_is_pinned(label, p):
    eng = engine_for(label, p)
    rs = eng.rs
    digest = hashlib.sha256()
    for g, d in itertools.product(rs.roots, repeat=2):
        if g == d or not rs.is_root(tuple(u + v for u, v in zip(g, d))):
            continue
        for a, b in itertools.product(range(1, 4), repeat=2):
            digest.update(repr(((g, a, d, b), eng.reorder_pair(g, a, d, b))).encode())
    assert digest.hexdigest() == _REORDER_PINS[label, p]
