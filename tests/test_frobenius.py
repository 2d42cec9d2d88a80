"""Frobenius endomorphism and its splitting."""

import random

import pytest

from hyperalg.frobenius import Frobenius, SimpleWordTable
from hyperalg.idempotents import enumerate_Xm, mu_hpart
from hyperalg.rootdata import build_root_system
from hyperalg.straighten import Engine, InsufficientLevelError

SYSTEMS = ["A1", "A2", "B2", "G2"]


def setup(label, p):
    eng = Engine(build_root_system(label), p)
    return eng, Frobenius(eng)


def random_element(eng, rng, level, max_exp=4, factors=3):
    x = eng.one(level)
    for _ in range(factors):
        g = rng.choice(eng.rs.roots)
        x = eng.multiply(x, eng.divided_power(g, rng.randint(0, max_exp), level))
    return x


def test_fr_basic_examples():
    eng, fr = setup("A2", 2)
    e2 = eng.divided_power((1, 0), 2, 2)
    assert fr.fr(e2).equals(eng.divided_power((1, 0), 1, 2))
    e1 = eng.divided_power((1, 0), 1, 2)
    assert fr.fr(e1).is_zero()
    assert fr.fr(eng.one(2)).equals(eng.one(2))


def test_fr_torus_action():
    # binom(h, p*n) maps onto binom(h, n), binom(h, n) with p !| n dies.
    for p in (2, 3):
        eng, fr = setup("A1", p)
        level = 2
        for n in range(1, p):
            x = eng.hpart_element(eng.binom_h_simple(0, p * n, level), level)
            y = eng.hpart_element(eng.binom_h_simple(0, n, level), level)
            assert fr.fr(x).equals(y)
            # binom(h,n) = binom(h,n) - binom(h,0)*0; its image must drop
            # the degree-n part and keep only the constant coefficient.
            z = eng.hpart_element(eng.binom_h_simple(0, n, level), level)
            img = fr.fr(z)
            coeffs = eng.hpart_to_binomial_basis(
                img.terms[((0,), (0,))]
            ) if img.terms else {}
            assert all(k == (0,) for k in coeffs)


@pytest.mark.parametrize("label", ["A2", "B2"])
@pytest.mark.parametrize("p", [2, 3])
def test_fr_is_multiplicative(label, p):
    eng, fr = setup(label, p)
    rng = random.Random(31)
    level = 2
    for _ in range(10):
        x = random_element(eng, rng, level)
        y = random_element(eng, rng, level)
        assert fr.fr(eng.multiply(x, y)).equals(eng.multiply(fr.fr(x), fr.fr(y)))


@pytest.mark.parametrize("label", SYSTEMS)
@pytest.mark.parametrize("p", [2, 3])
def test_fr_after_split_is_identity(label, p):
    eng, fr = setup(label, p)
    rng = random.Random(37)
    level = 2
    for _ in range(12):
        x = random_element(eng, rng, 1, max_exp=p - 1)
        lifted = eng.zero(level)
        for (a, b), h in x.terms.items():
            lifted = lifted.add(
                eng.monomial(a, b, eng.hpart_one(level).scale(h.value((0,) * eng.rs.rank)), level)
            )
        # pad to working level so the split has room
        assert fr.fr(fr.fr_prime(lifted)).equals(lifted)


def test_split_of_simple_root_powers():
    eng, fr = setup("A2", 2)
    r, level = 1, 2
    x = eng.divided_power((1, 0), 1, level)
    assert fr.fr_prime_plus(x, r).equals(eng.divided_power((1, 0), 2, level))
    y = eng.divided_power((-1, 0), 1, level)
    assert fr.fr_prime_minus(y, r).equals(eng.divided_power((-1, 0), 2, level))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_split_leading_term_on_each_positive_root(label, p, r):
    # Fr'^r(e_beta) - e_beta^(p^r) lies in the truncated subalgebra.
    eng, fr = setup(label, p)
    level = r + 1
    for beta in eng.rs.positive_roots:
        img = fr.fr_prime_plus(eng.divided_power(beta, 1, level), r)
        diff = img.sub(eng.divided_power(beta, p**r, level))
        assert diff.in_truncation(r), (label, p, r, beta)


@pytest.mark.parametrize("label", ["A2", "G2"])
@pytest.mark.parametrize("p", [2, 3])
def test_split_multiplicative_single_sign(label, p):
    eng, fr = setup(label, p)
    rng = random.Random(41)
    r, level = 1, 2
    pos = eng.rs.positive_roots
    for sign in (+1, -1):
        apply = fr.fr_prime_plus if sign > 0 else fr.fr_prime_minus
        for _ in range(8):
            roots = [rng.choice(pos) for _ in range(2)]
            if sign < 0:
                roots = [tuple(-c for c in g) for g in roots]
            x = eng.divided_power(roots[0], rng.randint(1, 2), level)
            y = eng.divided_power(roots[1], rng.randint(1, 2), level)
            assert apply(eng.multiply(x, y), r).equals(
                eng.multiply(apply(x, r), apply(y, r))
            )


@pytest.mark.parametrize("label", ["A2", "B2"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_split_assembles_the_triangular_factors(label, p, r):
    # fr_prime writes the image of a full-space basis element
    # f^(a) mu(lam;1) e^(b) straight from the one-sign images; it must
    # equal the product of the three factor images, and each one-sign
    # image the product of its divided powers' images.
    eng, fr = setup(label, p)
    rng = random.Random(43)
    level = r + 1  # fr_prime_zero needs mu(lam;1) periodic mod p^(level-r)
    nu, zero = eng.nu, (0,) * eng.nu
    weights = enumerate_Xm(eng.rs, p, 1)

    def image(exps, sign):
        out = eng.one(level)
        for k, n in enumerate(exps):
            root = tuple(sign * v for v in eng.rs.convex_roots[k])
            out = eng.multiply(out, fr.fr_prime(eng.divided_power(root, n, level), r))
        return out

    for _ in range(8):
        a = tuple(rng.randrange(p) for _ in range(nu))
        b = tuple(rng.randrange(p) for _ in range(nu))
        h = mu_hpart(eng, rng.choice(weights), 1, level)
        fpart = fr.fr_prime(eng.monomial(a, zero, None, level), r)
        epart = fr.fr_prime(eng.monomial(zero, b, None, level), r)
        assert fpart.equals(image(a, -1)) and epart.equals(image(b, +1))
        hpart = eng.hpart_element(fr.fr_prime_zero(h, r), level)
        want = eng.multiply(eng.multiply(fpart, hpart), epart)
        assert fr.fr_prime(eng.monomial(a, b, h, level), r).equals(want), (a, b)


def test_split_multiplicative_torus():
    for p in (2, 3):
        eng, fr = setup("A2", p)
        r, level = 1, 2
        h1 = eng.binom_h_simple(0, 1, 1)
        h2 = eng.binom_h_simple(1, 1, 1)
        # lift level-1 tables into the working level by tiling
        lift1 = eng.hpart_from_binomial_basis(
            eng.hpart_to_binomial_basis(h1), level
        )
        lift2 = eng.hpart_from_binomial_basis(
            eng.hpart_to_binomial_basis(h2), level
        )
        lhs = fr.fr_prime_zero(lift1.mul(lift2), r)
        rhs = fr.fr_prime_zero(lift1, r).mul(fr.fr_prime_zero(lift2, r))
        assert lhs.equals(rhs)
        # binom(h_i, n) -> binom(h_i, n*p^r) on the binomial basis
        img = fr.fr_prime_zero(lift1, r)
        assert img.equals(eng.binom_h_simple(0, p**r, level))


def test_split_torus_requires_periodicity():
    eng, fr = setup("A1", 2)
    h = eng.binom_h_simple(0, 3, 2)  # genuinely level-2
    with pytest.raises(InsufficientLevelError):
        fr.fr_prime_zero(h, 1)


def test_split_rejects_mixed_sign_input():
    eng, fr = setup("A2", 2)
    x = eng.multiply(
        eng.divided_power((1, 0), 1, 2), eng.divided_power((-1, 0), 1, 2)
    )
    with pytest.raises(ValueError):
        fr.fr_prime_plus(x)
    # a one-sign element of the other sign, constant torus part included
    with pytest.raises(ValueError):
        fr.fr_prime_plus(eng.divided_power((-1, 0), 1, 2))
    with pytest.raises(ValueError):
        fr.fr_prime_minus(eng.divided_power((1, 0), 1, 2))


def test_simple_word_table_g2_block():
    # e_{(3,1)} must be expressible in words of simple divided powers with
    # no two equal adjacent letters; check the expression reproduces it.
    eng, _ = setup("G2", 5)
    table = SimpleWordTable(eng, +1)
    rs = eng.rs
    k = rs.convex_index((3, 1))
    exps = tuple(1 if j == k else 0 for j in range(rs.num_positive))
    combo = table.express(exps)
    total = eng.zero(1)
    simple_idx = [rs.convex_index(rs.simple(i)) for i in range(rs.rank)]
    for c, word in combo:
        vec = eng.straighten_signed(
            tuple((simple_idx[i], m) for i, m in word), +1
        )
        for v, s in vec.items():
            total = total.add(
                eng.monomial((0,) * rs.num_positive, v, eng.hpart_one(1).scale(c * s), 1)
            )
    assert total.equals(eng.divided_power((3, 1), 1, 1))


def test_simple_word_table_weight_block_dimension():
    # In the A2 raising algebra the weight with one of each simple root
    # is two dimensional; both PBW monomials must be expressible.
    eng, _ = setup("A2", 3)
    table = SimpleWordTable(eng, +1)
    combo1 = table.express((1, 0, 1))  # e_{(1,0)} e_{(0,1)}
    combo2 = table.express((0, 1, 0))  # e_{(1,1)}
    assert combo1 and combo2


@pytest.mark.parametrize("label,p", [("A2", 2), ("A2", 3), ("B2", 2), ("G2", 2)])
def test_digit_preservation_under_kernel_multiplication(label, p):
    # Multiplying on the right by a truncated raising element never raises
    # the high digits of the exponent vector.
    eng, _ = setup(label, p)
    rs = eng.rs
    rng = random.Random(43)
    r = 1
    nu = rs.num_positive

    def q(v):
        return v // p**r

    for _ in range(25):
        a = tuple(rng.randrange(2 * p**r) for _ in range(nu))
        b = tuple(rng.randrange(p**r) for _ in range(nu))
        x = eng.monomial((0,) * nu, a, None, 1)
        z = eng.monomial((0,) * nu, b, None, 1)
        prod = eng.multiply(x, z)
        for (_, cv) in prod.terms:
            assert all(q(cv[i]) <= q(a[i]) for i in range(nu)), (a, b, cv)


@pytest.mark.parametrize("label,p", [("A2", 2), ("B2", 2), ("A2", 3)])
def test_kernel_step_leading_coefficient(label, p):
    # With the high digit of a_k below p-1 and zero beyond k, appending
    # e_{beta_k}^(p^r) yields leading coefficient q(a_k)+1 and all other
    # terms keep every high digit of a.
    eng, _ = setup(label, p)
    rs = eng.rs
    rng = random.Random(47)
    r = 1
    q = p**r
    nu = rs.num_positive
    for _ in range(30):
        k = rng.randrange(nu)
        a = [0] * nu
        for i in range(k):
            a[i] = rng.randrange(2 * q)
        a[k] = rng.randrange((p - 1) * q)  # high digit < p-1
        for i in range(k + 1, nu):
            a[i] = rng.randrange(q)  # high digit 0
        x = eng.monomial((0,) * nu, tuple(a), None, 1)
        prod = eng.multiply(x, eng.divided_power(rs.convex_roots[k], q, 1))
        tilde = tuple(v + q if i == k else v for i, v in enumerate(a))
        lead = prod.terms.get(((0,) * nu, tilde))
        assert lead is not None
        assert lead.value((0,) * rs.rank) % p == (a[k] // q + 1) % p
        for (_, cv) in prod.terms:
            if cv == tilde:
                continue
            assert tuple(v // q for v in cv) == tuple(v // q for v in a)


@pytest.mark.parametrize("label,p", [("A2", 2), ("A2", 3), ("B2", 2)])
def test_split_product_leading_term(label, p):
    # e^(a) * Fr'^r(e^(b)) has leading term with exponents a_i + p^r b_i
    # and all other terms have strictly smaller digit vectors.
    eng, fr = setup(label, p)
    rs = eng.rs
    rng = random.Random(53)
    r = 1
    q = p**r
    nu = rs.num_positive
    level = r + 1
    for _ in range(15):
        k = rng.randint(1, nu)
        a = tuple(rng.randrange(q) for _ in range(nu))
        b = tuple(rng.randrange(p) if i < k else 0 for i in range(nu))
        x = eng.monomial((0,) * nu, a, None, level)
        y1 = eng.monomial((0,) * nu, b, None, level)
        prod = eng.multiply(x, fr.fr_prime_plus(y1, r))
        lead_key = ((0,) * nu, tuple(a[i] + q * b[i] for i in range(nu)))
        lead = prod.terms.get(lead_key)
        assert lead is not None and lead.value((0,) * rs.rank) % p == 1
        for (_, cv) in prod.terms:
            if cv == lead_key[1]:
                continue
            digits = tuple(v // q for v in cv)
            assert digits != b
            assert all(digits[i] <= b[i] for i in range(k))
            assert all(digits[i] == 0 for i in range(k, nu))
