"""Acceptance gate: one test per criterion, exactness everywhere.

Each test prints a single PASS line on success; any failure is a plain
assertion failure. The largest case, the rank-2 full-algebra map
Thm5.5-first A2 p=2 (dimension 65536), runs with the rest.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from hyperalg.cli import parse_element, serialize_element
from hyperalg.frobenius import Frobenius
from hyperalg.idempotents import enumerate_Xm, mu_hpart, mu_lambda
from hyperalg.isocheck import MapSpec, verify
from hyperalg.qoracle import QOracle
from hyperalg.rootdata import build_root_system
from hyperalg.straighten import Engine, HPart, lucas_binom

RANK2 = ["A2", "B2", "G2"]
PRIMES = [2, 3, 5]
# torus level per prime large enough for every binomial degree built below
LEVEL = {2: 4, 3: 3, 5: 2}


def ok(line):
    print(f"[acceptance] {line}: PASS")


def lift(eng, h, level):
    """The table h read at a higher level: written in the binomial basis
    by the element grammar and parsed back at that level."""
    x = parse_element(serialize_element(eng.hpart_element(h, h.level)), eng, level)
    return x.terms[((0,) * eng.nu,) * 2]


def _engines(label):
    rs = build_root_system(label)
    qo = QOracle(rs)
    return qo, {p: Engine(rs, p, sc=qo.sc) for p in PRIMES}


def test_c01_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(101)
    for label in RANK2:
        qo, engines = _engines(label)
        rs = qo.rs
        for _ in range(500):
            factors = [
                (rng.choice(rs.roots), rng.randint(0, 6))
                for _ in range(rng.randint(1, 4))
            ]
            qprod = qo.multiply_divided(factors)
            for p, eng in engines.items():
                level = LEVEL[p]
                expect = qo.reduce_mod_p(qprod, p, level)
                got = eng.one(level)
                for g, n in factors:
                    got = eng.multiply(got, eng.divided_power(g, n, level))
                assert got.equals(expect), (label, p, factors)
        # Two raising factors times two lowering ones at p=3, as one
        # product: its collisions have raising factors to their left.
        eng, level = engines[3], LEVEL[3]
        for g, d in itertools.permutations(rs.convex_roots, 2):
            neg_g, neg_d = tuple(-x for x in g), tuple(-x for x in d)
            factors = [(g, 1), (d, 2), (neg_d, 2), (neg_g, 1)]
            expect = qo.reduce_mod_p(qo.multiply_divided(factors), 3, level)
            x = [eng.divided_power(r, n, level) for r, n in factors[:2]]
            y = [eng.divided_power(r, n, level) for r, n in factors[2:]]
            got = eng.multiply(eng.multiply(*x), eng.multiply(*y))
            assert got.equals(expect), (label, factors)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    ok(f"C1 oracle equivalence, 500 products x {RANK2} x p in {PRIMES} "
       f"({elapsed:.1f}s)")


def test_c02_defining_identities():
    for label in RANK2:
        for p in PRIMES:
            eng = Engine(build_root_system(label), p)
            rs = eng.rs
            level = LEVEL[p]
            # (i) same-root merge
            for g in rs.roots:
                for m in range(9):
                    for n in range(9 - m):
                        prod = eng.multiply(
                            eng.divided_power(g, m, level),
                            eng.divided_power(g, n, level),
                        )
                        assert prod.equals(
                            eng.divided_power(g, m + n, level).scale(
                                lucas_binom(m + n, n, p)
                            )
                        )
            # (ii) opposite-root expansion
            for g in rs.positive_roots:
                ng = tuple(-c for c in g)
                for m in range(0, 9, 2):
                    for n in range(0, 9, 2):
                        prod = eng.multiply(
                            eng.divided_power(g, m, level),
                            eng.divided_power(ng, n, level),
                        )
                        expect = eng.zero(level)
                        for k in range(min(m, n) + 1):
                            h = eng.binom_h_root(g, -m - n + 2 * k, k, level)
                            expect = expect.add(
                                eng.multiply(
                                    eng.divided_power(ng, n - k, level),
                                    eng.multiply(
                                        eng.hpart_element(h, level),
                                        eng.divided_power(g, m - k, level),
                                    ),
                                )
                            )
                        assert prod.equals(expect)
            # (iii) torus shift past a divided power
            for a in rs.roots:
                for b in rs.roots:
                    for m in range(1, 9, 3):
                        for n in range(1, 9, 3):
                            c = 1
                            lhs = eng.multiply(
                                eng.divided_power(a, m, level),
                                eng.hpart_element(
                                    eng.binom_h_root(b, c, n, level), level
                                ),
                            )
                            rhs = eng.multiply(
                                eng.hpart_element(
                                    eng.binom_h_root(
                                        b, c - rs.pairing(a, b) * m, n, level
                                    ),
                                    level,
                                ),
                                eng.divided_power(a, m, level),
                            )
                            assert lhs.equals(rhs)
            # (iv) commuting pairs
            for a in rs.roots:
                for b in rs.roots:
                    s = tuple(x + y for x, y in zip(a, b))
                    if rs.is_root(s) or b == tuple(-x for x in a):
                        continue
                    x = eng.divided_power(a, 8, level)
                    y = eng.divided_power(b, 7, level)
                    assert eng.multiply(x, y).equals(eng.multiply(y, x))
            # (v) Cartan binomial product rule; degrees reach 16, so give
            # this identity its own sufficiently deep torus level
            vlevel = 1
            while p**vlevel <= 16:
                vlevel += 1
            for g in rs.positive_roots:
                for m in range(0, 9, 2):
                    for n in range(0, 9, 2):
                        lhs = eng.binom_h_root(g, 0, m, vlevel).mul(
                            eng.binom_h_root(g, 0, n, vlevel)
                        )
                        rhs = HPart(np.zeros((p**vlevel,) * rs.rank, dtype=np.int16), p, vlevel)
                        for k in range(n + 1):
                            coef = math.comb(m + n - k, n) * math.comb(n, k)
                            rhs = rhs.add(
                                eng.binom_h_root(g, 0, m + n - k, vlevel).scale(coef)
                            )
                        assert lhs.equals(rhs)
    ok("C2 defining product identities, m,n <= 8, all roots of A2/B2/G2, "
       "p in {2,3,5}")


def test_c03_alternating_sum_grid():
    for p in PRIMES:
        for r in (1, 2):
            for n in range(1, 5):
                for m in range(n * p**r + 1):
                    total = sum(
                        (-1) ** i * lucas_binom(n * p**r - m, i * p**r, p)
                        for i in range(n + 1)
                    ) % p
                    expect = 1 if (n - 1) * p**r < m <= n * p**r else 0
                    assert total == expect
    ok("C3 alternating binomial sums, n<=4, r<=2, p in {2,3,5}")


# rank2_base's (root count, base coordinates of alpha, of gamma) for a
# pair alpha, gamma whose sum is a root -> the pair's case tag
_CASE_OF_BASE = {
    (6, (1, 0), (0, 1)): "A", (6, (0, 1), (1, 0)): "A",
    (8, (1, 0), (1, 1)): "B", (8, (1, 1), (1, 0)): "B",
    (12, (1, 0), (2, 1)): "C", (12, (2, 1), (1, 0)): "C",
    (12, (1, 1), (2, 1)): "C", (12, (2, 1), (1, 1)): "C",
    (8, (1, 0), (0, 1)): "D", (8, (0, 1), (1, 0)): "E",
    (12, (1, 0), (0, 1)): "F", (12, (0, 1), (1, 0)): "G",
    (12, (1, 0), (1, 1)): "H", (12, (1, 1), (1, 0)): "H",
}
_CASE_ROWS = {
    # case tag -> list of (n, extra integer factor in the leading term)
    "A": [(1, 1)],
    "B": [(1, 2)],
    "C": [(1, 3)],
    "D": [(1, 1), (2, 1)],
    "E": [(1, 1)],
    "F": [(1, 1), (2, 1), (3, 1)],
    "G": [(1, 1)],
    "H": [(1, 2), (2, 3)],
}


def test_c04_ladder_commutators():
    from hyperalg.chevalley import StructureConstants

    seen_cases, seen_keys = set(), set()
    for label in RANK2:
        rs = build_root_system(label)
        sc = StructureConstants(rs)
        for p in (2, 3):
            eng = Engine(rs, p, sc=sc)
            for r in (1, 2):
                q = p**r
                for alpha in rs.positive_roots:
                    for gamma in rs.positive_roots:
                        s = tuple(x + y for x, y in zip(alpha, gamma))
                        if not rs.is_root(s):
                            continue
                        _, _, ca, cg, count = rs.rank2_base(alpha, gamma)
                        seen_keys.add((count, ca, cg))
                        tag = _CASE_OF_BASE[(count, ca, cg)]
                        seen_cases.add(tag)
                        rows = _CASE_ROWS[tag]
                        threshold = rows[-1][0]
                        for n in range(1, threshold + 2):
                            z = eng.zero(r)
                            for i in range(n + 1):
                                term = eng.multiply(
                                    eng.divided_power(alpha, (n - i) * q, r),
                                    eng.multiply(
                                        eng.divided_power(gamma, q, r),
                                        eng.divided_power(alpha, i * q, r),
                                    ),
                                )
                                z = z.add(term.scale((-1) ** i))
                            if n > threshold:
                                assert z.in_truncation(r), (label, p, r, tag,
                                                            alpha, gamma, n)
                                continue
                            coeff = dict(rows)[n]
                            top = gamma
                            for j in range(n):
                                step = tuple(
                                    a + t for a, t in zip(alpha, top)
                                )
                                bc = sc.bracket_const(alpha, top)
                                coeff *= 1 if bc > 0 else -1
                                top = step
                            lead = eng.divided_power(top, q, r).scale(coeff)
                            assert z.sub(lead).in_truncation(r), (
                                label, p, r, tag, alpha, gamma, n)
    assert seen_cases == set("ABCDEFGH")
    assert seen_keys == set(_CASE_OF_BASE)
    ok("C4 ladder commutator table, all cases A-H, p in {2,3}, r in {1,2}")


def test_c05_split_leading_terms():
    for label in RANK2:
        for p in (2, 3):
            eng = Engine(build_root_system(label), p)
            fro = Frobenius(eng)
            for r in (1, 2):
                level = r + 1
                for beta in eng.rs.positive_roots:
                    img = fro.fr_prime_plus(
                        eng.divided_power(beta, 1, level), r
                    )
                    diff = img.sub(eng.divided_power(beta, p**r, level))
                    assert diff.in_truncation(r), (label, p, r, beta)
    ok("C5 splitting leading terms on every positive root, p in {2,3}, "
       "r in {1,2}")


@pytest.mark.parametrize(
    "system,p,r,n",
    [
        ("A2", 2, 1, 1),
        ("A2", 3, 1, 1),
        ("A2", 5, 1, 1),
        ("B2", 2, 1, 1),
        ("B2", 3, 1, 1),
        ("G2", 2, 1, 1),
        ("A2", 2, 1, 2),
    ],
)
def test_c06_raising_products_bijective(system, p, r, n):
    t0 = time.monotonic()
    rep = verify(MapSpec("Thm4.5-first", system, p, r, n))
    elapsed = time.monotonic() - t0
    assert rep.bijective, rep.to_json()
    if system == "G2":
        assert elapsed < 60
    ok(f"C6 raising-algebra product map bijective, {system} p={p} "
       f"r={r} n={n} (dim {rep.source_dim}, {elapsed:.1f}s)")


@pytest.mark.parametrize("r", [2, 3])
def test_c07_iterated_raising_products(r):
    rep = verify(MapSpec("Thm4.5-second", "A2", 2, r))
    assert rep.bijective, rep.to_json()
    ok(f"C7 iterated raising-algebra map bijective, A2 p=2 r={r} "
       f"(dim {rep.source_dim})")


@pytest.mark.parametrize("p", [2, 3])
def test_c08_torus_maps(p):
    specs = [
        MapSpec("Prop5.1-first", "A2", p, 1, 1),
        MapSpec("Prop5.1-second", "A2", p, 2),
        MapSpec("Prop5.1-first", "A2", p, 1, 2),
        MapSpec("Prop5.1-second", "A2", p, 3),
    ]
    for spec in specs:
        rep = verify(spec)
        assert rep.bijective and rep.multiplicative, rep.to_json()
    ok(f"C8 all four torus product maps bijective and multiplicative, "
       f"A2 p={p}")


def test_c09_idempotent_properties():
    for label in ("A1", "A2"):
        for p in (2, 3):
            eng = Engine(build_root_system(label), p)
            fro = Frobenius(eng)
            rs = eng.rs
            for n in (1, 2):
                level = n
                xs = enumerate_Xm(rs, p, n)
                hs = {lam: mu_hpart(eng, lam, n, level) for lam in xs}
                # (i) Cartan binomials act by the weight's binomials
                for lam in xs:
                    for i in range(rs.rank):
                        for t in range(p**n):
                            assert eng.binom_h_simple(i, t, level).mul(
                                hs[lam]
                            ).equals(hs[lam].scale(lucas_binom(lam[i], t, p)))
                # (ii) orthogonal idempotents summing to 1
                total = HPart(np.zeros((p**level,) * rs.rank, dtype=np.int16), p, level)
                for lam in xs:
                    assert hs[lam].mul(hs[lam]).equals(hs[lam])
                    total = total.add(hs[lam])
                for i, lam in enumerate(xs):
                    for mu in xs[i + 1 :]:
                        assert hs[lam].mul(hs[mu]).is_zero()
                assert total.equals(eng.hpart_one(level))
                # (iii) equality is congruence mod p^n
                for lam in xs:
                    shifted = tuple(v + p**n for v in lam)
                    assert mu_hpart(eng, shifted, n, level).equals(hs[lam])
                    bumped = tuple(
                        v + (1 if i == 0 else 0) for i, v in enumerate(lam)
                    )
                    if p**n > 1:
                        assert not mu_hpart(eng, bumped, n, level).equals(
                            hs[lam]
                        )
                # (iv) composition through the splitting
                m = 1
                if n + m <= 3:
                    lvl = n + m
                    for lam in enumerate_Xm(rs, p, m):
                        for lamp in xs:
                            combined = tuple(
                                lam[i] + p**m * lamp[i]
                                for i in range(rs.rank)
                            )
                            inner = lift(eng, mu_hpart(eng, lamp, n, n), lvl)
                            lhs = mu_hpart(eng, combined, n + m, lvl)
                            rhs = mu_hpart(eng, lam, m, lvl).mul(
                                fro.fr_prime_zero(inner, m)
                            )
                            assert lhs.equals(rhs)
                # (v) conjugation by divided powers shifts the weight
                for alpha in rs.roots:
                    for mm in (1, 2):
                        lam = xs[min(1, len(xs) - 1)]
                        x = eng.divided_power(alpha, mm, level)
                        lhs = eng.multiply(x, mu_lambda(eng, lam, n, level))
                        shifted = tuple(
                            lam[i] + mm * rs.weight_coords(alpha)[i]
                            for i in range(rs.rank)
                        )
                        rhs = eng.multiply(
                            mu_lambda(eng, shifted, n, level), x
                        )
                        assert lhs.equals(rhs)
    ok("C9 idempotent properties (i)-(v) exhaustive, A1/A2, p in {2,3}, "
       "n in {1,2}")


@pytest.mark.parametrize("system,p,r,n", [
    ("A1", 2, 1, 1), ("A1", 3, 1, 1), ("A1", 2, 1, 2),
])
def test_c10_full_algebra_products(system, p, r, n):
    rep = verify(MapSpec("Thm5.5-first", system, p, r, n))
    assert rep.bijective, rep.to_json()
    ok(f"C10 full-algebra product map bijective, {system} p={p} r={r} n={n} "
       f"(dim {rep.source_dim})")


def test_c10_stretch_rank2_full_algebra():
    rep = verify(MapSpec("Thm5.5-first", "A2", 2, 1, 1), column_cap=2**17)
    assert rep.bijective, rep.to_json()
    ok(f"C10 stretch full-algebra map bijective, A2 p=2 (dim {rep.source_dim})")


@pytest.mark.parametrize("system", ["A2", "B2"])
@pytest.mark.parametrize("statement", ["Borel-variant", "Minus-variant"])
def test_c11_borel_variants(system, statement):
    rep = verify(MapSpec(statement, system, 2, 1, 1))
    assert rep.bijective, rep.to_json()
    ok(f"C11 {statement} bijective, {system} p=2 (dim {rep.source_dim})")


def test_c12_shape_properties():
    counts = dict.fromkeys(
        ("support", "interval", "digits", "split", "triangular"), 0
    )
    rng = random.Random(211)

    # straightened-commutator support window
    for label in RANK2:
        for p in (2, 3):
            eng = Engine(build_root_system(label), p)
            rs = eng.rs
            nu = rs.num_positive
            for _ in range(40):
                j = rng.randrange(nu - 1)
                k = rng.randrange(j + 1, nu)
                a, b = rng.randint(1, 5), rng.randint(1, 5)
                x = eng.divided_power(rs.convex_roots[k], a, 1)
                y = eng.divided_power(rs.convex_roots[j], b, 1)
                diff = eng.multiply(x, y).sub(eng.multiply(y, x))
                if k == j + 1:
                    assert diff.is_zero()
                else:
                    for (_, bv) in diff.terms:
                        assert all(
                            bv[i] == 0 for i in range(nu) if i < j or i > k
                        )
                        assert bv[j] < b and bv[k] < a
                        assert sum(bv[j:k]) <= b
                        assert sum(bv[j + 1 : k + 1]) <= a
                counts["support"] += 1

    # interval commutation: bounded interior, strictly smaller new exponent
    for label in RANK2:
        p, r = 2, 1
        eng = Engine(build_root_system(label), p)
        rs = eng.rs
        nu = rs.num_positive
        for _ in range(70):
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
                    assert all(
                        bv[i] == 0 for i in range(nu) if i < j or i > k + 1
                    )
            counts["interval"] += 1

    # digit bounds under truncated right multiplication
    for label, p in (("A2", 2), ("A2", 3), ("B2", 2), ("G2", 2)):
        eng = Engine(build_root_system(label), p)
        nu = eng.rs.num_positive
        r = 1
        for _ in range(60):
            a = tuple(rng.randrange(2 * p**r) for _ in range(nu))
            b = tuple(rng.randrange(p**r) for _ in range(nu))
            prod = eng.multiply(
                eng.monomial((0,) * nu, a, None, 1),
                eng.monomial((0,) * nu, b, None, 1),
            )
            for (_, cv) in prod.terms:
                assert all(
                    cv[i] // p**r <= a[i] // p**r for i in range(nu)
                )
            counts["digits"] += 1

    # split-product leading term and digit domination
    for label, p in (("A2", 2), ("A2", 3), ("B2", 2)):
        eng = Engine(build_root_system(label), p)
        fro = Frobenius(eng)
        rs = eng.rs
        nu = rs.num_positive
        r, level = 1, 2
        q = p**r
        for _ in range(70):
            k = rng.randint(1, nu)
            a = tuple(rng.randrange(q) for _ in range(nu))
            b = tuple(rng.randrange(p) if i < k else 0 for i in range(nu))
            prod = eng.multiply(
                eng.monomial((0,) * nu, a, None, level),
                fro.fr_prime_plus(
                    eng.monomial((0,) * nu, b, None, level), r
                ),
            )
            lead = tuple(a[i] + q * b[i] for i in range(nu))
            got = prod.terms.get(((0,) * nu, lead))
            assert got is not None
            assert got.value((0,) * rs.rank) % p == 1
            for (_, cv) in prod.terms:
                if cv == lead:
                    continue
                digits = tuple(v // q for v in cv)
                assert digits != b
                assert all(digits[i] <= b[i] for i in range(k))
                assert all(digits[i] == 0 for i in range(k, nu))
            counts["split"] += 1

    # triangular commutator shape for homogeneous mixed products
    for label in RANK2:
        eng = Engine(build_root_system(label), 3)
        rs = eng.rs
        nu = rs.num_positive

        def rweight(vec):
            return tuple(
                sum(vec[t] * rs.convex_roots[t][i] for t in range(nu))
                for i in range(rs.rank)
            )

        for _ in range(70):
            bx = tuple(rng.randrange(3) for _ in range(nu))
            ay = tuple(rng.randrange(3) for _ in range(nu))
            if not sum(bx) or not sum(ay):
                continue
            x = eng.monomial((0,) * nu, bx, None, 3)
            y = eng.monomial(ay, (0,) * nu, None, 3)
            diff = eng.multiply(x, y).sub(eng.multiply(y, x))
            wx, wy = rweight(bx), rweight(ay)
            for (av, bv) in diff.terms:
                gap = tuple(u - v for u, v in zip(wx, rweight(bv)))
                assert all(g >= 0 for g in gap) and any(g > 0 for g in gap)
                assert tuple(u - v for u, v in zip(wx, wy)) == tuple(
                    u - v for u, v in zip(rweight(bv), rweight(av))
                )
            counts["triangular"] += 1

    assert all(v >= 200 for v in counts.values()), counts
    ok(f"C12 shape-property suites, instance counts {counts}")


def test_c13_splitting_sections():
    rng = random.Random(307)
    total = 0
    for label in ["A1"] + RANK2:
        for p in (2, 3):
            eng = Engine(build_root_system(label), p)
            fro = Frobenius(eng)
            rs = eng.rs
            level = 2
            for _ in range(200 // 4):
                x = eng.one(1)
                for _ in range(3):
                    x = eng.multiply(
                        x,
                        eng.divided_power(
                            rng.choice(rs.roots), rng.randint(0, p - 1), 1
                        ),
                    )
                lifted = eng.zero(level)
                for (a, b), h in x.terms.items():
                    lifted = lifted.add(
                        eng.monomial(
                            a,
                            b,
                            eng.hpart_one(level).scale(
                                h.value((0,) * rs.rank)
                            ),
                            level,
                        )
                    )
                assert fro.fr(fro.fr_prime(lifted)).equals(lifted)
                total += 1
            # multiplicativity on each triangular factor
            for sign in (+1, -1):
                apply = fro.fr_prime_plus if sign > 0 else fro.fr_prime_minus
                for _ in range(6):
                    g1 = rng.choice(rs.positive_roots)
                    g2 = rng.choice(rs.positive_roots)
                    if sign < 0:
                        g1 = tuple(-c for c in g1)
                        g2 = tuple(-c for c in g2)
                    x = eng.divided_power(g1, rng.randint(1, 2), level)
                    y = eng.divided_power(g2, rng.randint(1, 2), level)
                    assert apply(eng.multiply(x, y)).equals(
                        eng.multiply(apply(x), apply(y))
                    )
            for lam in enumerate_Xm(rs, p, 1)[:4]:
                for lam2 in enumerate_Xm(rs, p, 1)[:4]:
                    h1 = lift(eng, mu_hpart(eng, lam, 1, 1), level)
                    h2 = lift(eng, mu_hpart(eng, lam2, 1, 1), level)
                    assert fro.fr_prime_zero(h1.mul(h2)).equals(
                        fro.fr_prime_zero(h1).mul(fro.fr_prime_zero(h2))
                    )
    assert total >= 200
    ok(f"C13 splitting is a section and multiplicative factorwise "
       f"({total} section checks)")
