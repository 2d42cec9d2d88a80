"""Rational oracle: associativity, brackets, Jacobi, mod-p reduction."""

import random
from fractions import Fraction

import pytest

from hyperalg.qoracle import NotInZFormError, QOracle
from hyperalg.rootdata import build_root_system
from hyperalg.straighten import Engine

SYSTEMS = ["A1", "A2", "B2", "G2"]


@pytest.fixture(scope="module")
def oracles():
    return {label: QOracle(build_root_system(label)) for label in SYSTEMS}


@pytest.mark.parametrize("label", SYSTEMS)
def test_associativity(oracles, label):
    qo = oracles[label]
    rs = qo.rs
    rng = random.Random(7)
    for _ in range(15):
        xs = [
            qo.q_divided(rng.choice(rs.roots), rng.randint(1, 3)) for _ in range(3)
        ]
        left = qo.q_multiply(qo.q_multiply(xs[0], xs[1]), xs[2])
        right = qo.q_multiply(xs[0], qo.q_multiply(xs[1], xs[2]))
        assert left == right


@pytest.mark.parametrize("label", SYSTEMS[1:])
def test_bracket_matches_constants(oracles, label):
    qo = oracles[label]
    rs = qo.rs
    for g in rs.roots:
        for d in rs.roots:
            s = tuple(x + y for x, y in zip(g, d))
            if rs.is_root(s):
                expect = {}
                qo.add_into(
                    expect, qo.q_divided(s, 1), Fraction(qo.sc.bracket_const(g, d))
                )
                assert qo.bracket(g, d) == expect


@pytest.mark.parametrize("label", SYSTEMS[1:])
def test_jacobi_identity(oracles, label):
    qo = oracles[label]
    rs = qo.rs
    rng = random.Random(3)
    roots = rs.roots
    for _ in range(10):
        x, y, z = (qo.q_divided(rng.choice(roots), 1) for _ in range(3))

        def comm(u, v):
            out = qo.q_multiply(u, v)
            qo.add_into(out, qo.q_multiply(v, u), Fraction(-1))
            return out

        total = comm(comm(x, y), z)
        qo.add_into(total, comm(comm(y, z), x))
        qo.add_into(total, comm(comm(z, x), y))
        assert total == {}


def test_divided_power_reduction_roundtrip():
    rs = build_root_system("A2")
    qo = QOracle(rs)
    eng = Engine(rs, 3, sc=qo.sc)
    x = qo.multiply_divided([((1, 0), 2), ((0, 1), 1)])
    red = qo.reduce_mod_p(x, 3, 2)
    direct = eng.multiply(
        eng.divided_power((1, 0), 2, 2), eng.divided_power((0, 1), 1, 2)
    )
    assert red.equals(direct)


def test_non_integral_rejected():
    rs = build_root_system("A1")
    qo = QOracle(rs)
    bad = {k: Fraction(1, 2) for k in qo.unit()}
    with pytest.raises(NotInZFormError):
        qo.reduce_mod_p(bad, 2, 1)


def test_plain_power_is_factorial_times_divided():
    rs = build_root_system("A1")
    qo = QOracle(rs)
    # e^(1)^3 = e^3 = 3!·e^(3): the expansion carries the factorial.
    cube = qo.q_multiply(
        qo.q_multiply(qo.q_divided((1,), 1), qo.q_divided((1,), 1)),
        qo.q_divided((1,), 1),
    )
    div = qo.to_divided_basis(cube)
    assert div == {((0,), (0,), (3,)): Fraction(6)}
