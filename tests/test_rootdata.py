"""Root-system combinatorics: roots, convex order, rank-2 pair bases."""

import math

import pytest
from hypothesis import given, strategies as st

from hyperalg.rootdata import build_root_system
from hyperalg.straighten import Engine

SYSTEMS = ["A1", "A2", "B2", "G2"]


@pytest.mark.parametrize(
    "label,total,positive", [("A1", 2, 1), ("A2", 6, 3), ("B2", 8, 4), ("G2", 12, 6)]
)
def test_root_counts(label, total, positive):
    rs = build_root_system(label)
    assert len(rs.roots) == total
    assert rs.num_positive == positive
    assert set(rs.roots) == {r for r in rs.roots} | {
        tuple(-x for x in r) for r in rs.roots
    }


def test_a2_convex_order():
    rs = build_root_system("A2")
    assert rs.reduced_word == (0, 1, 0)
    assert rs.convex_roots == [(1, 0), (1, 1), (0, 1)]


def test_g2_convex_order():
    rs = build_root_system("G2")
    assert rs.convex_roots == [(1, 0), (3, 1), (2, 1), (3, 2), (1, 1), (0, 1)]


@pytest.mark.parametrize("label", SYSTEMS)
def test_convex_property(label):
    # A sum of two positive roots sits between them in the ordering.
    rs = build_root_system(label)
    for i, bi in enumerate(rs.convex_roots):
        for j, bj in enumerate(rs.convex_roots):
            if i < j:
                s = tuple(x + y for x, y in zip(bi, bj))
                if rs.is_root(s):
                    k = rs.convex_index(s)
                    assert i < k < j


@pytest.mark.parametrize("label", SYSTEMS)
def test_pairing_integrality(label):
    rs = build_root_system(label)
    for b in rs.roots:
        for a in rs.roots:
            assert isinstance(rs.pairing(b, a), int)
        assert rs.pairing(b, b) == 2
        assert rs.weight_coords(b) == tuple(
            rs.pairing(b, rs.simple(i)) for i in range(rs.rank)
        )


# The root counts of the rank-2 subsystems that each system's pairs
# generate; G2's long roots generate a subsystem of type A2.
_PAIR_COUNTS = {"A2": (6,), "B2": (8,), "G2": (6, 12)}


@pytest.mark.parametrize("label", SYSTEMS[1:])
def test_classification_total(label):
    # A pair of roots of either sign whose sum is a root is classified by
    # its rank2_base key.  The keys reached are every Engine._PATTERNS key
    # of the system's counts, so over A2, B2 and G2 no pattern is unused.
    rs = build_root_system(label)
    keys = set()
    for g in rs.roots:
        for d in rs.roots:
            if rs.is_root(tuple(x + y for x, y in zip(g, d))):
                _, _, cg, cd, count = rs.rank2_base(g, d)
                keys.add((count, (cg, cd)))
    assert keys == {(c, k) for c in _PAIR_COUNTS[label] for k in Engine._PATTERNS[c]}
    assert {c for cs in _PAIR_COUNTS.values() for c in cs} == set(Engine._PATTERNS)


def test_m_value_examples():
    g2 = build_root_system("G2")
    assert g2.m_value((1, 0), (0, 1)) == 0
    assert g2.m_value((1, 0), (1, 1)) == 1
    assert g2.m_value((1, 0), (2, 1)) == 2
    assert g2.m_value((2, 1), (1, 1)) == 2


def test_subsystem_is_lattice_intersection():
    g2 = build_root_system("G2")
    # The two long simple-ish roots span only the six long roots.
    sub = g2.subsystem_roots((0, 1), (3, 1))
    assert len(sub) == 6
    assert all(g2.ip(r, r) == g2.ip((0, 1), (0, 1)) for r in sub)
