"""F_p row reduction and singleton peeling against a plain reference
elimination."""

import numpy as np
import pytest

from hyperalg.isocheck import _kernel_vector, rank_fp
from hyperalg.linalg import peel, row_reduce
from hyperalg.rootdata import build_root_system
from hyperalg.straighten import Engine, lucas_binom

PRIMES = [2, 3, 5, 7]


def _reference_rref(rows, p):
    """Gauss-Jordan on lists of ints; returns (reduced rows, pivot columns)."""
    m = [[x % p for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][col], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def _cases(rng, p):
    """Random, rank-deficient, zero and empty matrices, odd widths included."""
    out = []
    for nrows, ncols in ((1, 1), (3, 5), (5, 3), (7, 9), (9, 13), (12, 12), (4, 17)):
        out.append(rng.integers(0, p, size=(nrows, ncols)))
        k = max(1, min(nrows, ncols) - 2)
        a = rng.integers(0, p, size=(nrows, k))
        b = rng.integers(0, p, size=(k, ncols))
        out.append(a @ b % p)
        # sparse, like the certificate blocks
        out.append(rng.integers(0, p, size=(nrows, ncols)) * (rng.random((nrows, ncols)) < 0.2))
    out += [np.zeros((4, 6), dtype=np.int64), np.zeros((0, 5), dtype=np.int64),
            np.zeros((5, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)]
    return [np.asarray(m, dtype=np.int64) for m in out]


@pytest.mark.parametrize("p", PRIMES)
def test_row_reduce_matches_reference(p):
    rng = np.random.default_rng(11 + p)
    for mat in _cases(rng, p):
        m = mat.copy()
        pivots = row_reduce(m, p)
        ref, ref_pivots = _reference_rref(mat.tolist(), p)
        assert pivots == ref_pivots, mat
        assert m.tolist() == ref, mat
        assert rank_fp(mat, p) == len(ref_pivots)
        # rank_fp reduces its input modulo p itself, also past the int32 range
        assert rank_fp(mat + p * 2**40, p) == len(ref_pivots)


def test_row_reduce_refuses_overflowing_dtype():
    with pytest.raises(ValueError):
        row_reduce(np.ones((2, 2), dtype=np.int8), 13)


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_vector_on_deficient_matrices(p):
    rng = np.random.default_rng(23 + p)
    for _ in range(10):
        nrows, ncols = rng.integers(1, 9, size=2)
        k = int(rng.integers(0, min(nrows, ncols)))
        mat = rng.integers(0, p, size=(nrows, k)) @ rng.integers(0, p, size=(k, ncols))
        vec = _kernel_vector(mat, p)
        assert vec is not None and (vec % p).any()
        assert not (mat @ vec % p).any()
    assert _kernel_vector(np.eye(5, dtype=np.int64), p) is None


def _chain(p):
    """Upper bidiagonal 6x6: only its first column starts with one entry."""
    return np.eye(6, dtype=np.int64) + np.eye(6, k=1, dtype=np.int64) * (p - 1)


def _peel_cases(rng, p):
    """Matrices for peel: nothing peels, dense, deficient, zero lines,
    empty, and a chain that peels one column a round."""
    deficient = rng.integers(0, p, size=(7, 3)) @ rng.integers(0, p, size=(3, 8))
    zero_lines = rng.integers(1, p, size=(5, 6)) * (rng.random((5, 6)) < 0.4)
    zero_lines[2, :] = 0
    zero_lines[:, 4] = 0
    return [
        np.ones((2, 2), dtype=np.int64),
        rng.integers(0, p, size=(9, 11)),
        deficient % p,
        zero_lines,
        np.zeros((0, 4), dtype=np.int64),
        np.zeros((4, 0), dtype=np.int64),
        _chain(p),
        _chain(p).T,
        rng.integers(0, p, size=(12, 10)) * (rng.random((12, 10)) < 0.15),
    ]


def _check_peel(mat, p):
    rows, cols = np.nonzero(mat % p)
    pivots, left_rows, left_cols = peel(rows, cols, *mat.shape)
    # the pivots pair distinct rows with distinct columns, on nonzero entries
    assert len(set(pivots[:, 0])) == len(set(pivots[:, 1])) == len(pivots)
    assert all(mat[r, c] % p for r, c in pivots)
    assert not set(pivots[:, 0]) & set(left_rows)
    assert not set(pivots[:, 1]) & set(left_cols)
    left = mat[np.ix_(left_rows, left_cols)].tolist()
    rank = len(_reference_rref(mat.tolist(), p)[1])
    assert len(pivots) + len(_reference_rref(left, p)[1]) == rank
    return pivots, left_rows, left_cols


@pytest.mark.parametrize("p", PRIMES)
def test_peel_keeps_rank(p):
    rng = np.random.default_rng(31 + p)
    for mat in _peel_cases(rng, p):
        _check_peel(np.asarray(mat, dtype=np.int64), p)
    # all-ones 2x2: no line has one entry
    pivots, left_rows, left_cols = _check_peel(np.ones((2, 2), dtype=np.int64), p)
    assert len(pivots) == 0 and list(left_rows) == list(left_cols) == [0, 1]
    # the chain peels whole, one column a round
    pivots, left_rows, left_cols = _check_peel(_chain(p), p)
    assert len(pivots) == 6 and not left_rows.size and not left_cols.size
    # no column has one entry, so only rows peel
    tall = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.int64)
    pivots, left_rows, left_cols = _check_peel(tall, p)
    assert sorted(map(tuple, pivots.tolist())) == [(0, 0), (2, 1)]
    assert not left_rows.size and not left_cols.size


@pytest.mark.parametrize("p,level", [(2, 3), (3, 2), (5, 2), (7, 1)])
def test_binomial_matrix_inverse(p, level):
    eng = Engine(build_root_system("A1"), p)
    size = p**level
    mat = np.array(
        [[lucas_binom(m, n, p) for n in range(size)] for m in range(size)],
        dtype=np.int64,
    )
    inv = eng._binomial_matrix_inverse(level)
    assert (inv @ mat % p == np.eye(size, dtype=np.int64)).all()
    assert (mat @ inv % p == np.eye(size, dtype=np.int64)).all()
