"""F_p row reduction against a plain reference elimination."""

import numpy as np
import pytest

from hyperalg.isocheck import _kernel_vector, rank_fp
from hyperalg.linalg import row_reduce
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
