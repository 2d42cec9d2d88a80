"""Linear algebra over F_p: the one row reduction the package uses."""

from __future__ import annotations

from typing import List

import numpy as np


def row_reduce(m: np.ndarray, p: int) -> List[int]:
    """Reduce m in place to reduced row echelon form over F_p.

    m is an integer matrix of residues in [0, p) and p is prime; m's
    dtype must hold p * p.  Returns the pivot columns in order; pivot i
    sits in row i.
    """
    if p * p > np.iinfo(m.dtype).max:
        raise ValueError(f"p={p} overflows a {m.dtype} matrix")
    nrows, ncols = m.shape
    pivots: List[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nonzero = np.flatnonzero(m[:, col])
        below = nonzero[nonzero >= row]
        if not below.size:
            continue
        sel = int(below[0])
        if sel != row:
            # m[row, col] was zero: the swap moves sel's nonzero to row and
            # leaves every other nonzero of the column where it was.
            m[[row, sel]] = m[[sel, row]]
        inv = pow(int(m[row, col]), p - 2, p)
        if inv != 1:
            m[row, col:] = m[row, col:] * inv % p
        # The pivot row is zero left of col, so only columns col: change.
        others = nonzero[nonzero != sel]
        if others.size:
            m[others, col:] = (
                m[others, col:] - np.outer(m[others, col], m[row, col:])
            ) % p
        pivots.append(col)
        row += 1
    return pivots
