"""Linear algebra over F_p: the one row reduction the package uses, and
the singleton peeling that settles most of a sparse rank before it."""

from __future__ import annotations

from typing import List, Tuple

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


def peel(
    rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peel singleton pivots off a sparse n_rows x n_cols matrix.

    rows and cols are the coordinates of its nonzero entries, each at most
    once.  A column with one live entry is a pivot: column operations clear
    the rest of that entry's row and change nothing else, so removing the
    row and the column lowers the rank by exactly one.  A row with one live
    entry is a pivot by row operations.  Each round takes every singleton
    column, one per row, or, when there is none, every singleton row, one
    per column, and drops their rows and columns.

    Returns (pivots, left_rows, left_cols): pivots is a (k, 2) array of
    (row, column) pairs, no row or column twice; left_rows and left_cols
    are the rows and columns that still hold an entry, increasing.  The
    rank is k plus the rank of the submatrix on left_rows x left_cols.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    dead_row = np.zeros(n_rows, dtype=bool)
    dead_col = np.zeros(n_cols, dtype=bool)
    found = [np.zeros((0, 2), dtype=np.intp)]
    while True:
        for line, other in ((cols, rows), (rows, cols)):
            at = np.flatnonzero(np.bincount(line)[line] == 1)
            if at.size:
                break
        else:
            break
        # One singleton line per crossing line.
        at = at[np.unique(other[at], return_index=True)[1]]
        found.append(np.stack([rows[at], cols[at]], axis=1))
        dead_row[rows[at]] = True
        dead_col[cols[at]] = True
        keep = ~(dead_row[rows] | dead_col[cols])
        rows, cols = rows[keep], cols[keep]
    return np.concatenate(found), np.unique(rows), np.unique(cols)
