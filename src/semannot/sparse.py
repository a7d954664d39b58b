"""CSR helpers shared by the vectorizers and the classifiers: every sparse
matrix between the layers is a ``scipy.sparse.csr_matrix`` with one
document per row."""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse as sp

# Documents scored together.  Dense per-block intermediates (rows x labels,
# rows x training documents, rows x hidden units) stay bounded at any
# corpus size.
ROW_BLOCK = 256


def csr_rows(rows: Sequence[Mapping[int, float]], n_columns: int) -> sp.csr_matrix:
    """One CSR row per column -> value map, entries in the map's order."""
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    values = np.fromiter(chain.from_iterable(row.values() for row in rows), np.float64, indptr[-1])
    columns = np.fromiter(chain.from_iterable(rows), np.int64, indptr[-1])
    return sp.csr_matrix((values, columns, indptr), shape=(len(rows), n_columns))


def remap_columns(X: sp.csr_matrix, lookup: np.ndarray, n_columns: int) -> sp.csr_matrix:
    """Move column j of ``X`` to column ``lookup[j]``, dropping the entries
    whose lookup is -1; indices sorted within each row."""
    columns = lookup[X.indices]
    kept = columns >= 0
    indptr = np.concatenate(([0], np.cumsum(kept)))[X.indptr]
    out = sp.csr_matrix((X.data[kept], columns[kept], indptr), shape=(X.shape[0], n_columns))
    out.sort_indices()
    return out


def vstack(rows: Sequence[Mapping[int, float]], dimension: int) -> sp.csr_matrix:
    """Stack per-document index -> weight maps into one CSR matrix, one map
    per row; indices are sorted within each row and zero weights dropped."""
    X = csr_rows(rows, dimension)
    X.eliminate_zeros()
    if X.nnz and not 0 <= X.indices.min() <= X.indices.max() < dimension:
        raise ValueError(f"feature index out of range for dimension {dimension}")
    X.sort_indices()
    return X


def row_norms(X: sp.csr_matrix) -> np.ndarray:
    """Euclidean norm of every row: the root of its stored weights' squares,
    summed in stored order, so a row's norm is the same in any block."""
    rows = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    return np.sqrt(np.bincount(rows, weights=X.data * X.data, minlength=X.shape[0]))


def l2_normalize(X: sp.csr_matrix) -> sp.csr_matrix:
    """Scale every row to unit Euclidean norm; all-zero rows pass through."""
    norms = row_norms(X)
    factors = np.divide(1.0, norms, out=np.ones_like(norms), where=norms > 0.0)
    data = X.data * np.repeat(factors, np.diff(X.indptr))
    return sp.csr_matrix((data, X.indices, X.indptr), shape=X.shape)

