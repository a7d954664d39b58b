"""CSR helpers shared by the vectorizers and the classifiers: every sparse
matrix between the layers is a ``scipy.sparse.csr_matrix`` with one
document per row."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse as sp

# Documents scored together.  Dense per-block intermediates (rows x labels,
# rows x training documents, rows x hidden units) stay bounded at any
# corpus size.
ROW_BLOCK = 256


def vstack(rows: Sequence[Mapping[int, float]], dimension: int) -> sp.csr_matrix:
    """Stack per-document index -> weight maps into one CSR matrix, one map
    per row; indices are sorted within each row and zero weights dropped."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indices: list[int] = []
    data: list[float] = []
    for i, row in enumerate(rows):
        for j in sorted(row):
            if row[j] != 0.0:
                indices.append(j)
                data.append(row[j])
        indptr[i + 1] = len(indices)
    if indices and not 0 <= min(indices) <= max(indices) < dimension:
        raise ValueError(f"feature index out of range for dimension {dimension}")
    return sp.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64), indptr),
        shape=(len(rows), dimension),
    )


def row_norms(X: sp.csr_matrix) -> np.ndarray:
    """Euclidean norm of every row, each taken with one np.dot over that
    row's stored weights, so a row's norm is the same in any block."""
    return np.array(
        [
            math.sqrt(float(np.dot(X.data[start:end], X.data[start:end])))
            for start, end in zip(X.indptr[:-1], X.indptr[1:])
        ],
        dtype=np.float64,
    )

