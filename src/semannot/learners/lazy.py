"""Lazy learners: k-nearest neighbors and the Rocchio nearest-centroid
classifier, both under cosine distance."""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from ..multilabel import RankedPrediction, rank_labels
from ..sparse import ROW_BLOCK, row_norms
from .labels import LabelMatrix

KNN_K = 1


def _normalize_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return (sp.diags(scale) @ matrix).tocsr()


def _cosines(stored: sp.csr_matrix, X: sp.csr_matrix) -> np.ndarray:
    """(rows of X, rows of stored) cosines against unit-length stored rows.

    The product runs over each stored row's entries in their stored order,
    so a query's similarities do not depend on the block it is scored in.
    """
    norms = np.repeat(row_norms(X), np.diff(X.indptr))
    unit = sp.csr_matrix(
        (np.divide(X.data, norms, out=np.zeros_like(X.data), where=norms > 0), X.indices, X.indptr),
        shape=X.shape,
    )
    return (stored @ unit.T).T.toarray()


class KnnClassifier:
    """Stores the training vectors verbatim; votes at prediction time.

    Cosine distance throughout; an all-zero query is at distance 1 from
    every neighbor, so ties resolve to the lowest training ordinal.
    """

    def __init__(self, k: int = KNN_K):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.matrix: sp.csr_matrix | None = None
        self.labels: LabelMatrix | None = None

    def fit(self, X: sp.csr_matrix, labels: LabelMatrix) -> "KnnClassifier":
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        if X.shape[0] != labels.n_docs:
            raise ValueError("X and labels must align")
        self.matrix = _normalize_rows(X)
        self.labels = labels
        return self

    @property
    def n_train(self) -> int:
        return self.matrix.shape[0]

    def neighbors(
        self, X: sp.csr_matrix, k: int | None = None, exclude: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Indices and cosine similarities of each row's k nearest training
        docs, ordered by similarity descending, ties by lowest ordinal.

        ``exclude`` holds one training ordinal per row to leave out of that
        row's neighborhood (leave-one-out over the training documents).
        """
        if self.matrix is None:
            raise RuntimeError("classifier is not fitted")
        k = min(self.k if k is None else k, self.n_train - (1 if exclude is not None else 0))
        idx = np.empty((X.shape[0], k), dtype=np.int64)
        sims = np.empty((X.shape[0], k), dtype=np.float64)
        for lo in range(0, X.shape[0], ROW_BLOCK):
            block = _cosines(self.matrix, X[lo:lo + ROW_BLOCK])
            if exclude is not None:
                block[np.arange(len(block)), exclude[lo:lo + ROW_BLOCK]] = -np.inf
            order = np.argsort(-block, axis=1, kind="stable")[:, :k]
            idx[lo:lo + ROW_BLOCK] = order
            sims[lo:lo + ROW_BLOCK] = np.take_along_axis(block, order, axis=1)
        return idx, sims

    def predict(self, X: sp.csr_matrix) -> list[set[str]]:
        """Labels carried by a strict majority of each row's neighbors (with
        k = 1, the nearest neighbor's label set)."""
        idx, _ = self.neighbors(X)
        n_rows, k = idx.shape
        chosen = sp.csr_matrix(
            (np.ones(idx.size), idx.ravel(), np.arange(0, idx.size + 1, k)),
            shape=(n_rows, self.n_train),
        )
        votes = (chosen @ self.labels.Y).toarray()
        return [
            {self.labels.label_ids[j] for j in np.nonzero(row * 2 > k)[0]} for row in votes
        ]


class RocchioClassifier:
    """Keeps one centroid per label; ranks labels by cosine distance to them."""

    def __init__(self):
        self.centroids: sp.csr_matrix | None = None
        self.label_ids: tuple[str, ...] = ()

    def fit(self, X: sp.csr_matrix, labels: LabelMatrix) -> "RocchioClassifier":
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        counts = np.asarray(labels.Y.sum(axis=0)).ravel()
        sums = (labels.Y.T @ X).tocsr()
        scale = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
        self.centroids = _normalize_rows((sp.diags(scale) @ sums).tocsr())
        self.label_ids = labels.label_ids
        return self

    def rank(self, X: sp.csr_matrix) -> list[RankedPrediction]:
        """Labels ascending by cosine distance; score = 1 - distance."""
        if self.centroids is None:
            raise RuntimeError("classifier is not fitted")
        return rank_labels(self.label_ids, _cosines(self.centroids, X))
