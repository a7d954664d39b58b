"""Lazy learners: k-nearest neighbors and the Rocchio nearest-centroid
classifier, both under cosine distance."""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from ..multilabel import rank_labels, threshold_decide
from ..sparse import ROW_BLOCK, l2_normalize
from .labels import LabelMatrix

KNN_K = 1


def _cosines(stored: sp.csr_matrix, X: sp.csr_matrix) -> np.ndarray:
    """(rows of X, rows of stored) cosines against unit-length stored rows.

    The product runs over each stored row's entries in their stored order,
    so a query's similarities do not depend on the block it is scored in.
    """
    return (stored @ l2_normalize(X).T).T.toarray()


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
        self.matrix = l2_normalize(X)
        self.labels = labels
        return self

    @property
    def n_train(self) -> int:
        return self.matrix.shape[0]

    def neighbors(
        self, X: sp.csr_matrix, exclude: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Indices and cosine similarities of each row's k nearest training
        docs, ordered by similarity descending, ties by lowest ordinal.

        ``exclude`` holds one training ordinal per row to leave out of that
        row's neighborhood (leave-one-out over the training documents).
        """
        if self.matrix is None:
            raise RuntimeError("classifier is not fitted")
        k = min(self.k, self.n_train - (1 if exclude is not None else 0))
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

    @property
    def label_ids(self) -> tuple[str, ...]:
        return self.labels.label_ids if self.labels is not None else ()

    def scores(self, X: sp.csr_matrix) -> np.ndarray:
        """(rows, labels) votes: how many of each row's neighbors carry the label."""
        idx, _ = self.neighbors(X)
        n_rows, k = idx.shape
        chosen = sp.csr_matrix(
            (np.ones(idx.size), idx.ravel(), np.arange(0, idx.size + 1, k)),
            shape=(n_rows, self.n_train),
        )
        return (chosen @ self.labels.Y).toarray()

    def predict(self, X: sp.csr_matrix) -> list[set[str]]:
        """Labels carried by a strict majority of each row's neighbors (with
        k = 1, the nearest neighbor's label set)."""
        return threshold_decide(self.label_ids, self.scores(X), min(self.k, self.n_train) / 2)


class RocchioClassifier:
    """Keeps one centroid per label; ranks labels by cosine distance to them."""

    def __init__(self):
        self.centroids: sp.csr_matrix | None = None
        self.label_ids: tuple[str, ...] = ()

    def fit(self, X: sp.csr_matrix, labels: LabelMatrix) -> "RocchioClassifier":
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        # a unit centroid is the unit sum of the label's rows; the mean is not needed
        self.centroids = l2_normalize((labels.Y.T @ X).tocsr())
        self.label_ids = labels.label_ids
        return self

    def scores(self, X: sp.csr_matrix) -> np.ndarray:
        """(rows, labels) cosines to the centroids, 1 - cosine distance."""
        if self.centroids is None:
            raise RuntimeError("classifier is not fitted")
        return _cosines(self.centroids, X)

    def rank(self, X: sp.csr_matrix) -> np.ndarray:
        return rank_labels(self.label_ids, self.scores(X))
