"""Learning-to-Rank label assignment.

Candidate labels for a document are the union of the gold labels of its k
nearest training neighbors.  A pointwise logistic ranker scores each
candidate from four neighborhood/overlap features (other labels score -inf),
and a rank cutoff at the training mean label count (rounded half up) decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp
from scipy.special import expit

from .learners.labels import LabelMatrix
from .learners.lazy import KnnClassifier
from .learners.linear import LINEAR_ALPHA, LINEAR_EPOCHS, averaged_sgd_train
from .multilabel import RankedPrediction, cutoff_decide, rank_labels, round_half_up

L2R_K = 45


@dataclass
class CandidateSet:
    """Candidate labels of one document with their ranking features.

    Feature columns: summed neighbor similarity, neighbor count, training
    prior, and maximum neighbor similarity.
    """

    labels: list[str]
    features: np.ndarray


def generate_candidates(
    idx: np.ndarray,
    sims: np.ndarray,
    labels: LabelMatrix,
    priors: np.ndarray,
) -> CandidateSet:
    """Union of one document's neighbors' gold labels, with features.

    ``idx`` and ``sims`` are the document's row of
    ``KnnClassifier.neighbors``: nearest training ordinals and their cosine
    similarities, most similar first.
    """
    f1 = np.zeros(labels.n_labels)
    f2 = np.zeros(labels.n_labels)
    f4 = np.zeros(labels.n_labels)
    Y = labels.Y
    for i, sim in zip(idx, sims):
        for j in Y.indices[Y.indptr[i]:Y.indptr[i + 1]]:
            f1[j] += sim
            f2[j] += 1.0
            f4[j] = max(f4[j], sim)
    chosen = np.flatnonzero(f2)
    features = np.column_stack([f1[chosen], f2[chosen], priors[chosen], f4[chosen]])
    return CandidateSet(labels=[labels.label_ids[j] for j in chosen], features=features)


@dataclass
class RankerModel:
    weights: np.ndarray
    bias: float
    cutoff: int


def ranker_fit(
    candidate_sets: list[CandidateSet],
    gold_sets: list[frozenset[str] | set[str]],
    cutoff: int,
    alpha: float = LINEAR_ALPHA,
    epochs: int = LINEAR_EPOCHS,
    seed: int = 0,
) -> RankerModel:
    """Pointwise logistic ranker: a candidate is relevant iff it is gold.

    Documents with no candidates are skipped.  Trained with the same
    averaged-SGD machinery as the linear models.
    """
    pairs = list(zip(candidate_sets, gold_sets))
    relevance = [label in gold for cs, gold in pairs for label in cs.labels]
    if not relevance:
        raise ValueError("no candidates to train on")
    if not any(relevance):
        raise ValueError("degenerate corpus: no relevant candidates anywhere")
    X = sp.csr_matrix(np.vstack([cs.features for cs, _ in pairs]))
    Y = sp.csr_matrix(np.array(relevance, dtype=np.float64)[:, None])
    W, b = averaged_sgd_train(X, Y, loss="logistic", alpha=alpha, epochs=epochs, seed=seed)
    return RankerModel(weights=W[0], bias=float(b[0]), cutoff=cutoff)


class L2RClassifier:
    """Candidate generation around a kNN index plus the trained ranker."""

    def __init__(
        self,
        k: int = L2R_K,
        alpha: float = LINEAR_ALPHA,
        epochs: int = LINEAR_EPOCHS,
        seed: int = 0,
    ):
        self.k = k
        self.alpha = alpha
        self.epochs = epochs
        self.seed = seed
        # candidate generation's index; its k is unused, neighbors() asks for self.k
        self.knn = KnnClassifier(k=1)
        self.priors: np.ndarray | None = None
        self.model: RankerModel | None = None

    def fit(self, X: sp.csr_matrix, labels: LabelMatrix) -> "L2RClassifier":
        self.knn.fit(X, labels)
        self.priors = labels.priors()
        # leave-one-out: a training document is not its own neighbor
        candidate_sets = self.candidates(X, exclude=np.arange(X.shape[0]))
        gold_sets = [labels.row_set(i) for i in range(X.shape[0])]
        cutoff = max(1, round_half_up(labels.mean_labels_per_doc()))
        self.model = ranker_fit(
            candidate_sets, gold_sets, cutoff, alpha=self.alpha, epochs=self.epochs, seed=self.seed
        )
        return self

    def candidates(self, X: sp.csr_matrix, exclude: np.ndarray | None = None) -> list[CandidateSet]:
        """One candidate set per row from its k nearest training documents
        (k clamped to the training-set size)."""
        idx, sims = self.knn.neighbors(X, k=self.k, exclude=exclude)
        return [
            generate_candidates(i, s, self.knn.labels, self.priors) for i, s in zip(idx, sims)
        ]

    @property
    def label_ids(self) -> tuple[str, ...]:
        return self.knn.label_ids

    def scores(self, X: sp.csr_matrix) -> np.ndarray:
        """(rows, labels) ranker probabilities of each row's candidates, -inf
        elsewhere; each candidate set is scored by its own product."""
        candidate_sets = self.candidates(X)
        column = {cid: j for j, cid in enumerate(self.label_ids)}
        S = np.full((X.shape[0], len(column)), -np.inf)
        for row, cs in zip(S, candidate_sets):
            row[[column[cid] for cid in cs.labels]] = expit(
                cs.features @ self.model.weights - self.model.bias
            )
        return S

    def rank(self, X: sp.csr_matrix) -> list[RankedPrediction]:
        return rank_labels(self.label_ids, self.scores(X))

    def predict(self, X: sp.csr_matrix) -> list[set[str]]:
        return cutoff_decide(self.label_ids, self.scores(X), self.model.cutoff)
