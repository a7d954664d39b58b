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
from .learners.linear import LINEAR_ALPHA
from .multilabel import cutoff_decide, rcut

L2R_K = 45
# the ranker's Newton step cap, and the Newton decrement relative to the
# objective at which fitting stops (also the smallest fraction of a step tried)
RANKER_STEPS = 100
RANKER_TOL = 1e-14


@dataclass
class CandidateSet:
    """Candidate labels of one document with their ranking features.

    ``labels`` are column indices of the training ``LabelMatrix``.  Feature
    columns: summed neighbor similarity, neighbor count, training prior,
    and maximum neighbor similarity.
    """

    labels: list[int]
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
    Y = labels.Y
    starts = Y.indptr[idx]
    lengths = Y.indptr[idx + 1] - starts
    # each neighbor's label columns in stored order, neighbor by neighbor;
    # the ufunc .at forms accumulate in that order, as a loop over them would
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    columns = Y.indices[offsets + np.arange(len(offsets))]
    weights = np.repeat(sims, lengths)
    f1 = np.zeros(labels.n_labels)
    f2 = np.zeros(labels.n_labels)
    f4 = np.zeros(labels.n_labels)
    np.add.at(f1, columns, weights)
    np.add.at(f2, columns, 1.0)
    # + 0.0 turns a -0.0 similarity into 0.0, so the maximum stays +0.0
    # wherever max() would have kept it
    np.maximum.at(f4, columns, weights + 0.0)
    chosen = np.flatnonzero(f2)
    features = np.column_stack([f1[chosen], f2[chosen], priors[chosen], f4[chosen]])
    return CandidateSet(labels=chosen.tolist(), features=features)


def ranker_fit(
    candidate_sets: list[CandidateSet],
    gold_sets: list[frozenset],
    alpha: float = LINEAR_ALPHA,
) -> tuple[np.ndarray, float]:
    """Pointwise logistic ranker: a candidate is relevant iff it is gold.
    Returns the feature weights and bias; a candidate scores
    expit(features @ weights - bias).

    Gold sets hold labels of the same kind as the candidate sets.  Documents
    with no candidates are skipped.  The result minimises
    J = mean log(1 + exp(-y (features @ weights - bias))) + alpha/2 |weights|^2
    over all candidates, y = +1 if relevant else -1, by damped Newton steps
    from zero: each step solves the 5x5 system by least squares, so a
    singular Hessian (a constant feature column, or saturated margins) gives
    the minimum-norm step instead of an error, and is halved until J does
    not rise.  Fitting stops after a full step once the Newton decrement
    (the fall the step's quadratic model predicts, doubled) is at most
    RANKER_TOL of J, once no halving lowers J, or after RANKER_STEPS steps.
    With every candidate relevant J has no minimiser: the bias falls until
    the margins saturate, where the decrement reaches zero.
    """
    pairs = list(zip(candidate_sets, gold_sets))
    relevance = [label in gold for cs, gold in pairs for label in cs.labels]
    if not relevance:
        raise ValueError("no candidates to train on")
    if not any(relevance):
        raise ValueError("degenerate corpus: no relevant candidates anywhere")
    # the bias is a fifth weight on a constant -1 column, and is not regularised
    A = np.column_stack([np.vstack([cs.features for cs, _ in pairs]), -np.ones(len(relevance))])
    y = np.where(relevance, 1.0, -1.0)
    ridge = np.append(np.full(A.shape[1] - 1, alpha), 0.0)

    def objective(theta: np.ndarray) -> float:
        return np.logaddexp(0.0, -y * (A @ theta)).mean() + 0.5 * ridge @ (theta * theta)

    theta = np.zeros(A.shape[1])
    J = objective(theta)
    for _ in range(RANKER_STEPS):
        margins = A @ theta
        p = expit(margins)
        gradient = A.T @ (-y * expit(-y * margins)) / len(y) + ridge * theta
        hessian = (A.T * (p * (1.0 - p))) @ A / len(y) + np.diag(ridge)
        step = np.linalg.lstsq(hessian, -gradient, rcond=None)[0]
        if -gradient @ step <= RANKER_TOL * J:
            # converged: the quadratic model, exact to rounding this close,
            # predicts a fall that J itself could not resolve
            theta = theta + step
            break
        # `not <=` also halves a step whose objective is NaN
        scale = 1.0
        while not (J_trial := objective(theta + scale * step)) <= J and scale > RANKER_TOL:
            scale /= 2.0
        if not J_trial <= J:
            break
        theta, J = theta + scale * step, J_trial
    return theta[:-1], float(theta[-1])


class L2RClassifier:
    """A kNN index of the training documents plus the trained ranker's
    weights; the candidate priors and the rank cutoff are read off the
    index's training labels."""

    def __init__(self, k: int = L2R_K, alpha: float = LINEAR_ALPHA):
        self.alpha = alpha
        self.knn = KnnClassifier(k=k)
        self.weights: np.ndarray | None = None
        self.bias: float | None = None

    def fit(self, X: sp.csr_matrix, labels: LabelMatrix) -> "L2RClassifier":
        self.knn.fit(X, labels)
        # leave-one-out: a training document is not its own neighbor
        candidate_sets = self.candidates(X, exclude=np.arange(X.shape[0]))
        Y = labels.Y
        gold_sets = [frozenset(row.tolist()) for row in np.split(Y.indices, Y.indptr[1:-1])]
        self.weights, self.bias = ranker_fit(candidate_sets, gold_sets, alpha=self.alpha)
        return self

    @property
    def cutoff(self) -> int:
        """Rank cutoff: RCut of the training label counts."""
        return rcut(self.knn.labels.mean_labels_per_doc())

    def candidates(self, X: sp.csr_matrix, exclude: np.ndarray | None = None) -> list[CandidateSet]:
        """One candidate set per row from its k nearest training documents
        (k clamped to the training-set size)."""
        idx, sims = self.knn.neighbors(X, exclude=exclude)
        labels = self.knn.labels
        priors = labels.priors()
        return [generate_candidates(i, s, labels, priors) for i, s in zip(idx, sims)]

    @property
    def label_ids(self) -> tuple[str, ...]:
        return self.knn.label_ids

    def scores(self, X: sp.csr_matrix) -> np.ndarray:
        """(rows, labels) ranker probabilities of each row's candidates, -inf
        elsewhere; each candidate set is scored by its own product."""
        S = np.full((X.shape[0], len(self.label_ids)), -np.inf)
        for row, cs in zip(S, self.candidates(X)):
            row[cs.labels] = expit(cs.features @ self.weights - self.bias)
        return S

    def predict(self, X: sp.csr_matrix) -> list[set[str]]:
        return cutoff_decide(self.label_ids, self.scores(X), self.cutoff)
