"""Averaged stochastic gradient descent for regularized linear models.

One weight vector per label is trained under binary relevance with the
learning rate schedule eta(t) = 1 / (alpha * (t0 + t)); t0 is set so that
the schedule starts at LINEAR_ETA0.  The weights used at
prediction time are the average of the post-update iterates from the
second epoch onward.

All labels share the same (seeded) presentation order per epoch, so the
per-label problems can be trained as one vectorized pass and the result is
independent of any parallelization across labels.  The L2R ranker's
logistic problem uses the same regularised objective but is solved
exactly, by Newton steps in ``ranking.ranker_fit``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp
from scipy.special import expit

from ..multilabel import rank_labels, threshold_decide
from .labels import LabelMatrix

LINEAR_ALPHA = 1e-7
LINEAR_ETA0 = 1.0
LINEAR_EPOCHS = 10

LOSSES = ("logistic", "hinge")


def _loss_gradient(loss: str, margins: np.ndarray, y_sign: np.ndarray) -> np.ndarray:
    """dJ/dp for J evaluated at margin p with target y in {-1, +1}."""
    if loss == "logistic":
        return -y_sign * expit(-margins * y_sign)
    # hinge: zero outside the margin, so those steps update via
    # regularization only
    return np.where(margins * y_sign < 1.0, -y_sign, 0.0)


def averaged_sgd_train(
    X: sp.csr_matrix,
    Y: sp.csr_matrix,
    loss: str = "logistic",
    alpha: float = LINEAR_ALPHA,
    epochs: int = LINEAR_EPOCHS,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Train all per-label binary models in one pass.

    ``Y`` is the docs x labels 0/1 indicator.  Returns (W, b) where W has
    one averaged weight vector per label (column of Y) and decisions are
    W @ x - b > 0.  With a single epoch there is no averaging window, so
    the final iterate is returned.

    The weight vector is kept as scale * V so the L2 shrink costs O(1) per
    step, and the running average is recovered at each epoch end from
    prefix sums of the scale factors (sum_t w_t = P * V_end - sum_t
    prefix_t * delta_t), which keeps every step O(n_labels * nnz).
    """
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    n_docs, n_features = X.shape
    if Y.shape[0] != n_docs:
        raise ValueError("label rows must align with X")
    n_labels = Y.shape[1]
    positives = np.split(Y.indices, Y.indptr[1:-1])
    t0 = 1.0 / (alpha * LINEAR_ETA0)

    V = np.zeros((n_labels, n_features), dtype=np.float64)
    B = np.zeros(n_labels, dtype=np.float64)
    scale = 1.0
    t = 0

    averaged_sum = np.zeros_like(V)
    b_sum = np.zeros_like(B)
    prefix_delta = np.zeros_like(V)
    n_averaged = 0

    rng = np.random.default_rng(seed)
    y_base = -np.ones(n_labels, dtype=np.float64)
    for epoch in range(epochs):
        averaging = epoch >= 1
        prefix = 0.0
        order = rng.permutation(n_docs)
        for i in order:
            start, end = X.indptr[i], X.indptr[i + 1]
            idx = X.indices[start:end]
            xv = X.data[start:end]
            y_sign = y_base.copy()
            y_sign[positives[i]] = 1.0

            margins = scale * (V[:, idx] @ xv) - B
            grad = _loss_gradient(loss, margins, y_sign)
            eta = 1.0 / (alpha * (t0 + t))
            t += 1
            shrink = 1.0 - eta * alpha
            if shrink <= 0.0:
                raise ValueError(f"alpha must be < 1, got {alpha}: the weights shrank to zero")
            scale *= shrink
            update = (-(eta / scale) * grad)[:, None] * xv[None, :]
            V[:, idx] += update
            B += eta * grad
            if averaging:
                prefix_delta[:, idx] += prefix * update
                prefix += scale
                b_sum += B
                n_averaged += 1
        if averaging and prefix > 0.0:
            averaged_sum += prefix * V - prefix_delta
            prefix_delta.fill(0.0)
        # fold the scale back in once per epoch to keep it well conditioned
        V *= scale
        scale = 1.0

    if n_averaged:
        return averaged_sum / n_averaged, b_sum / n_averaged
    return V, B


class LinearClassifier:
    """Binary-relevance linear model with logistic or hinge loss."""

    def __init__(
        self,
        loss: str = "logistic",
        alpha: float = LINEAR_ALPHA,
        epochs: int = LINEAR_EPOCHS,
        seed: int = 0,
    ):
        if loss not in LOSSES:
            raise ValueError(f"unknown loss {loss!r}")
        self.loss = loss
        self.alpha = alpha
        self.epochs = epochs
        self.seed = seed
        self.label_ids: tuple[str, ...] = ()
        self.W: np.ndarray | None = None
        self.b: np.ndarray | None = None

    def fit(self, X: sp.csr_matrix, labels: LabelMatrix) -> "LinearClassifier":
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        self.W, self.b = averaged_sgd_train(
            X,
            labels.Y,
            loss=self.loss,
            alpha=self.alpha,
            epochs=self.epochs,
            seed=self.seed,
        )
        self.label_ids = labels.label_ids
        return self

    def margins(self, X: sp.csr_matrix) -> np.ndarray:
        """(rows, labels) signed distances W x - b."""
        if self.W is None:
            raise RuntimeError("classifier is not fitted")
        if X.shape[1] != self.W.shape[1]:
            raise ValueError("feature dimension mismatch")
        return X @ self.W.T - self.b

    def predict(self, X: sp.csr_matrix) -> list[set[str]]:
        """Labels on the positive side of their averaged hyperplane, read from
        the margins: expit(m) > 0.5 is not exactly m > 0 in floating point."""
        return threshold_decide(self.label_ids, self.margins(X), 0.0)

    def scores(self, X: sp.csr_matrix) -> np.ndarray:
        margins = self.margins(X)
        return expit(margins) if self.loss == "logistic" else margins

    def rank(self, X: sp.csr_matrix) -> np.ndarray:
        return rank_labels(self.label_ids, self.scores(X))
