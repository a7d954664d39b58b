"""One-hidden-layer perceptron for multi-label decisions.

The network computes sigmoid(W2 f(W1 x + b1) + b2) per label, is trained
on summed per-label binary cross-entropy with inverted dropout on the
hidden layer, and optimized with Adam.  Prediction runs with dropout
disabled; a label is assigned when its probability exceeds the fixed
threshold (strictly).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp
from scipy.special import expit

from ..multilabel import RankedPrediction, rank_labels, threshold_decide
from .labels import LabelMatrix

MLP_HIDDEN = 1000
MLP_THRESHOLD = 0.2
MLP_DROPOUT = 0.5
MLP_LEARNING_RATE = 0.01
MLP_EPOCHS = 20
MLP_BATCH = 256
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

ACTIVATIONS = ("relu", "tanh")


class TrainingDiverged(RuntimeError):
    pass


def init_params(n_features: int, hidden: int, n_labels: int, rng: np.random.Generator) -> dict:
    """Glorot-scaled normal init for both layers, zero biases."""
    s1 = np.sqrt(2.0 / (n_features + hidden))
    s2 = np.sqrt(2.0 / (hidden + n_labels))
    return {
        "W1": rng.normal(0.0, s1, size=(hidden, n_features)),
        "b1": np.zeros(hidden, dtype=np.float64),
        "W2": rng.normal(0.0, s2, size=(n_labels, hidden)),
        "b2": np.zeros(n_labels, dtype=np.float64),
    }


def forward_scores(params: dict, X: np.ndarray | sp.csr_matrix, activation: str) -> np.ndarray:
    """Per-label probabilities with dropout disabled (prediction path).

    The output layer is an einsum rather than a BLAS product: BLAS picks
    its kernel by the number of rows, which would make a document's scores
    depend on the block it is scored in.
    """
    Z1 = X @ params["W1"].T + params["b1"]
    H = np.maximum(Z1, 0.0) if activation == "relu" else np.tanh(Z1)
    return expit(np.einsum("ij,kj->ik", H, params["W2"]) + params["b2"])


def loss_and_grads(
    params: dict,
    X: np.ndarray,
    T: np.ndarray,
    activation: str = "relu",
    dropout_mask: np.ndarray | None = None,
) -> tuple[float, dict]:
    """Mean-over-batch of label-summed binary cross-entropy, with gradients.

    When a dropout mask is given the hidden activations are masked and
    rescaled by 1/(1-MLP_DROPOUT); the gradient flows through the same mask.
    """
    Z1 = X @ params["W1"].T + params["b1"]
    if activation == "relu":
        H = np.maximum(Z1, 0.0)
        dH = (Z1 > 0.0).astype(np.float64)
    elif activation == "tanh":
        H = np.tanh(Z1)
        dH = 1.0 - H * H
    else:
        raise ValueError(f"unknown activation {activation!r}")
    if dropout_mask is not None:
        keep = dropout_mask / (1.0 - MLP_DROPOUT)
        Hd = H * keep
    else:
        Hd = H
    Y = Hd @ params["W2"].T + params["b2"]
    batch = X.shape[0]
    # BCE(y, t) = softplus(y) - t*y, summed over labels, averaged over batch
    loss = float((np.logaddexp(0.0, Y) - T * Y).sum() / batch)
    Gy = (expit(Y) - T) / batch
    grads = {
        "W2": Gy.T @ Hd,
        "b2": Gy.sum(axis=0),
    }
    Gh = Gy @ params["W2"]
    if dropout_mask is not None:
        Gh = Gh * keep
    Gz = Gh * dH
    grads["W1"] = Gz.T @ X
    grads["b1"] = Gz.sum(axis=0)
    return loss, grads


class MlpClassifier:
    def __init__(
        self,
        hidden: int = MLP_HIDDEN,
        activation: str = "relu",
        epochs: int = MLP_EPOCHS,
        batch_size: int = MLP_BATCH,
        learning_rate: float = MLP_LEARNING_RATE,
        threshold: float = MLP_THRESHOLD,
        seed: int = 0,
    ):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.hidden = hidden
        self.activation = activation
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.threshold = threshold
        self.seed = seed
        self.label_ids: tuple[str, ...] = ()
        self.params: dict | None = None
        self.epoch_losses: list[float] = []

    def fit(self, X: sp.csr_matrix, labels: LabelMatrix) -> "MlpClassifier":
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        n_docs, n_features = X.shape
        targets = labels.Y.toarray()

        rng = np.random.default_rng(self.seed)
        params = init_params(n_features, self.hidden, labels.n_labels, rng)
        moments = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.items()}
        step = 0
        self.epoch_losses = []
        for epoch in range(self.epochs):
            order = rng.permutation(n_docs)
            epoch_loss = 0.0
            n_batches = 0
            for lo in range(0, n_docs, self.batch_size):
                batch_idx = order[lo:lo + self.batch_size]
                Xb = X[batch_idx].toarray()
                Tb = targets[batch_idx]
                mask = (rng.random((len(batch_idx), self.hidden)) >= MLP_DROPOUT).astype(np.float64)
                loss, grads = loss_and_grads(params, Xb, Tb, self.activation, mask)
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch {n_batches}; "
                        "consider the tanh activation or a lower learning rate"
                    )
                step += 1
                for key, grad in grads.items():
                    m, v = moments[key]
                    m *= ADAM_BETA1
                    m += (1.0 - ADAM_BETA1) * grad
                    v *= ADAM_BETA2
                    v += (1.0 - ADAM_BETA2) * grad * grad
                    m_hat = m / (1.0 - ADAM_BETA1 ** step)
                    v_hat = v / (1.0 - ADAM_BETA2 ** step)
                    params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                epoch_loss += loss
                n_batches += 1
            self.epoch_losses.append(epoch_loss / max(1, n_batches))
        self.params = params
        self.label_ids = labels.label_ids
        return self

    def scores(self, X: sp.csr_matrix) -> np.ndarray:
        """(rows, labels) probabilities."""
        if self.params is None:
            raise RuntimeError("classifier is not fitted")
        if X.shape[1] != self.params["W1"].shape[1]:
            raise ValueError("feature dimension mismatch")
        return forward_scores(self.params, X, self.activation)

    def predict(self, X: sp.csr_matrix) -> list[set[str]]:
        return [threshold_decide(self.label_ids, row, self.threshold) for row in self.scores(X)]

    def rank(self, X: sp.csr_matrix) -> list[RankedPrediction]:
        return rank_labels(self.label_ids, self.scores(X))
