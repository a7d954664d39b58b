"""One-hidden-layer perceptron for multi-label decisions.

The network computes sigmoid(W2 f(W1 x + b1) + b2) per label, is trained
on summed per-label binary cross-entropy with inverted dropout on the
hidden layer, and optimized with Adam.  Prediction runs with dropout
disabled; a label is assigned when its probability exceeds the fixed
threshold (strictly).  Training runs in float32; the fitted parameters
are widened to float64, so scoring and model files are float64.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp
from scipy.special import expit

from ..multilabel import rank_labels, threshold_decide
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
# entries of a parameter that one in-place Adam update pass covers; bounds
# the update's scratch to two arrays of this length
ADAM_CHUNK = 32768
# the precision of every training array; fit returns float64 params
TRAIN_DTYPE = np.float32

# hidden activation -> (f(z), f' written in terms of h = f(z)); f' keeps h's
# dtype, so float32 training stays on float32 BLAS products
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda h: (h > 0.0).astype(h.dtype)),
    "tanh": (np.tanh, lambda h: 1.0 - h * h),
}


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


def hidden_layer(params: dict, X: np.ndarray | sp.csr_matrix, activation: str):
    """Hidden activations H = f(W1 x + b1) of every row, and f' as a function of H."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    f, df = ACTIVATIONS[activation]
    return f(X @ params["W1"].T + params["b1"]), df


def forward_scores(params: dict, X: np.ndarray | sp.csr_matrix, activation: str) -> np.ndarray:
    """Per-label probabilities with dropout disabled (prediction path).

    The output layer is an einsum rather than a BLAS product: BLAS picks
    its kernel by the number of rows, which would make a document's scores
    depend on the block it is scored in.
    """
    H, _ = hidden_layer(params, X, activation)
    return expit(np.einsum("ij,kj->ik", H, params["W2"]) + params["b2"])


def loss_and_grads(
    params: dict,
    X: np.ndarray,
    T: np.ndarray,
    activation: str = "relu",
    dropout_mask: np.ndarray | None = None,
    grads: dict | None = None,
) -> tuple[float, dict]:
    """Mean-over-batch of label-summed binary cross-entropy, with gradients.

    When a dropout mask is given the hidden activations are masked and
    rescaled by 1/(1-MLP_DROPOUT); the gradient flows through the same mask.
    The gradients are written into ``grads``, one array per parameter, and
    into newly allocated arrays when it is None; both give the same bits.
    """
    H, df = hidden_layer(params, X, activation)
    dH = df(H)
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
    if grads is None:
        grads = dict.fromkeys(params)
    grads["W2"] = np.matmul(Gy.T, Hd, out=grads["W2"])
    grads["b2"] = np.sum(Gy, axis=0, out=grads["b2"])
    Gh = Gy @ params["W2"]
    if dropout_mask is not None:
        Gh = Gh * keep
    Gz = Gh * dH
    grads["W1"] = np.matmul(Gz.T, X, out=grads["W1"])
    grads["b1"] = np.sum(Gz, axis=0, out=grads["b1"])
    return loss, grads


def adam_step(
    p: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    g: np.ndarray,
    c1: float,
    c2: float,
    scratch: tuple[np.ndarray, np.ndarray],
) -> None:
    """One Adam update of parameter ``p`` from gradient ``g``, in place.

    ``c1`` and ``c2`` are the bias corrections 1 - beta**step.  Each entry
    gets exactly m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (lr*(m/c1)) / (sqrt(v/c2) + eps), so the result does not depend on
    ADAM_CHUNK.  ``p``, ``m``, ``v`` and ``g`` must be C-contiguous: the
    update runs over flat views of them, ADAM_CHUNK entries at a time,
    through the two ``scratch`` arrays of at least ADAM_CHUNK entries.
    """
    p, m, v, g = (a.reshape(-1) for a in (p, m, v, g))
    for lo in range(0, p.size, ADAM_CHUNK):
        chunk = slice(lo, lo + ADAM_CHUNK)
        pc, mc, vc, gc = p[chunk], m[chunk], v[chunk], g[chunk]
        t, u = (s[:pc.size] for s in scratch)
        mc *= ADAM_BETA1
        np.multiply(gc, 1.0 - ADAM_BETA1, out=t)
        mc += t
        vc *= ADAM_BETA2
        np.multiply(gc, 1.0 - ADAM_BETA2, out=t)
        t *= gc
        vc += t
        np.divide(vc, c2, out=u)
        np.sqrt(u, out=u)
        u += ADAM_EPS
        np.divide(mc, c1, out=t)
        t *= MLP_LEARNING_RATE
        t /= u
        pc -= t


class MlpClassifier:
    def __init__(
        self,
        hidden: int = MLP_HIDDEN,
        activation: str = "relu",
        epochs: int = MLP_EPOCHS,
        threshold: float = MLP_THRESHOLD,
        seed: int = 0,
    ):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.hidden = hidden
        self.activation = activation
        self.epochs = epochs
        self.threshold = threshold
        self.seed = seed
        self.label_ids: tuple[str, ...] = ()
        self.params: dict | None = None
        self.epoch_losses: list[float] = []

    def fit(self, X: sp.csr_matrix, labels: LabelMatrix) -> "MlpClassifier":
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        n_docs, n_features = X.shape

        rng = np.random.default_rng(self.seed)
        # training runs in TRAIN_DTYPE from the float64 draws of init_params;
        # params, moments, gradients and scratch are allocated once per fit,
        # C-contiguous: adam_step updates flat views of them in place
        params = {
            k: v.astype(TRAIN_DTYPE)
            for k, v in init_params(n_features, self.hidden, labels.n_labels, rng).items()
        }
        moments = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.items()}
        grads = {k: np.empty_like(v) for k, v in params.items()}
        scratch = (np.empty(ADAM_CHUNK, TRAIN_DTYPE), np.empty(ADAM_CHUNK, TRAIN_DTYPE))
        X, Y = X.astype(TRAIN_DTYPE), labels.Y.astype(TRAIN_DTYPE)
        step = 0
        self.epoch_losses = []
        for epoch in range(self.epochs):
            order = rng.permutation(n_docs)
            epoch_loss = 0.0
            n_batches = 0
            for lo in range(0, n_docs, MLP_BATCH):
                batch_idx = order[lo:lo + MLP_BATCH]
                Xb = X[batch_idx].toarray()
                Tb = Y[batch_idx].toarray()
                # drawn in float64: rng.random(dtype=float32) would take other draws
                keep = rng.random((len(batch_idx), self.hidden)) >= MLP_DROPOUT
                mask = keep.astype(TRAIN_DTYPE)
                loss, _ = loss_and_grads(params, Xb, Tb, self.activation, mask, grads)
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch {n_batches}; "
                        "consider the tanh activation"
                    )
                step += 1
                c1 = 1.0 - ADAM_BETA1 ** step
                c2 = 1.0 - ADAM_BETA2 ** step
                for key, grad in grads.items():
                    adam_step(params[key], *moments[key], grad, c1, c2, scratch)
                epoch_loss += loss
                n_batches += 1
            self.epoch_losses.append(epoch_loss / max(1, n_batches))
        # freed first, so the float64 copy of each parameter fits in their room;
        # the widening is exact, and scoring and the model file stay float64
        del moments, grads, scratch
        self.params = {k: params.pop(k).astype(np.float64) for k in list(params)}
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
        return threshold_decide(self.label_ids, self.scores(X), self.threshold)

    def rank(self, X: sp.csr_matrix) -> np.ndarray:
        return rank_labels(self.label_ids, self.scores(X))
