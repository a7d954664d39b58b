"""Bernoulli and multinomial Naive Bayes under binary relevance.

Both variants consume raw counts from the pre-weighting stage (the
multinomial generative story needs count-valued features; the Bernoulli
variant binarizes at weight > 0).  Lidstone smoothing with a very small
alpha keeps every likelihood finite.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from ..multilabel import rank_labels, threshold_decide
from .labels import LabelMatrix

NB_ALPHA = 1e-5


def log_distributions(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Smoothed log feature distribution of each row of (L, F) per-class
    feature counts, as the multinomial variant fits it.  An empty
    vocabulary leaves (L, 0) distributions with nothing to normalize, and
    decisions rest on the prior odds alone."""
    n_features = counts.shape[1]
    z = counts.sum(axis=1) + alpha * n_features
    log_z = np.log(z, out=np.zeros_like(z), where=n_features > 0)
    return np.log(counts + alpha) - log_z[:, None]


class NaiveBayesClassifier:
    """One-vs-rest Naive Bayes; scores are per-label posterior log-odds."""

    def __init__(self, variant: str = "bernoulli"):
        if variant not in ("bernoulli", "multinomial"):
            raise ValueError(f"unknown Naive Bayes variant {variant!r}")
        self.variant = variant
        self.label_ids: tuple[str, ...] = ()
        # per-label log-odds parameters, precomputed at fit time
        self._const: np.ndarray | None = None   # prior + presence-independent terms
        self._coef: np.ndarray | None = None    # (L, F) added per occurrence/presence

    def fit(self, X_counts: sp.csr_matrix, labels: LabelMatrix) -> "NaiveBayesClassifier":
        if X_counts.shape[0] == 0:
            raise ValueError("empty training set")
        alpha = NB_ALPHA
        matrix = self._inputs(X_counts)
        n_docs = matrix.shape[0]
        # every label of a LabelMatrix (from_gold or take) has a positive row
        self.label_ids = labels.label_ids
        n_pos = np.asarray(labels.Y.sum(axis=0)).ravel()
        pos = np.asarray((labels.Y.T @ matrix).todense())
        total = np.asarray(matrix.sum(axis=0)).ravel()
        neg = total[None, :] - pos
        n_neg = n_docs - n_pos
        log_prior_odds = np.log(n_pos + alpha) - np.log(n_neg + alpha)

        if self.variant == "multinomial":
            self._coef = log_distributions(pos, alpha) - log_distributions(neg, alpha)
            self._const = log_prior_odds
        else:
            theta_pos = (pos + alpha) / (n_pos + 2.0 * alpha)[:, None]
            theta_neg = (neg + alpha) / (n_neg + 2.0 * alpha)[:, None]
            # log-odds of a document splits into a presence-independent base
            # (sum of log(1-theta) over all features) plus a per-presence term
            self._coef = (np.log(theta_pos) - np.log1p(-theta_pos)) - (
                np.log(theta_neg) - np.log1p(-theta_neg)
            )
            base = np.log1p(-theta_pos).sum(axis=1) - np.log1p(-theta_neg).sum(axis=1)
            self._const = log_prior_odds + base
        return self

    def _inputs(self, X: sp.csr_matrix) -> sp.csr_matrix:
        """Counts for the multinomial variant, presence (1.0) for Bernoulli."""
        if self.variant == "multinomial":
            return X
        return sp.csr_matrix((np.ones_like(X.data), X.indices, X.indptr), shape=X.shape)

    def scores(self, X: sp.csr_matrix) -> np.ndarray:
        """(rows, labels) posterior log-odds."""
        if self._coef is None:
            raise RuntimeError("classifier is not fitted")
        if X.shape[1] != self._coef.shape[1]:
            raise ValueError("feature dimension mismatch")
        return self._const + self._inputs(X) @ self._coef.T

    def predict(self, X: sp.csr_matrix) -> list[set[str]]:
        return threshold_decide(self.label_ids, self.scores(X), 0.0)

    def rank(self, X: sp.csr_matrix) -> np.ndarray:
        return rank_labels(self.label_ids, self.scores(X))
