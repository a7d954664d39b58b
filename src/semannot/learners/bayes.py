"""Bernoulli and multinomial Naive Bayes under binary relevance.

Both variants consume raw counts from the pre-weighting stage (the
multinomial generative story needs count-valued features; the Bernoulli
variant binarizes at weight > 0).  Lidstone smoothing with a very small
alpha keeps every likelihood finite.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from ..multilabel import RankedPrediction, binary_relevance_decide, rank_labels
from .labels import LabelMatrix

NB_ALPHA = 1e-5


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
        # multinomial only: fitted per-class log feature distributions
        self.log_theta_pos: np.ndarray | None = None
        self.log_theta_neg: np.ndarray | None = None

    def fit(self, X_counts: sp.csr_matrix, labels: LabelMatrix) -> "NaiveBayesClassifier":
        if X_counts.shape[0] == 0:
            raise ValueError("empty training set")
        alpha = NB_ALPHA
        matrix = self._inputs(X_counts)
        n_docs = matrix.shape[0]
        n_pos = np.asarray(labels.Y.sum(axis=0)).ravel()
        included = n_pos > 0  # labels without a positive training doc are excluded
        self.label_ids = tuple(
            cid for cid, keep in zip(labels.label_ids, included) if keep
        )
        pos = np.asarray((labels.Y.T @ matrix).todense())[included]
        total = np.asarray(matrix.sum(axis=0)).ravel()
        neg = total[None, :] - pos
        n_pos = n_pos[included]
        n_neg = n_docs - n_pos
        log_prior_odds = np.log(n_pos + alpha) - np.log(n_neg + alpha)

        if self.variant == "multinomial":
            n_features = matrix.shape[1]
            z_pos = pos.sum(axis=1) + alpha * n_features
            z_neg = neg.sum(axis=1) + alpha * n_features
            # an empty vocabulary leaves (L, 0) distributions with nothing to
            # normalize, and decisions rest on the prior odds alone
            log_z_pos = np.log(z_pos, out=np.zeros_like(z_pos), where=n_features > 0)
            log_z_neg = np.log(z_neg, out=np.zeros_like(z_neg), where=n_features > 0)
            self.log_theta_pos = np.log(pos + alpha) - log_z_pos[:, None]
            self.log_theta_neg = np.log(neg + alpha) - log_z_neg[:, None]
            self._coef = self.log_theta_pos - self.log_theta_neg
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

    def log_odds(self, X: sp.csr_matrix) -> np.ndarray:
        """(rows, included labels) posterior log-odds."""
        if self._coef is None:
            raise RuntimeError("classifier is not fitted")
        if X.shape[1] != self._coef.shape[1]:
            raise ValueError("feature dimension mismatch")
        return self._const + self._inputs(X) @ self._coef.T

    def predict(self, X: sp.csr_matrix) -> list[set[str]]:
        return [binary_relevance_decide(self.label_ids, row > 0.0) for row in self.log_odds(X)]

    def rank(self, X: sp.csr_matrix) -> list[RankedPrediction]:
        return rank_labels(self.label_ids, self.log_odds(X))
