"""Decision rules over score blocks, and decision-tree stacking on top of
any ranking classifier.

A classifier scores a block of rows once, as a (rows, L) float64 block over
its label_ids; a rule turns it into one label set per row.  The rules are
Yang's thresholding strategies (SIGIR 2001): fixed thresholds, rank cutoff
(RCut), and stacking, which learns each label's rule from (score, rank).
The rank-based rules read a rank block, rank_labels' (rows, L) companion
of the score block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .sparse import ROW_BLOCK

STACKING_TOP_M = 30
# depth cap of the per-label meta-trees; a stored tree deeper than it is refused
TREE_MAX_DEPTH = 10


def rank_labels(label_ids: Sequence[str], scores: np.ndarray) -> np.ndarray:
    """The (rows, L) int64 rank block of a (rows, L) score block: each label's
    1-based rank in its row, by score descending, ties by id; 0 for a -inf
    score, which marks a label the row does not rank."""
    block = np.asarray(scores, dtype=np.float64)
    # columns in id order, so the stable sort breaks ties (0.0 == -0.0) by id
    by_id = np.array(sorted(range(len(label_ids)), key=label_ids.__getitem__), dtype=np.intp)
    order = by_id[np.argsort(-block[:, by_id], axis=1, kind="stable")]
    # a label's rank is its position in order, the inverse permutation; -inf
    # sorts last, so the labels a row ranks keep ranks 1..n
    return np.where(block > -np.inf, np.argsort(order, axis=1) + 1, 0).astype(np.int64)


def binary_relevance_decide(label_ids: Sequence[str], decisions: np.ndarray) -> list[set[str]]:
    """Per row of a boolean (rows, L) block, the labels voted positive."""
    block = np.asarray(decisions, dtype=bool)
    if block.ndim != 2 or block.shape[1] != len(label_ids):
        raise ValueError("one decision per label required")
    return [{label_ids[j] for j in np.flatnonzero(row)} for row in block]


def threshold_decide(label_ids: Sequence[str], scores: np.ndarray, theta: float) -> list[set[str]]:
    """Per row of a (rows, L) score block, the labels scoring strictly above theta."""
    return binary_relevance_decide(label_ids, np.asarray(scores) > theta)


def cutoff_decide(label_ids: Sequence[str], scores: np.ndarray, cutoff: int) -> list[set[str]]:
    """Per row of a (rows, L) score block, the labels rank_labels ranks within the cutoff."""
    ranks = rank_labels(label_ids, scores)
    return binary_relevance_decide(label_ids, (ranks >= 1) & (ranks <= cutoff))


def rcut(mean_labels: float) -> int:
    """RCut: the mean label count per document rounded half up, at least 1."""
    return max(1, int(math.floor(mean_labels + 0.5)))


# --- CART decision trees on (score, rank) meta-features ------------------


def _gini(p: float | np.ndarray) -> float | np.ndarray:
    """Gini impurity of a node whose positive share is p (a float or an array)."""
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


class DecisionTree:
    """Binary CART classifier with Gini impurity splitting.

    Construction is deterministic: the best split is found by an exact scan
    over the sorted unique values of each feature, ties broken by lowest
    (feature index, threshold).  Leaves predict the majority class, ties
    predicting 0.
    """

    def __init__(self, root: dict | None = None):
        self.root = root  # the fitted node tree

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.root = self._build(X, y, depth=0)
        return self

    def _leaf(self, y: np.ndarray) -> dict:
        n_pos = int(y.sum())
        return {"leaf": True, "value": int(n_pos > len(y) - n_pos)}

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> dict:
        n = len(y)
        n_pos = int(y.sum())
        if depth >= TREE_MAX_DEPTH or n_pos in (0, n):
            return self._leaf(y)
        split = self._best_split(X, y)
        if split is None:
            return self._leaf(y)
        feature, threshold = split
        mask = X[:, feature] <= threshold
        return {
            "leaf": False,
            "feature": feature,
            "threshold": threshold,
            "left": self._build(X[mask], y[mask], depth + 1),
            "right": self._build(X[~mask], y[~mask], depth + 1),
        }

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
        n, n_pos = len(y), float(y.sum())
        best_impurity = _gini(n_pos / n)
        best: tuple[int, float] | None = None
        for feature in range(X.shape[1]):
            col = X[:, feature]
            order = np.argsort(col, kind="stable")
            sorted_col = col[order]
            sorted_y = y[order]
            boundaries = np.nonzero(sorted_col[:-1] != sorted_col[1:])[0]
            if len(boundaries) == 0:
                continue
            cum_pos = np.cumsum(sorted_y)
            n_left = (boundaries + 1).astype(np.float64)
            n_right = n - n_left
            pos_left = cum_pos[boundaries].astype(np.float64)
            left = n_left * _gini(pos_left / n_left)
            weighted = (left + n_right * _gini((n_pos - pos_left) / n_right)) / n
            at = int(np.argmin(weighted))
            if weighted[at] < best_impurity:
                best_impurity = float(weighted[at])
                best = (feature, float(sorted_col[boundaries[at]]))
        return best

    def predict(self, meta: np.ndarray) -> np.ndarray:
        """The 0/1 verdicts, as bools, for the rows of an (n, 2) (score, rank)
        block: the row indices are partitioned down the nodes, a row going
        left where its feature is <= the node's threshold."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        meta = np.asarray(meta, dtype=np.float64)
        verdicts = np.zeros(len(meta), dtype=bool)
        pending = [(self.root, np.arange(len(meta)))]
        while pending:
            node, rows = pending.pop()
            if node["leaf"]:
                verdicts[rows] = node["value"]
            else:
                left = meta[rows, node["feature"]] <= node["threshold"]
                pending += [(node["left"], rows[left]), (node["right"], rows[~left])]
        return verdicts


# --- stacking -------------------------------------------------------------


@dataclass
class StackedModel:
    """Per-label meta-trees over (score, rank) plus the fallback cutoff rule."""

    trees: dict[str, DecisionTree]
    top_m: ClassVar[int] = STACKING_TOP_M
    fallback_cutoff: int = 1
    meta_sample_counts: dict[str, int] = field(default_factory=dict)

    def decide(self, label_ids: Sequence[str], scores: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """The boolean (rows, L) decisions for a score block and its rank
        block: a label ranked within the top-m follows its tree's verdict or,
        without a tree, is assigned iff ranked within the fallback cutoff."""
        top = (ranks >= 1) & (ranks <= self.top_m)
        decided = top & (ranks <= self.fallback_cutoff)
        for j in np.flatnonzero(top.any(axis=0)):
            tree = self.trees.get(label_ids[j])
            if tree is not None:
                rows = np.flatnonzero(top[:, j])
                decided[rows, j] = tree.predict(np.column_stack([scores[rows, j], ranks[rows, j]]))
        return decided


def stacking_train(
    label_ids: Sequence[str], columns: np.ndarray, meta: np.ndarray, gold: np.ndarray,
    fallback_cutoff: int,
) -> StackedModel:
    """Train one meta-tree per label from base rankings of training documents.

    Sample i, in document order, is label_ids[columns[i]] in a top-m base
    ranking, with (score, rank) features meta[i] and gold membership gold[i].
    A label never in a top-m ranking gets no tree; the fallback cutoff decides it.
    """
    if not len(columns) == len(meta) == len(gold):
        raise ValueError("columns, meta-features and gold bits must align")
    # grouped by label, each label's samples still in document order
    bounds = np.cumsum(np.bincount(columns, minlength=len(label_ids)))[:-1]
    groups = np.split(np.argsort(columns, kind="stable"), bounds)
    samples = {label_ids[j]: rows for j, rows in enumerate(groups) if len(rows)}
    trees = {cid: DecisionTree().fit(meta[rows], gold[rows]) for cid, rows in samples.items()}
    counts = {cid: len(rows) for cid, rows in samples.items()}
    return StackedModel(trees=trees, fallback_cutoff=fallback_cutoff, meta_sample_counts=counts)


def stacking_decide(model: StackedModel, ranking: list[tuple[str, float, int]]) -> set[str]:
    """StackedModel.decide for one ranking of (concept_id, score, rank)
    triples, ranks contiguous from 1: the labels it assigns."""
    label_ids = [cid for cid, _, _ in ranking]
    scores = np.array([[score for _, score, _ in ranking]], dtype=np.float64)
    ranks = np.array([[rank for _, _, rank in ranking]], dtype=np.int64)
    return binary_relevance_decide(label_ids, model.decide(label_ids, scores, ranks))[0]


class StackedClassifier:
    """Wrap a ranking base classifier with the decision-tree meta-layer.

    The base must expose fit(X, labels), label_ids and scores(X) -> a
    (rows, L) score block.  Meta-training runs on the base's rankings of
    the training documents themselves, scored ROW_BLOCK rows at a time; no
    held-out split is carved out.
    """

    def __init__(self, base):
        self.base = base
        self.model: StackedModel | None = None

    def fit(self, X, labels) -> "StackedClassifier":
        self.base.fit(X, labels)
        label_ids = self.base.label_ids
        samples = []
        for lo in range(0, X.shape[0], ROW_BLOCK):
            S = self.base.scores(X[lo:lo + ROW_BLOCK])
            R = rank_labels(label_ids, S)
            # only the top-m of each ranking reaches the meta-trees
            rows, cols = np.nonzero((R >= 1) & (R <= STACKING_TOP_M))
            gold = labels.Y[lo:lo + ROW_BLOCK].toarray()[rows, cols] > 0
            samples.append((cols, np.column_stack([S[rows, cols], R[rows, cols]]), gold))
        cols, meta, gold = (np.concatenate(parts) for parts in zip(*samples))
        self.model = stacking_train(label_ids, cols, meta, gold, rcut(labels.mean_labels_per_doc()))
        return self

    def predict(self, X) -> list[set[str]]:
        if self.model is None:
            raise RuntimeError("classifier is not fitted")
        label_ids = self.base.label_ids
        S = self.base.scores(X)
        decided = self.model.decide(label_ids, S, rank_labels(label_ids, S))
        return binary_relevance_decide(label_ids, decided)
