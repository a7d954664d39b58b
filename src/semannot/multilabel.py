"""Multi-label adaptation: binary relevance, fixed thresholds, and
decision-tree stacking on top of any ranking classifier.

A ranked prediction is a list of (concept_id, score, rank) triples with
scores non-increasing and ranks contiguous from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .sparse import ROW_BLOCK

RankedPrediction = list[tuple[str, float, int]]

STACKING_TOP_M = 30


def rank_labels(
    label_ids: Sequence[str], scores: np.ndarray
) -> list[RankedPrediction] | RankedPrediction:
    """Sort labels by score descending (ties by id) and assign ranks from 1:
    one RankedPrediction per row of a (rows, L) block, or one for a single
    (L,) row."""
    block = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    # columns in id order, so the stable sort breaks ties (0.0 == -0.0) by id
    by_id = np.array(sorted(range(len(label_ids)), key=label_ids.__getitem__), dtype=np.intp)
    order = by_id[np.argsort(-block[:, by_id], axis=1, kind="stable")]
    rankings = [
        [(label_ids[i], score, pos + 1) for pos, (i, score) in enumerate(zip(row, row_scores))]
        for row, row_scores in zip(order.tolist(), np.take_along_axis(block, order, 1).tolist())
    ]
    return rankings if np.ndim(scores) == 2 else rankings[0]


def binary_relevance_decide(label_ids: Sequence[str], decisions: Sequence[bool]) -> set[str]:
    """Union of the labels whose per-label classifier voted positive."""
    if len(label_ids) != len(decisions):
        raise ValueError("one decision per label required")
    return {cid for cid, yes in zip(label_ids, decisions) if yes}


def threshold_decide(
    label_ids: Sequence[str], scores: Sequence[float], theta: float = 0.2
) -> set[str]:
    """Labels with score strictly above the threshold."""
    return {cid for cid, s in zip(label_ids, scores) if s > theta}


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# --- CART decision trees on (score, rank) meta-features ------------------


def _gini(n_pos: float, n: float) -> float:
    if n == 0:
        return 0.0
    p = n_pos / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


class DecisionTree:
    """Binary CART classifier with Gini impurity splitting.

    Construction is deterministic: the best split is found by an exact scan
    over the sorted unique values of each feature, ties broken by lowest
    (feature index, threshold).  Leaves predict the majority class, ties
    predicting 0.
    """

    def __init__(self, max_depth: int = 10):
        self.max_depth = max_depth
        self.root: dict | None = None

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
        if depth >= self.max_depth or n_pos in (0, n):
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
        n = len(y)
        parent = _gini(float(y.sum()), float(n))
        best_impurity = parent
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
            pos_right = float(y.sum()) - pos_left
            pl = pos_left / n_left
            pr = pos_right / n_right
            gini_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
            gini_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
            weighted = (n_left * gini_left + n_right * gini_right) / n
            at = int(np.argmin(weighted))
            if weighted[at] < best_impurity:
                best_impurity = float(weighted[at])
                best = (feature, float(sorted_col[boundaries[at]]))
        return best

    def predict_one(self, x: Sequence[float]) -> int:
        node = self.root
        if node is None:
            raise RuntimeError("tree is not fitted")
        while not node["leaf"]:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node["value"]

    def to_state(self) -> dict:
        return {"max_depth": self.max_depth, "root": self.root}

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTree":
        tree = cls(max_depth=state["max_depth"])
        tree.root = state["root"]
        return tree


# --- stacking -------------------------------------------------------------


@dataclass
class StackedModel:
    """Per-label meta-trees over (score, rank) plus the fallback cutoff rule."""

    trees: dict[str, DecisionTree]
    top_m: int = STACKING_TOP_M
    fallback_cutoff: int = 1
    meta_sample_counts: dict[str, int] = field(default_factory=dict)


def stacking_train(
    rankings: list[RankedPrediction],
    gold_sets: list[set[str] | frozenset[str]],
    top_m: int = STACKING_TOP_M,
) -> StackedModel:
    """Train one meta-tree per label from base rankings on training documents.

    Each training document contributes one (score, rank) sample for every
    label in its top-m base ranking, labeled with gold membership.  Labels
    that never enter a top-m ranking get no tree; prediction falls back to
    the average-label-count cutoff for them.
    """
    if len(rankings) != len(gold_sets):
        raise ValueError("rankings and gold sets must align")
    samples: dict[str, list[tuple[float, int, int]]] = {}
    for ranking, gold in zip(rankings, gold_sets):
        for cid, score, rank in ranking[:top_m]:
            samples.setdefault(cid, []).append((score, rank, int(cid in gold)))
    trees: dict[str, DecisionTree] = {}
    counts: dict[str, int] = {}
    for cid, rows in samples.items():
        X = np.array([[score, float(rank)] for score, rank, _ in rows], dtype=np.float64)
        y = np.array([target for _, _, target in rows], dtype=np.int64)
        trees[cid] = DecisionTree().fit(X, y)
        counts[cid] = len(rows)
    mean_labels = sum(len(g) for g in gold_sets) / len(gold_sets)
    cutoff = max(1, round_half_up(mean_labels))
    return StackedModel(trees=trees, top_m=top_m, fallback_cutoff=cutoff, meta_sample_counts=counts)


def stacking_decide(model: StackedModel, ranking: RankedPrediction) -> set[str]:
    """Binary decisions for the labels in the top-m of a base ranking.

    A label with a trained tree follows its verdict; a tree-less label is
    assigned iff its base rank is within the fallback cutoff.  Labels
    outside the top-m are never assigned.
    """
    decided: set[str] = set()
    for cid, score, rank in ranking[:model.top_m]:
        tree = model.trees.get(cid)
        if tree is not None:
            if tree.predict_one((score, float(rank))):
                decided.add(cid)
        elif rank <= model.fallback_cutoff:
            decided.add(cid)
    return decided


class StackedClassifier:
    """Wrap a ranking base classifier with the decision-tree meta-layer.

    The base must expose fit(X, labels) and rank(X) -> one RankedPrediction
    per row.  Meta-training runs on the base's rankings of the training
    documents themselves, ranked ROW_BLOCK rows at a time; no held-out split
    is carved out.
    """

    def __init__(self, base, top_m: int = STACKING_TOP_M):
        self.base = base
        self.top_m = top_m
        self.model: StackedModel | None = None

    def fit(self, X, labels) -> "StackedClassifier":
        self.base.fit(X, labels)
        # only the top-m of each ranking reaches the meta-trees
        rankings = [
            ranking[:self.top_m]
            for lo in range(0, X.shape[0], ROW_BLOCK)
            for ranking in self.base.rank(X[lo:lo + ROW_BLOCK])
        ]
        gold_sets = [labels.row_set(i) for i in range(labels.n_docs)]
        self.model = stacking_train(rankings, gold_sets, top_m=self.top_m)
        return self

    def predict(self, X) -> list[set[str]]:
        if self.model is None:
            raise RuntimeError("classifier is not fitted")
        return [stacking_decide(self.model, ranking) for ranking in self.base.rank(X)]
