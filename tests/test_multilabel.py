import numpy as np
import pytest

from semannot.learners import LabelMatrix, RocchioClassifier
from semannot.multilabel import (
    STACKING_TOP_M,
    TREE_MAX_DEPTH,
    DecisionTree,
    StackedClassifier,
    binary_relevance_decide,
    rank_labels,
    stacking_decide,
    stacking_train,
    threshold_decide,
)
from semannot.sparse import ROW_BLOCK, vstack


class TestBinaryRelevance:
    def test_votes_become_label_set(self):
        assert binary_relevance_decide(["a", "b", "c"], [[True, False, True]]) == [{"a", "c"}]

    def test_all_negative_is_empty(self):
        assert binary_relevance_decide(["a", "b"], [[False, False]]) == [set()]

    def test_single_label(self):
        assert binary_relevance_decide(["a"], [[True], [False]]) == [{"a"}, set()]

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            binary_relevance_decide(["a"], [[True, False]])


class TestThreshold:
    def test_default_theta(self):
        assert threshold_decide(["a", "b"], [[0.3, 0.1]], 0.2) == [{"a"}]

    def test_theta_zero_keeps_positive_scores(self):
        assert threshold_decide(["a", "b", "c"], [[0.5, 0.0, 0.01]], theta=0.0) == [{"a", "c"}]

    def test_boundary_is_strict(self):
        assert threshold_decide(["a"], [[0.2]], 0.2) == [set()]

    def test_raising_theta_never_adds_labels(self):
        rng = np.random.default_rng(0)
        ids = [f"l{i}" for i in range(10)]
        for _ in range(50):
            scores = rng.random((1, 10))
            low, high = sorted(rng.random(2))
            assert threshold_decide(ids, scores, high)[0] <= threshold_decide(ids, scores, low)[0]


class TestRankLabels:
    def test_sorted_with_contiguous_ranks(self):
        (ranking,) = rank_labels(["a", "b", "c"], np.array([[0.1, 0.9, 0.5]]))
        assert ranking == [("b", 0.9, 1), ("c", 0.5, 2), ("a", 0.1, 3)]

    def test_ties_break_by_id(self):
        (ranking,) = rank_labels(["z", "a"], np.array([[0.5, 0.5]]))
        assert [cid for cid, _, _ in ranking] == ["a", "z"]


class TestDecisionTree:
    def test_perfect_split_on_rank(self):
        # scores uninformative, rank separates perfectly at <= 1
        X = np.array([[0.5, 1], [0.5, 2], [0.5, 1], [0.5, 3], [0.5, 1], [0.5, 2]], dtype=float)
        y = np.array([1, 0, 1, 0, 1, 0])
        tree = DecisionTree().fit(X, y)
        assert tree.root["feature"] == 1
        assert tree.root["threshold"] == 1.0
        for features, target in zip(X, y):
            assert tree.predict_one(features) == target

    def test_pure_split_children_have_zero_impurity(self):
        X = np.array([[0.9, 1], [0.8, 2], [0.1, 3], [0.2, 4]])
        y = np.array([1, 1, 0, 0])
        tree = DecisionTree().fit(X, y)
        assert tree.root["left"]["leaf"] and tree.root["right"]["leaf"]
        assert tree.root["left"]["value"] != tree.root["right"]["value"]

    def test_single_class_gives_constant_tree(self):
        X = np.array([[0.5, 1], [0.6, 2]])
        tree = DecisionTree().fit(X, np.array([1, 1]))
        assert tree.root == {"leaf": True, "value": 1}

    def test_leaf_tie_predicts_negative(self):
        X = np.array([[1.0, 1], [1.0, 1]])
        tree = DecisionTree().fit(X, np.array([0, 1]))  # unsplittable, tied leaf
        assert tree.predict_one([1.0, 1]) == 0

    def test_depth_cap_respected(self):
        # random labels on 200 distinct rows: unbounded, the tree would grow
        # deeper than the cap, so reaching it exactly shows the cap binding
        rng = np.random.default_rng(3)
        X = rng.random((200, 2))
        y = (rng.random(200) < 0.5).astype(int)
        tree = DecisionTree().fit(X, y)

        def depth(node):
            if node["leaf"]:
                return 0
            return 1 + max(depth(node["left"]), depth(node["right"]))

        assert depth(tree.root) == TREE_MAX_DEPTH

    def test_unique_rows_reproduce_training_labels(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            # every split peels off at least one row, so a node at the depth
            # cap holds at most n - TREE_MAX_DEPTH <= 1 row: the cap cuts no path
            n = int(rng.integers(2, TREE_MAX_DEPTH + 2))
            X = rng.permutation(n).reshape(-1, 1).astype(float)
            X = np.hstack([X, rng.random((n, 1))])
            y = (rng.random(n) < 0.5).astype(int)
            tree = DecisionTree().fit(X, y)
            for features, target in zip(X, y):
                assert tree.predict_one(features) == target

    def test_state_round_trip(self):
        X = np.array([[0.9, 1], [0.1, 2], [0.4, 3], [0.7, 1]])
        y = np.array([1, 0, 0, 1])
        tree = DecisionTree().fit(X, y)
        clone = DecisionTree(tree.root)
        for features in X:
            assert clone.predict_one(features) == tree.predict_one(features)


def ranking_from(pairs):
    """pairs: list of (cid, score) already sorted by descending score."""
    return [(cid, float(score), i + 1) for i, (cid, score) in enumerate(pairs)]


class TestStacking:
    def test_rank_one_rule_learned(self):
        # six meta-samples for label x: relevant exactly when ranked first,
        # with scores that do not separate the two cases
        rankings = [
            ranking_from([("x", 0.5), ("y", 0.4)]),
            ranking_from([("x", 0.5), ("y", 0.4)]),
            ranking_from([("x", 0.5), ("y", 0.4)]),
            ranking_from([("y", 0.6), ("x", 0.5)]),
            ranking_from([("y", 0.6), ("x", 0.5)]),
            ranking_from([("y", 0.6), ("x", 0.5)]),
        ]
        gold = [{"x"}, {"x"}, {"x"}, {"y"}, {"y"}, {"y"}]
        model = stacking_train(rankings, gold)
        x_tree = model.trees["x"]
        assert x_tree.root["feature"] == 1  # splits on rank
        assert x_tree.root["threshold"] == 1.0
        assert stacking_decide(model, rankings[0]) == {"x"}
        assert stacking_decide(model, rankings[3]) == {"y"}

    def test_label_outside_top_m_never_assigned(self):
        long_ranking = ranking_from([(f"l{i:02d}", 1.0 - i * 0.01) for i in range(40)])
        model = stacking_train([long_ranking], [{"l35"}])
        assert "l35" not in model.trees  # never entered a top-30
        decided = stacking_decide(model, long_ranking)
        assert "l35" not in decided

    def test_treeless_label_falls_back_to_cutoff(self):
        train_ranking = ranking_from([("a", 0.9), ("b", 0.8)])
        model = stacking_train([train_ranking], [{"a", "b"}])
        # "c" never appeared in training rankings -> no tree -> rank cutoff rule
        test_ranking = ranking_from([("c", 0.9), ("d", 0.1), ("e", 0.05)])
        assert model.fallback_cutoff == 2
        assert stacking_decide(model, test_ranking) == {"c", "d"}

    def test_tree_flips_low_rank_label_positive(self):
        rankings = []
        gold = []
        for i in range(8):
            pairs = [(f"f{j:02d}", 1.0 - 0.02 * j) for j in range(24)]
            pairs.append(("deep", 0.05))  # rank 25, low score, always gold
            rankings.append(ranking_from(pairs))
            gold.append({"deep"})
        model = stacking_train(rankings, gold)
        decided = stacking_decide(model, rankings[0])
        assert "deep" in decided  # fallback cutoff (1) would have rejected rank 25

    def test_all_trees_negative_gives_empty_set(self):
        rankings = [ranking_from([("a", 0.9), ("b", 0.8)]) for _ in range(5)]
        gold = [set({"zzz"}) for _ in range(5)]  # a and b never relevant
        model = stacking_train(rankings, gold)
        assert stacking_decide(model, rankings[0]) == set()

    def test_containment_in_top_m(self):
        rng = np.random.default_rng(5)
        ids = [f"l{i:02d}" for i in range(50)]
        rankings = []
        gold = []
        for _ in range(30):
            rankings.extend(rank_labels(ids, rng.random((1, 50))))
            gold.append(set(rng.choice(ids, size=3, replace=False)))
        model = stacking_train(rankings, gold)
        for ranking in rankings:
            decided = stacking_decide(model, ranking)
            top = {cid for cid, _, _ in ranking[:STACKING_TOP_M]}
            assert decided <= top


def test_stacked_classifier_predictions_within_base_top_m(tiny_corpus, rate_thesaurus):
    rng = np.random.default_rng(9)
    dim, n, n_labels = 6, 120, STACKING_TOP_M + 10
    X = vstack(
        [
            {int(j): float(rng.integers(1, 4)) for j in rng.choice(dim, 2, replace=False)}
            for _ in range(n)
        ],
        dim,
    )
    # every label is gold somewhere, so each ranking runs past the top-m
    gold = [{f"l{i % n_labels}"} for i in range(n)]
    labels = LabelMatrix.from_gold([frozenset(g) for g in gold])
    stacked = StackedClassifier(RocchioClassifier()).fit(X, labels)
    for ranking, predicted in zip(stacked.base.rank(X), stacked.predict(X)):
        assert len(ranking) == n_labels
        base_top = {cid for cid, _, _ in ranking[:STACKING_TOP_M]}
        assert predicted <= base_top


def test_stacking_meta_training_ranks_row_blocks():
    class SpyBase:
        """A Rocchio base that records the rows of every rank call."""

        def __init__(self):
            self.inner = RocchioClassifier()
            self.rows_seen = []

        def fit(self, X, labels):
            self.inner.fit(X, labels)
            return self

        def rank(self, X):
            self.rows_seen.append(X.shape[0])
            return self.inner.rank(X)

    rng = np.random.default_rng(11)
    dim, n = 8, 2 * ROW_BLOCK + 7
    X = vstack(
        [
            {int(j): float(rng.integers(1, 4)) for j in rng.choice(dim, 3, replace=False)}
            for _ in range(n)
        ],
        dim,
    )
    # more labels than the top-m, so the block-wise fit truncates its rankings
    gold = [frozenset({f"l{int(rng.integers(0, STACKING_TOP_M + 10))}"}) for _ in range(n)]
    spy = SpyBase()
    stacked = StackedClassifier(spy).fit(X, LabelMatrix.from_gold(gold))
    assert max(spy.rows_seen) <= ROW_BLOCK
    assert sum(spy.rows_seen) == n
    # the trees are those of one ranking of all training rows
    whole = stacking_train(spy.inner.rank(X), gold)
    assert {cid: tree.root for cid, tree in stacked.model.trees.items()} == {
        cid: tree.root for cid, tree in whole.trees.items()
    }
