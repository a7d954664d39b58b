import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp

from oracles import per_ranking_stacking, ranked_ids, sorted_ranking
from semannot import multilabel
from semannot.learners import LabelMatrix, RocchioClassifier
from semannot.multilabel import (
    STACKING_TOP_M,
    TREE_MAX_DEPTH,
    DecisionTree,
    StackedClassifier,
    StackedModel,
    binary_relevance_decide,
    rank_labels,
    stacking_decide,
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
        (ranks,) = rank_labels(["a", "b", "c"], np.array([[0.1, 0.9, 0.5]]))
        assert ranks.dtype == np.int64
        assert ranks.tolist() == [3, 1, 2]

    def test_ties_break_by_id(self):
        (ranks,) = rank_labels(["z", "a"], np.array([[0.5, 0.5]]))
        assert ranked_ids(["z", "a"], ranks) == ["a", "z"]


class TestDecisionTree:
    def test_perfect_split_on_rank(self):
        # scores uninformative, rank separates perfectly at <= 1
        X = np.array([[0.5, 1], [0.5, 2], [0.5, 1], [0.5, 3], [0.5, 1], [0.5, 2]], dtype=float)
        y = np.array([1, 0, 1, 0, 1, 0])
        tree = DecisionTree().fit(X, y)
        assert tree.root["feature"] == 1
        assert tree.root["threshold"] == 1.0
        assert tree.predict(X).tolist() == y.tolist()

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
        assert tree.predict([[1.0, 1]]).tolist() == [0]

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
            assert tree.predict(X).tolist() == y.tolist()

    def test_state_round_trip(self):
        X = np.array([[0.9, 1], [0.1, 2], [0.4, 3], [0.7, 1]])
        y = np.array([1, 0, 0, 1])
        tree = DecisionTree().fit(X, y)
        clone = DecisionTree(tree.root)
        assert clone.predict(X).tolist() == tree.predict(X).tolist()


def ranking_from(pairs):
    """pairs: list of (cid, score) already sorted by descending score."""
    return [(cid, float(score), i + 1) for i, (cid, score) in enumerate(pairs)]


class FixedScores:
    """A base whose score rows are set in advance: a row of X holds a row
    ordinal, and scores as that row of ``score_rows``."""

    def __init__(self, label_ids, score_rows):
        self.label_ids = label_ids
        self.score_rows = score_rows

    def fit(self, X, labels):
        return self

    def scores(self, X):
        return self.score_rows[X[:, 0]]


def train_on(rankings, gold):
    """The StackedModel that StackedClassifier.fit trains over a base
    scoring document i as rankings[i] does; labels off a ranking score -inf."""
    label_ids = tuple(sorted({cid for ranking in rankings for cid, _, _ in ranking}.union(*gold)))
    score_rows = np.full((len(rankings), len(label_ids)), -np.inf)
    for row, ranking in zip(score_rows, rankings):
        for cid, score, _ in ranking:
            row[label_ids.index(cid)] = score
    for ranks, ranking in zip(rank_labels(label_ids, score_rows), rankings):
        assert ranked_ids(label_ids, ranks) == [cid for cid, _, _ in ranking]
    labels = LabelMatrix.from_rows(label_ids, [[label_ids.index(c) for c in sorted(g)] for g in gold])
    X = np.arange(len(rankings)).reshape(-1, 1)
    return StackedClassifier(FixedScores(label_ids, score_rows)).fit(X, labels).model


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
        model = train_on(rankings, gold)
        x_tree = model.trees["x"]
        assert x_tree.root["feature"] == 1  # splits on rank
        assert x_tree.root["threshold"] == 1.0
        assert stacking_decide(model, rankings[0]) == {"x"}
        assert stacking_decide(model, rankings[3]) == {"y"}

    def test_label_outside_top_m_never_assigned(self):
        long_ranking = ranking_from([(f"l{i:02d}", 1.0 - i * 0.01) for i in range(40)])
        model = train_on([long_ranking], [{"l35"}])
        assert "l35" not in model.trees  # never entered a top-30
        decided = stacking_decide(model, long_ranking)
        assert "l35" not in decided

    def test_treeless_label_falls_back_to_cutoff(self):
        train_ranking = ranking_from([("a", 0.9), ("b", 0.8)])
        model = train_on([train_ranking], [{"a", "b"}])
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
        model = train_on(rankings, gold)
        decided = stacking_decide(model, rankings[0])
        assert "deep" in decided  # fallback cutoff (1) would have rejected rank 25

    def test_all_trees_negative_gives_empty_set(self):
        rankings = [ranking_from([("a", 0.9), ("b", 0.8)]) for _ in range(5)]
        gold = [set({"zzz"}) for _ in range(5)]  # a and b never relevant
        model = train_on(rankings, gold)
        assert stacking_decide(model, rankings[0]) == set()

    def test_containment_in_top_m(self):
        rng = np.random.default_rng(5)
        ids = [f"l{i:02d}" for i in range(50)]
        rankings = []
        gold = []
        for _ in range(30):
            rankings.append(sorted_ranking(ids, rng.random(50)))
            gold.append(set(rng.choice(ids, size=3, replace=False)))
        model = train_on(rankings, gold)
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
    for ranks, predicted in zip(stacked.base.rank(X), stacked.predict(X)):
        ranking = ranked_ids(stacked.base.label_ids, ranks)
        assert len(ranking) == n_labels
        base_top = set(ranking[:STACKING_TOP_M])
        assert predicted <= base_top


def test_stacking_meta_training_ranks_row_blocks(monkeypatch):
    class SpyBase:
        """A Rocchio base that records the rows of every scores call."""

        def __init__(self):
            self.inner = RocchioClassifier()
            self.rows_seen = []

        def fit(self, X, labels):
            self.inner.fit(X, labels)
            self.label_ids = self.inner.label_ids
            return self

        def scores(self, X):
            self.rows_seen.append(X.shape[0])
            return self.inner.scores(X)

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
    monkeypatch.setattr(multilabel, "ROW_BLOCK", n)
    whole_spy = SpyBase()
    whole = StackedClassifier(whole_spy).fit(X, LabelMatrix.from_gold(gold)).model
    assert whole_spy.rows_seen == [n]
    assert {cid: tree.root for cid, tree in stacked.model.trees.items()} == {
        cid: tree.root for cid, tree in whole.trees.items()
    }


# ties, both zeros and -inf (a label L2R does not rank) among the scores
STACK_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -math.inf]), st.floats(allow_nan=False)
)


@st.composite
def meta_trees(draw, depth=0):
    """A stored meta-tree: score thresholds among the drawn scores, rank
    thresholds on both sides of the top-m."""
    if depth == 3 or draw(st.booleans()):
        return {"leaf": True, "value": draw(st.integers(0, 1))}
    feature = draw(st.integers(0, 1))
    if feature == 0:
        threshold = draw(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]))
    else:
        threshold = float(draw(st.integers(1, STACKING_TOP_M + 15)))
    return {
        "leaf": False,
        "feature": feature,
        "threshold": threshold,
        "left": draw(meta_trees(depth + 1)),
        "right": draw(meta_trees(depth + 1)),
    }


@st.composite
def stacked_blocks(draw):
    """A score block with rows longer than the top-m, ids in any order,
    and a model in which some labels have no tree."""
    n_labels = draw(st.integers(1, STACKING_TOP_M + 15))
    label_ids = [f"l{j:02d}" for j in draw(st.permutations(range(n_labels)))]
    n_rows = draw(st.integers(1, 4))
    flat = draw(st.lists(STACK_SCORES, min_size=n_rows * n_labels, max_size=n_rows * n_labels))
    with_tree = draw(st.lists(st.sampled_from(label_ids), unique=True))
    model = StackedModel(
        trees={cid: DecisionTree(draw(meta_trees())) for cid in with_tree},
        fallback_cutoff=draw(st.integers(1, 5)),
    )
    return label_ids, np.array(flat).reshape(n_rows, n_labels), model


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stacked_blocks())
def test_block_stacking_rule_equals_per_ranking_oracle(drawn):
    label_ids, scores, model = drawn
    decided = model.decide(label_ids, scores, rank_labels(label_ids, scores))
    expected = [per_ranking_stacking(model, sorted_ranking(label_ids, row)) for row in scores]
    assert binary_relevance_decide(label_ids, decided) == expected
    # the one-ranking form of the rule agrees too
    assert [stacking_decide(model, sorted_ranking(label_ids, row)) for row in scores] == expected


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: DecisionTree().predict(np.zeros((1, 2))), RuntimeError, "tree is not fitted"),
        (lambda: multilabel.stacking_train(["a"], np.zeros(1), np.zeros((2, 2)), np.ones(1), 1),
         ValueError, "columns, meta-features and gold bits must align"),
        (lambda: StackedClassifier(RocchioClassifier()).predict(sp.csr_matrix((1, 3))),
         RuntimeError, "classifier is not fitted"),
    ],
    ids=["tree-unfitted", "stacking-train-misaligned", "stacked-unfitted"],
)
def test_multilabel_guards_refuse_with_their_message(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == message
