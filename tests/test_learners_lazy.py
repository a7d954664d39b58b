import math

import numpy as np
import pytest
from scipy import sparse as sp

from semannot.learners import KnnClassifier, LabelMatrix, RocchioClassifier
from semannot.sparse import vstack


def sv(entries, dim):
    """One document as a 1-row CSR matrix."""
    return vstack([entries], dim)


def stack(rows):
    return sp.vstack(rows, format="csr")


def labels_of(gold):
    return LabelMatrix.from_gold([frozenset(g) for g in gold])


class TestKnn:
    def test_exact_match_copies_label_set(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        clf = KnnClassifier(k=1).fit(stack(X), labels_of([{"a"}, {"b", "c"}]))
        assert clf.predict(sv({1: 2.0}, 2)) == [{"b", "c"}]

    def test_equidistant_tie_breaks_to_earlier_ordinal(self):
        X = [sv({0: 2.0}, 2), sv({0: 5.0}, 2)]  # identical directions
        clf = KnnClassifier(k=1).fit(stack(X), labels_of([{"a"}, {"b"}]))
        assert clf.predict(sv({0: 1.0}, 2)) == [{"a"}]

    def test_zero_query_returns_first_training_doc_labels(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        clf = KnnClassifier(k=1).fit(stack(X), labels_of([{"a"}, {"b"}]))
        assert clf.predict(sv({}, 2)) == [{"a"}]

    def test_empty_training_set_error(self):
        with pytest.raises(ValueError, match="empty"):
            KnnClassifier().fit(vstack([], 2), labels_of([]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        dim = 6
        X = [
            sv({i: float(rng.integers(1, 5)) for i in rng.choice(dim, 3, replace=False)}, dim)
            for _ in range(10)
        ]
        gold = [{f"l{int(rng.integers(0, 4))}"} for _ in range(10)]
        clf = KnnClassifier(k=1).fit(stack(X), labels_of(gold))
        for _ in range(20):
            q = sv({i: float(rng.random() + 0.1) for i in range(dim)}, dim)
            assert clf.predict(q) == clf.predict(q * 3.7)

    def test_prediction_is_some_training_gold_set(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n, dim = int(rng.integers(2, 12)), int(rng.integers(2, 8))
            X = []
            gold = []
            for i in range(n):
                nnz = int(rng.integers(1, dim + 1))
                idx = rng.choice(dim, nnz, replace=False)
                X.append(sv({int(j): float(rng.integers(1, 4)) for j in idx}, dim))
                gold.append({f"l{int(g)}" for g in rng.choice(8, rng.integers(1, 4), replace=False)})
            clf = KnnClassifier(k=1).fit(stack(X), labels_of(gold))
            q = sv({int(i): float(rng.random()) for i in range(dim)}, dim)
            assert clf.predict(q)[0] in [set(g) for g in gold]

    def test_neighbors_ordering_and_k_clamp(self):
        X = [sv({0: 1.0}, 2), sv({0: 1.0, 1: 1.0}, 2), sv({1: 1.0}, 2)]
        clf = KnnClassifier(k=1).fit(stack(X), labels_of([{"a"}, {"b"}, {"c"}]))
        (idx,), (sims,) = clf.neighbors(sv({0: 1.0}, 2), k=10)
        assert list(idx) == [0, 1, 2]
        assert sims[0] == pytest.approx(1.0)
        assert sims[1] == pytest.approx(1.0 / math.sqrt(2.0))
        assert sims[2] == pytest.approx(0.0)

    def test_majority_vote_for_larger_k(self):
        X = [sv({0: 1.0}, 2), sv({0: 2.0}, 2), sv({0: 3.0}, 2)]
        clf = KnnClassifier(k=3).fit(stack(X), labels_of([{"a"}, {"a", "b"}, {"a"}]))
        # "a" in 3/3 neighbors, "b" only in 1/3
        assert clf.predict(sv({0: 1.0}, 2)) == [{"a"}]

    def test_majority_vote_can_be_empty(self):
        X = [sv({0: 1.0}, 2), sv({0: 2.0}, 2)]
        clf = KnnClassifier(k=2).fit(stack(X), labels_of([{"a"}, {"b"}]))
        # each label is in exactly half the neighborhood: no majority
        assert clf.predict(sv({0: 1.0}, 2)) == [set()]

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError, match="k"):
            KnnClassifier(k=0)


class TestRocchio:
    def test_centroid_equal_to_query_ranks_first(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        clf = RocchioClassifier().fit(stack(X), labels_of([{"a"}, {"b"}]))
        (ranking,) = clf.rank(sv({0: 2.0}, 2))
        assert ranking[0][0] == "a"
        assert ranking[0][1] == pytest.approx(1.0)
        assert ranking[0][2] == 1

    def test_orthogonal_centroid_scores_zero(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        clf = RocchioClassifier().fit(stack(X), labels_of([{"a"}, {"b"}]))
        ranking = dict((cid, score) for cid, score, _ in clf.rank(sv({0: 1.0}, 2))[0])
        assert ranking["b"] == pytest.approx(0.0)

    def test_three_label_hand_ordering(self):
        # centroids: A=[1,0], B=[0,1], C=[1,1]; query [2,1]
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2), sv({0: 1.0, 1: 1.0}, 2)]
        clf = RocchioClassifier().fit(stack(X), labels_of([{"A"}, {"B"}, {"C"}]))
        (ranking,) = clf.rank(sv({0: 2.0, 1: 1.0}, 2))
        cos_a = 2.0 / math.sqrt(5.0)
        cos_b = 1.0 / math.sqrt(5.0)
        cos_c = 3.0 / (math.sqrt(2.0) * math.sqrt(5.0))
        assert [cid for cid, _, _ in ranking] == ["C", "A", "B"]
        scores = {cid: score for cid, score, _ in ranking}
        assert scores["A"] == pytest.approx(cos_a)
        assert scores["B"] == pytest.approx(cos_b)
        assert scores["C"] == pytest.approx(cos_c)

    def test_centroid_is_mean_of_label_docs(self):
        # label "a" has two docs; centroid direction is their mean
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2), sv({0: 1.0}, 2)]
        clf = RocchioClassifier().fit(stack(X), labels_of([{"a"}, {"a"}, {"b"}]))
        ranking = {cid: s for cid, s, _ in clf.rank(sv({0: 1.0, 1: 1.0}, 2))[0]}
        # centroid of a = [0.5, 0.5] -> cos to [1,1] is 1.0
        assert ranking["a"] == pytest.approx(1.0)

    def test_scale_invariance(self):
        X = [sv({0: 3.0, 1: 1.0}, 2), sv({1: 2.0}, 2)]
        clf = RocchioClassifier().fit(stack(X), labels_of([{"a"}, {"b"}]))
        q = sv({0: 0.3, 1: 0.9}, 2)
        assert [c for c, _, _ in clf.rank(q)[0]] == [c for c, _, _ in clf.rank(q * 11.0)[0]]
