import math

import numpy as np
import pytest
from scipy import sparse as sp

from semannot.learners import KnnClassifier, LabelMatrix
from semannot.multilabel import round_half_up
from semannot.ranking import (
    CandidateSet,
    L2RClassifier,
    RankerModel,
    generate_candidates,
    rank_and_cut,
    rank_candidates,
    ranker_fit,
)
from semannot.sparse import vstack


def sv(entries, dim):
    """One document as a 1-row CSR matrix."""
    return vstack([entries], dim)


def stack(rows):
    return sp.vstack(rows, format="csr")


def labels_of(gold):
    return LabelMatrix.from_gold([frozenset(g) for g in gold])


def fit_knn(X, gold):
    labels = labels_of(gold)
    return KnnClassifier(k=1).fit(stack(X), labels), labels


def candidates_for(q, knn, priors, k, exclude=None):
    """Candidate set of one query row from its k nearest neighbors."""
    (idx,), (sims,) = knn.neighbors(
        q, k=k, exclude=None if exclude is None else np.array([exclude])
    )
    return generate_candidates(idx, sims, knn.labels, priors)


class TestGenerateCandidates:
    def test_k1_candidates_are_nearest_neighbor_labels(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        knn, labels = fit_knn(X, [{"a", "b"}, {"c"}])
        cs = candidates_for(sv({0: 2.0}, 2), knn, labels.priors(), k=1)
        assert set(cs.labels) == {"a", "b"}
        for fvec in cs.features:
            assert fvec[1] == 1.0  # neighbor count

    def test_hand_computed_features_three_neighbors(self):
        # cosines to the query [1,0,0]: 0.9, 0.5, 0.0
        X = [
            sv({0: 0.9, 1: math.sqrt(1 - 0.81)}, 3),
            sv({0: 0.5, 2: math.sqrt(1 - 0.25)}, 3),
            sv({1: 1.0}, 3),
        ]
        knn, labels = fit_knn(X, [{"c"}, {"c"}, {"d"}])
        cs = candidates_for(sv({0: 1.0}, 3), knn, labels.priors(), k=3)
        features = dict(zip(cs.labels, cs.features))
        f1, f2, f3, f4 = features["c"]
        assert f1 == pytest.approx(1.4, abs=1e-12)
        assert f2 == 2.0
        assert f3 == pytest.approx(2.0 / 3.0)
        assert f4 == pytest.approx(0.9, abs=1e-12)

    def test_orthogonal_query_still_yields_candidates(self):
        X = [sv({0: 1.0}, 3), sv({1: 1.0}, 3)]
        knn, labels = fit_knn(X, [{"a"}, {"b"}])
        cs = candidates_for(sv({2: 1.0}, 3), knn, labels.priors(), k=2)
        assert set(cs.labels) == {"a", "b"}
        assert np.all(cs.features[:, 0] == 0.0)  # all similarities zero

    def test_k_clamped_to_training_size(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        knn, labels = fit_knn(X, [{"a"}, {"b"}])
        cs = candidates_for(sv({0: 1.0}, 2), knn, labels.priors(), k=45)
        assert set(cs.labels) == {"a", "b"}

    def test_exclude_self_removes_one_neighbor(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        knn, labels = fit_knn(X, [{"a"}, {"b"}])
        cs = candidates_for(sv({0: 1.0}, 2), knn, labels.priors(), k=2, exclude=0)
        assert set(cs.labels) == {"b"}

    def test_features_invariant_under_training_permutation(self):
        rng = np.random.default_rng(4)
        dim = 5
        X = [
            sv({int(j): float(rng.integers(1, 4)) for j in rng.choice(dim, 2, replace=False)}, dim)
            for _ in range(8)
        ]
        gold = [{f"l{int(rng.integers(0, 3))}"} for _ in range(8)]
        q = sv({int(i): float(rng.random() + 0.1) for i in range(dim)}, dim)
        knn_a, labels_a = fit_knn(X, gold)
        perm = list(rng.permutation(8))
        knn_b, labels_b = fit_knn([X[i] for i in perm], [gold[i] for i in perm])
        cs_a = candidates_for(q, knn_a, labels_a.priors(), k=8)
        cs_b = candidates_for(q, knn_b, labels_b.priors(), k=8)
        assert cs_a.labels == cs_b.labels
        assert np.allclose(cs_a.features, cs_b.features, atol=1e-12)


class TestRankerFit:
    def test_informative_feature_orders_relevants_first(self):
        rng = np.random.default_rng(1)
        candidate_sets = []
        gold_sets = []
        for d in range(30):
            labels = [f"l{j}" for j in range(4)]
            relevant = {labels[int(rng.integers(0, 4))]}
            features = []
            for lab in labels:
                f1 = 2.0 + rng.random() if lab in relevant else 0.2 * rng.random()
                features.append([f1, 1.0, 0.25, f1 / 2.0])
            candidate_sets.append(
                CandidateSet(doc_id=f"d{d}", labels=labels, features=np.array(features))
            )
            gold_sets.append(relevant)
        model = ranker_fit(candidate_sets, gold_sets, cutoff=1, epochs=10, seed=0)
        correct = 0
        for cs, gold in zip(candidate_sets, gold_sets):
            top = rank_candidates(model, cs)[0][0]
            correct += top in gold
        assert correct == len(candidate_sets)

    def test_constant_features_degenerate_to_prior_ordering(self):
        rng = np.random.default_rng(2)
        priors = {"l0": 0.9, "l1": 0.5, "l2": 0.1}
        candidate_sets = []
        gold_sets = []
        for d in range(60):
            labels = list(priors)
            features = [[1.0, 1.0, priors[lab], 1.0] for lab in labels]
            relevant = {lab for lab in labels if rng.random() < priors[lab]}
            candidate_sets.append(
                CandidateSet(doc_id=f"d{d}", labels=labels, features=np.array(features))
            )
            gold_sets.append(relevant or {"l0"})
        model = ranker_fit(candidate_sets, gold_sets, cutoff=1, epochs=10, seed=0)
        ranking = rank_candidates(model, candidate_sets[0])
        assert [cid for cid, _, _ in ranking] == ["l0", "l1", "l2"]

    def test_empty_candidate_sets_skipped(self):
        empty = CandidateSet(doc_id="e", labels=[], features=np.empty((0, 4)))
        full = CandidateSet(
            doc_id="f", labels=["a", "b"], features=np.array([[1.0, 1, 0.5, 1], [0.0, 1, 0.5, 0]])
        )
        model = ranker_fit([empty, full], [set(), {"a"}], cutoff=1, epochs=3)
        assert model.cutoff == 1

    def test_no_relevant_candidates_error(self):
        cs = CandidateSet(doc_id="d", labels=["a"], features=np.array([[1.0, 1, 0.5, 1]]))
        with pytest.raises(ValueError, match="degenerate"):
            ranker_fit([cs], [{"other"}], cutoff=1)


class TestRankAndCut:
    def make_candidates(self, n):
        labels = [f"l{j}" for j in range(n)]
        features = np.array([[float(n - j), 1.0, 0.5, 1.0] for j in range(n)])
        return CandidateSet(doc_id="d", labels=labels, features=features)

    def test_cutoff_three_of_five(self):
        model = RankerModel(weights=np.array([1.0, 0, 0, 0]), bias=0.0, cutoff=3)
        assert rank_and_cut(model, self.make_candidates(5)) == {"l0", "l1", "l2"}

    def test_fewer_candidates_than_cutoff(self):
        model = RankerModel(weights=np.array([1.0, 0, 0, 0]), bias=0.0, cutoff=3)
        assert rank_and_cut(model, self.make_candidates(2)) == {"l0", "l1"}

    def test_cutoff_rounding_half_up(self):
        assert round_half_up(5.26) == 5
        assert round_half_up(2.5) == 3
        assert round_half_up(2.49) == 2


class TestL2RClassifier:
    def make_corpus(self, seed=0, n=40, n_labels=5, dim=12):
        rng = np.random.default_rng(seed)
        X, gold = [], []
        for i in range(n):
            lab = int(rng.integers(0, n_labels))
            entries = {lab: 3.0}
            for j in rng.choice(np.arange(n_labels, dim), 2, replace=False):
                entries[int(j)] = float(rng.integers(1, 3))
            X.append(sv(entries, dim))
            gold.append({f"l{lab}"})
        return X, gold

    def test_cutoff_and_containment_invariants(self):
        X, gold = self.make_corpus()
        clf = L2RClassifier(k=5, epochs=5, seed=0).fit(stack(X), labels_of(gold))
        for candidates, predicted in zip(clf.candidates(stack(X)), clf.predict(stack(X))):
            neighborhood_gold = set(candidates.labels)
            assert len(predicted) <= clf.model.cutoff
            if len(candidates.labels) >= clf.model.cutoff:
                assert len(predicted) == clf.model.cutoff
            assert predicted <= neighborhood_gold

    def test_learns_signal_on_easy_corpus(self):
        X, gold = self.make_corpus(seed=3)
        clf = L2RClassifier(k=5, epochs=10, seed=1).fit(stack(X), labels_of(gold))
        hits = sum(predicted == set(g) for predicted, g in zip(clf.predict(stack(X)), gold))
        assert hits / len(X) >= 0.8
