import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp
from scipy.special import expit

from semannot import ranking
from semannot.learners import KnnClassifier, LabelMatrix
from semannot.multilabel import cutoff_decide, rank_labels, rcut
from semannot.ranking import (
    CandidateSet,
    L2RClassifier,
    generate_candidates,
    ranker_fit,
)
from semannot.sparse import vstack

from oracles import loop_candidates, ranked_ids


def sv(entries, dim):
    """One document as a 1-row CSR matrix."""
    return vstack([entries], dim)


def stack(rows):
    return sp.vstack(rows, format="csr")


def labels_of(gold):
    return LabelMatrix.from_gold([frozenset(g) for g in gold])


def fit_knn(X, gold, k=1):
    labels = labels_of(gold)
    return KnnClassifier(k=k).fit(stack(X), labels), labels


def score_row(model, cs, label_ids):
    """A one-row score block over label_ids laid out as L2RClassifier.scores
    lays it out: the ranker's probabilities on the candidates, -inf on the
    other labels.  ``model`` is ranker_fit's (weights, bias)."""
    weights, bias = model
    row = np.full((1, len(label_ids)), -np.inf)
    row[0, [label_ids.index(cid) for cid in cs.labels]] = expit(cs.features @ weights - bias)
    return row


def candidates_for(q, knn, priors, exclude=None):
    """Candidate set of one query row from the index's k nearest
    neighbors, its label columns read back as label ids."""
    (idx,), (sims,) = knn.neighbors(q, exclude=None if exclude is None else np.array([exclude]))
    cs = generate_candidates(idx, sims, knn.labels, priors)
    return CandidateSet([knn.label_ids[j] for j in cs.labels], cs.features)


class TestGenerateCandidates:
    def test_k1_candidates_are_nearest_neighbor_labels(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        knn, labels = fit_knn(X, [{"a", "b"}, {"c"}])
        cs = candidates_for(sv({0: 2.0}, 2), knn, labels.priors())
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
        knn, labels = fit_knn(X, [{"c"}, {"c"}, {"d"}], k=3)
        cs = candidates_for(sv({0: 1.0}, 3), knn, labels.priors())
        features = dict(zip(cs.labels, cs.features))
        f1, f2, f3, f4 = features["c"]
        assert f1 == pytest.approx(1.4, abs=1e-12)
        assert f2 == 2.0
        assert f3 == pytest.approx(2.0 / 3.0)
        assert f4 == pytest.approx(0.9, abs=1e-12)

    def test_orthogonal_query_still_yields_candidates(self):
        X = [sv({0: 1.0}, 3), sv({1: 1.0}, 3)]
        knn, labels = fit_knn(X, [{"a"}, {"b"}], k=2)
        cs = candidates_for(sv({2: 1.0}, 3), knn, labels.priors())
        assert set(cs.labels) == {"a", "b"}
        assert np.all(cs.features[:, 0] == 0.0)  # all similarities zero

    def test_k_clamped_to_training_size(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        knn, labels = fit_knn(X, [{"a"}, {"b"}], k=45)
        cs = candidates_for(sv({0: 1.0}, 2), knn, labels.priors())
        assert set(cs.labels) == {"a", "b"}

    def test_exclude_self_removes_one_neighbor(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        knn, labels = fit_knn(X, [{"a"}, {"b"}], k=2)
        cs = candidates_for(sv({0: 1.0}, 2), knn, labels.priors(), exclude=0)
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
        knn_a, labels_a = fit_knn(X, gold, k=8)
        perm = list(rng.permutation(8))
        knn_b, labels_b = fit_knn([X[i] for i in perm], [gold[i] for i in perm], k=8)
        cs_a = candidates_for(q, knn_a, labels_a.priors())
        cs_b = candidates_for(q, knn_b, labels_b.priors())
        assert cs_a.labels == cs_b.labels
        assert np.allclose(cs_a.features, cs_b.features, atol=1e-12)


def assert_same_candidates(got, expected):
    assert got.labels == expected.labels
    assert got.features.shape == expected.features.shape
    assert got.features.dtype == expected.features.dtype
    assert got.features.tobytes() == expected.features.tobytes()


# cosine-like similarities: exact zeros of both signs, negatives, repeats
SIMILARITY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, -0.5]),
    st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def neighborhoods(draw):
    """Gold label rows of a training set over few labels (so neighbors
    share labels), and one query's neighbors: k clamped to the training
    size, most similar first as ``KnnClassifier.neighbors`` orders them."""
    n_labels = draw(st.integers(1, 5))
    n_train = draw(st.integers(1, 8))
    gold = draw(
        st.lists(
            st.sets(st.integers(0, n_labels - 1), min_size=1),
            min_size=n_train, max_size=n_train,
        )
    )
    k = min(draw(st.integers(0, 12)), n_train)
    idx = draw(st.permutations(range(n_train)))[:k]
    sims = sorted(draw(st.lists(SIMILARITY, min_size=k, max_size=k)), reverse=True)
    return gold, np.array(idx, dtype=np.int64), np.array(sims, dtype=np.float64)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(neighborhoods())
def test_candidates_equal_neighbor_loop_oracle(neighborhood):
    gold, idx, sims = neighborhood
    labels = labels_of([{f"l{j}" for j in row} for row in gold])
    priors = labels.priors()
    assert_same_candidates(
        generate_candidates(idx, sims, labels, priors), loop_candidates(idx, sims, labels, priors)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_classifier_candidates_equal_neighbor_loop_oracle(seed):
    """Through the kNN index: k above the training size, signed feature
    values (so cosines can be negative) and an all-zero query (cosine 0)."""
    rng = np.random.default_rng(seed)
    X = sp.csr_matrix(rng.normal(size=(9, 4)) * rng.integers(0, 2, size=(9, 4)))
    labels = labels_of([{f"l{j}" for j in rng.choice(4, rng.integers(1, 3))} for _ in range(9)])
    clf = L2RClassifier(k=45)
    clf.knn.fit(X, labels)
    queries = sp.vstack([sp.csr_matrix(rng.normal(size=(5, 4))), sp.csr_matrix((1, 4))], "csr")
    for exclude, rows in ((None, queries), (np.arange(9), X)):
        idx, sims = clf.knn.neighbors(rows, exclude=exclude)
        assert idx.shape[1] == (9 if exclude is None else 8)
        priors = labels.priors()
        expected = [loop_candidates(i, s, labels, priors) for i, s in zip(idx, sims)]
        for got, want in zip(clf.candidates(rows, exclude=exclude), expected):
            assert_same_candidates(got, want)


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
                CandidateSet(labels=labels, features=np.array(features))
            )
            gold_sets.append(relevant)
        model = ranker_fit(candidate_sets, gold_sets)
        correct = 0
        for cs, gold in zip(candidate_sets, gold_sets):
            top = ranked_ids(cs.labels, rank_labels(cs.labels, score_row(model, cs, cs.labels))[0])[0]
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
                CandidateSet(labels=labels, features=np.array(features))
            )
            gold_sets.append(relevant or {"l0"})
        model = ranker_fit(candidate_sets, gold_sets)
        cs = candidate_sets[0]
        (ranks,) = rank_labels(cs.labels, score_row(model, cs, cs.labels))
        assert ranked_ids(cs.labels, ranks) == ["l0", "l1", "l2"]

    def test_empty_candidate_sets_skipped(self):
        empty = CandidateSet(labels=[], features=np.empty((0, 4)))
        full = CandidateSet(
            labels=["a", "b"], features=np.array([[1.0, 1, 0.5, 1], [0.0, 1, 0.5, 0]])
        )
        weights, bias = ranker_fit([empty, full], [set(), {"a"}])
        assert weights.shape == (4,) and np.all(np.isfinite(weights)) and np.isfinite(bias)

    def test_no_relevant_candidates_error(self):
        cs = CandidateSet(labels=["a"], features=np.array([[1.0, 1, 0.5, 1]]))
        with pytest.raises(ValueError, match="degenerate"):
            ranker_fit([cs], [{"other"}])


# Candidate feature rows: summed neighbour similarity, neighbour count, prior
# and maximum similarity, each within the range generate_candidates gives.
CANDIDATE_ROW = st.tuples(
    st.floats(0.0, 45.0, allow_subnormal=False),
    st.integers(1, 45).map(float),
    st.floats(0.0, 1.0, allow_subnormal=False),
    st.floats(0.0, 1.0, allow_subnormal=False),
)


@st.composite
def ranker_problems(draw):
    """(features, relevance, alpha) of one candidate block, drawn as it comes
    or reshaped into one of the blocks that make the Hessian singular or the
    optimum far from zero."""
    F = np.array(draw(st.lists(CANDIDATE_ROW, min_size=1, max_size=30)))
    shape = draw(st.sampled_from(["drawn", "separable", "all relevant", "k = 1", "constant"]))
    if shape == "k = 1":
        F[:, 1] = 1.0  # every neighbour count equals the bias column
    if shape == "constant":
        F[:, draw(st.integers(0, 3))] = draw(st.sampled_from([0.0, 0.5, 3.0]))
    if shape == "separable":
        relevant = F[:, 0] >= np.median(F[:, 0])
    elif shape == "all relevant":
        relevant = np.ones(len(F), dtype=bool)
    else:
        relevant = np.array(draw(st.lists(st.booleans(), min_size=len(F), max_size=len(F))))
        relevant[draw(st.integers(0, len(F) - 1))] = True
    return F, relevant, draw(st.sampled_from([1e-7, 1e-4, 1e-2, 0.5]))


def fit_rows(F, relevant, alpha):
    """ranker_fit with each feature row a document holding one candidate."""
    candidate_sets = [CandidateSet(labels=[0], features=row[None, :]) for row in F]
    return ranker_fit(candidate_sets, [{0} if r else set() for r in relevant], alpha)


def objective_gradient(F, relevant, alpha, weights, bias):
    """Gradient over (weights, bias) of the objective ranker_fit minimises:
    mean log(1 + exp(-y (F @ weights - bias))) + alpha/2 |weights|^2."""
    y = np.where(relevant, 1.0, -1.0)
    dloss = -y * expit(-y * (F @ weights - bias)) / len(y)
    return np.append(F.T @ dloss + alpha * weights, -dloss.sum())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ranker_problems(), st.randoms(use_true_random=False))
def test_ranker_fit_reaches_the_minimum_of_its_objective(problem, rnd):
    F, relevant, alpha = problem
    weights, bias = fit_rows(F, relevant, alpha)
    assert weights.shape == (4,) and np.all(np.isfinite(weights)) and math.isfinite(bias)
    start = np.linalg.norm(objective_gradient(F, relevant, alpha, np.zeros(4), 0.0))
    reached = np.linalg.norm(objective_gradient(F, relevant, alpha, weights, bias))
    assert reached <= 1e-8 * start + 1e-15
    order = list(range(len(F)))
    rnd.shuffle(order)
    theta = np.append(weights, bias)
    permuted = np.append(*fit_rows(F[order], relevant[order], alpha))
    assert np.linalg.norm(permuted - theta) <= 1e-6 * np.linalg.norm(theta) + 1e-12


class TestRankAndCut:
    # two labels outside every candidate set, which score -inf
    LABEL_IDS = [f"l{j}" for j in range(5)] + ["m0", "m1"]

    def rank_and_cut(self, model, cutoff, n):
        labels = [f"l{j}" for j in range(n)]
        features = np.array([[float(n - j), 1.0, 0.5, 1.0] for j in range(n)])
        block = score_row(model, CandidateSet(labels=labels, features=features), self.LABEL_IDS)
        (decided,) = cutoff_decide(self.LABEL_IDS, block, cutoff)
        return decided

    def test_cutoff_three_of_five(self):
        model = (np.array([1.0, 0, 0, 0]), 0.0)
        assert self.rank_and_cut(model, 3, 5) == {"l0", "l1", "l2"}

    def test_fewer_candidates_than_cutoff(self):
        model = (np.array([1.0, 0, 0, 0]), 0.0)
        assert self.rank_and_cut(model, 3, 2) == {"l0", "l1"}

    def test_cutoff_rounding_half_up(self):
        assert rcut(5.26) == 5
        assert rcut(2.5) == 3
        assert rcut(2.49) == 2
        assert rcut(0.4) == 1


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
        clf = L2RClassifier(k=5).fit(stack(X), labels_of(gold))
        for candidates, predicted in zip(clf.candidates(stack(X)), clf.predict(stack(X))):
            neighborhood_gold = {clf.label_ids[j] for j in candidates.labels}
            assert len(predicted) <= clf.cutoff
            if len(candidates.labels) >= clf.cutoff:
                assert len(predicted) == clf.cutoff
            assert predicted <= neighborhood_gold

    def test_ranker_trains_on_label_columns(self, monkeypatch):
        """Candidate sets and gold sets reach ranker_fit as the same label
        columns, so their intersection counts the reachable gold labels."""
        seen = {}
        fit = ranking.ranker_fit

        def spy(candidate_sets, gold_sets, **kwargs):
            seen.update(candidates=candidate_sets, gold=gold_sets)
            return fit(candidate_sets, gold_sets, **kwargs)

        monkeypatch.setattr(ranking, "ranker_fit", spy)
        X, gold = self.make_corpus()
        labels = labels_of(gold)
        L2RClassifier(k=5).fit(stack(X), labels)
        columns = set(range(labels.n_labels))
        assert all(set(cs.labels) <= columns for cs in seen["candidates"])
        assert seen["gold"] == [{labels.label_ids.index(cid) for cid in g} for g in gold]

    def test_learns_signal_on_easy_corpus(self):
        X, gold = self.make_corpus(seed=3)
        clf = L2RClassifier(k=5).fit(stack(X), labels_of(gold))
        hits = sum(predicted == set(g) for predicted, g in zip(clf.predict(stack(X)), gold))
        assert hits / len(X) >= 0.8
