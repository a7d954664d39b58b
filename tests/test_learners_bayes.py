import math

import warnings

import numpy as np
import pytest
from scipy import sparse as sp

from oracles import ranked_ids
from semannot.corpus import Concept, Document, Thesaurus
from semannot.learners import LabelMatrix, NaiveBayesClassifier
from semannot.learners.bayes import log_distributions
from semannot.pipeline import RunConfig, fit_pipeline
from semannot.sparse import vstack

ALPHA = 1e-5


def sv(entries, dim):
    """One document as a 1-row CSR matrix."""
    return vstack([entries], dim)


def stack(rows):
    return sp.vstack(rows, format="csr")


def labels_of(gold):
    return LabelMatrix.from_gold([frozenset(g) for g in gold])


def test_single_label_ranks_first():
    X = [sv({0: 2.0}, 2), sv({1: 1.0}, 2)]
    clf = NaiveBayesClassifier("multinomial").fit(stack(X), labels_of([{"only"}, {"only"}]))
    (ranks,) = clf.rank(sv({0: 1.0}, 2))
    assert ranked_ids(clf.label_ids, ranks)[0] == "only"


def test_bernoulli_hand_posterior_four_docs():
    """Feature 0 present in both positives and neither negative.

    Hand computation with alpha = 1e-5, n+ = n- = 2, N = 4:
      prior odds = log((2+a)/(2+a)) = 0
      theta+     = (2+a)/(2+2a),  theta- = a/(2+2a)
      per class, log P(x={f0} | c) = log theta_c  (present) + nothing absent,
      so log-odds = log theta+ - log theta-.
    """
    X = [sv({0: 1.0}, 1), sv({0: 1.0}, 1), sv({}, 1), sv({}, 1)]
    gold = [{"pos"}, {"pos"}, {"neg"}, {"neg"}]
    clf = NaiveBayesClassifier("bernoulli").fit(stack(X), labels_of(gold))

    theta_pos = (2.0 + ALPHA) / (2.0 + 2.0 * ALPHA)
    theta_neg = ALPHA / (2.0 + 2.0 * ALPHA)
    expected = math.log(theta_pos) - math.log(theta_neg)
    got = dict(zip(clf.label_ids, clf.scores(sv({0: 1.0}, 1))[0]))
    assert got["pos"] == pytest.approx(expected, rel=1e-12)
    assert got["pos"] > 0.0
    assert "pos" in clf.predict(sv({0: 1.0}, 1))[0]
    assert "pos" not in clf.predict(sv({}, 1))[0]


def test_multinomial_hand_likelihood_two_docs():
    """One positive doc with counts (2,0), one negative with (0,3).

    theta+ = (counts+ + a) / (2 + 2a); theta- = (counts- + a) / (3 + 2a).
    log-odds(x = one occurrence of feature 0)
        = log prior odds (= 0 here) + log theta+[0] - log theta-[0]
    """
    X = [sv({0: 2.0}, 2), sv({1: 3.0}, 2)]
    clf = NaiveBayesClassifier("multinomial").fit(stack(X), labels_of([{"p"}, {"q"}]))
    theta_p0 = (2.0 + ALPHA) / (2.0 + 2.0 * ALPHA)
    theta_notp0 = ALPHA / (3.0 + 2.0 * ALPHA)
    expected = math.log(theta_p0) - math.log(theta_notp0)
    got = dict(zip(clf.label_ids, clf.scores(sv({0: 1.0}, 2))[0]))
    assert got["p"] == pytest.approx(expected, rel=1e-12)


def test_smoothing_keeps_unseen_features_finite():
    X = [sv({0: 1.0}, 3), sv({1: 1.0}, 3)]
    for variant in ("bernoulli", "multinomial"):
        clf = NaiveBayesClassifier(variant).fit(stack(X), labels_of([{"a"}, {"b"}]))
        scores = clf.scores(sv({2: 4.0}, 3))  # feature never seen in training
        assert np.all(np.isfinite(scores))


def test_multinomial_distributions_sum_to_one():
    rng = np.random.default_rng(12)
    dim = 9
    X = []
    gold = []
    for i in range(15):
        idx = rng.choice(dim, size=rng.integers(1, 5), replace=False)
        X.append(sv({int(j): float(rng.integers(1, 6)) for j in idx}, dim))
        gold.append({f"l{int(g)}" for g in rng.choice(4, size=rng.integers(1, 3), replace=False)})
    labels = labels_of(gold)
    clf = NaiveBayesClassifier("multinomial").fit(stack(X), labels)
    # per-class feature counts: within each label's documents, and outside them
    pos = np.asarray((labels.Y.T @ stack(X)).todense())
    neg = np.asarray(stack(X).sum(axis=0)).ravel()[None, :] - pos
    log_theta_pos, log_theta_neg = log_distributions(pos, ALPHA), log_distributions(neg, ALPHA)
    # fit weighs an occurrence by exactly these distributions
    assert np.array_equal(clf._coef, log_theta_pos - log_theta_neg)
    for log_theta in (log_theta_pos, log_theta_neg):
        sums = np.exp(log_theta).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12, rtol=0.0)


def test_bernoulli_counts_presence_not_multiplicity():
    X = [sv({0: 7.0}, 1), sv({}, 1)]
    clf = NaiveBayesClassifier("bernoulli").fit(stack(X), labels_of([{"a"}, {"b"}]))
    once = clf.scores(sv({0: 1.0}, 1))
    many = clf.scores(sv({0: 9.0}, 1))
    assert np.array_equal(once, many)


def test_multinomial_scales_with_count():
    X = [sv({0: 3.0}, 2), sv({1: 3.0}, 2)]
    clf = NaiveBayesClassifier("multinomial").fit(stack(X), labels_of([{"a"}, {"b"}]))
    low = dict(zip(clf.label_ids, clf.scores(sv({0: 1.0}, 2))[0]))
    high = dict(zip(clf.label_ids, clf.scores(sv({0: 4.0}, 2))[0]))
    assert high["a"] > low["a"]


def test_discriminative_feature_ranks_label_first():
    X = [sv({0: 1.0, 2: 1.0}, 3), sv({1: 1.0, 2: 1.0}, 3)]
    clf = NaiveBayesClassifier("bernoulli").fit(stack(X), labels_of([{"a"}, {"b"}]))
    (ranks,) = clf.rank(sv({1: 1.0}, 3))
    assert ranked_ids(clf.label_ids, ranks)[0] == "b"


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        NaiveBayesClassifier("gaussian")


def test_multinomial_empty_vocabulary_decides_from_priors():
    """Digit-only titles leave no term features; fitting must not take the
    log of an empty distribution's zero mass, and every document gets the
    labels whose prior odds are positive."""
    thesaurus = Thesaurus({"a": Concept("a", "alpha"), "b": Concept("b", "beta")})
    gold = [{"a"}, {"a"}, {"a", "b"}, {"b"}] * 3
    docs = [
        Document(doc_id=f"d{i}", title=str(1000 + i), fulltext=None, gold_labels=frozenset(g))
        for i, g in enumerate(gold)
    ]
    config = RunConfig(classifier="bayes-multinomial", vectorization="tf-idf")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pipeline, _ = fit_pipeline(config, docs, thesaurus)
        predicted = pipeline.predict_document(docs[0])
    assert pipeline.vectorizer.dimension == 0
    clf = pipeline.classifier
    assert np.array_equal(clf._const, np.log(np.array([9, 6]) + ALPHA) - np.log(np.array([3, 6]) + ALPHA))
    assert predicted == {"a"}
