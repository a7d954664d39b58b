import numpy as np
import pytest
from scipy import sparse as sp

from semannot.learners import LabelMatrix, LinearClassifier
from semannot.learners.linear import LINEAR_ETA0, _loss_gradient, averaged_sgd_train
from semannot.sparse import vstack


def sv(entries, dim):
    """One document as a 1-row CSR matrix."""
    return vstack([entries], dim)


def labels_of(gold):
    return LabelMatrix.from_gold([frozenset(g) for g in gold])


def indicator(rows, n_labels):
    """docs x labels 0/1 CSR matrix with row i set at the indices rows[i]."""
    dense = np.zeros((len(rows), n_labels))
    for i, row in enumerate(rows):
        dense[i, row] = 1.0
    return sp.csr_matrix(dense)


def reference_sgd(X_rows, label_rows, n_labels, loss, alpha, epochs, seed):
    """Plain per-label SGD that records every post-update iterate from the
    second epoch onward; the mean of the recording is the averaging oracle."""
    n_docs = len(X_rows)
    n_features = len(X_rows[0])
    t0 = 1.0 / (alpha * LINEAR_ETA0)
    W_final = np.zeros((n_labels, n_features))
    B_final = np.zeros(n_labels)
    recorded_w = []
    recorded_b = []
    for lab in range(n_labels):
        w = np.zeros(n_features)
        b = 0.0
        t = 0
        rng = np.random.default_rng(seed)  # same stream as the trainer
        w_iterates, b_iterates = [], []
        for epoch in range(epochs):
            order = rng.permutation(n_docs)
            for i in order:
                x = X_rows[i]
                y = 1.0 if lab in label_rows[i] else -1.0
                margin = float(w @ x) - b
                if loss == "logistic":
                    g = -y / (1.0 + np.exp(margin * y))
                else:
                    g = -y if margin * y < 1.0 else 0.0
                eta = 1.0 / (alpha * (t0 + t))
                t += 1
                w = w * (1.0 - eta * alpha) - eta * g * x
                b = b + eta * g
                if epoch >= 1:
                    w_iterates.append(w.copy())
                    b_iterates.append(b)
        W_final[lab] = w
        B_final[lab] = b
        recorded_w.append(w_iterates)
        recorded_b.append(b_iterates)
    if recorded_w[0]:
        W_avg = np.array([np.mean(np.array(ws), axis=0) for ws in recorded_w])
        B_avg = np.array([np.mean(bs) for bs in recorded_b])
        return W_avg, B_avg
    return W_final, B_final


def small_problem(seed=0, n_docs=6, n_features=3, n_labels=2):
    rng = np.random.default_rng(seed)
    dense = np.zeros((n_docs, n_features))
    rows = []
    for d in range(n_docs):
        idx = np.sort(rng.choice(n_features, size=rng.integers(1, n_features + 1), replace=False))
        dense[d, idx] = rng.random(len(idx)) + 0.1
        rows.append(np.sort(rng.choice(n_labels, size=rng.integers(1, n_labels + 1), replace=False)))
    return sp.csr_matrix(dense), rows


@pytest.mark.parametrize("loss", ["logistic", "hinge"])
@pytest.mark.parametrize("epochs", [2, 3, 5])
def test_averaged_weights_match_recorded_iterate_oracle(loss, epochs):
    vectors, rows = small_problem(seed=4)
    dense = list(vectors.toarray())
    # a larger alpha makes the regularization shrink actually matter
    kwargs = dict(loss=loss, alpha=1e-3, epochs=epochs, seed=9)
    W, B = averaged_sgd_train(vectors, indicator(rows, 2), **kwargs)
    W_ref, B_ref = reference_sgd(dense, rows, 2, **kwargs)
    assert np.allclose(W, W_ref, rtol=1e-9, atol=1e-12)
    assert np.allclose(B, B_ref, rtol=1e-9, atol=1e-12)


def test_averaging_oracle_under_strong_regularization():
    # heavy shrink magnifies any error in the lazy-scaling bookkeeping; the
    # shrink 1 - 1/(t0 + t), t0 = 1/(alpha * LINEAR_ETA0), depends on alpha only
    vectors, rows = small_problem(seed=13, n_docs=9, n_labels=3)
    dense = list(vectors.toarray())
    kwargs = dict(loss="hinge", alpha=2e-2, epochs=8, seed=21)
    W, B = averaged_sgd_train(vectors, indicator(rows, 3), **kwargs)
    W_ref, B_ref = reference_sgd(dense, rows, 3, **kwargs)
    assert np.allclose(W, W_ref, rtol=1e-9, atol=1e-12)
    assert np.allclose(B, B_ref, rtol=1e-9, atol=1e-12)


def test_first_step_uses_eta0():
    # from zero weights, logistic gradient at margin 0 is -y/2, so the first
    # update lands at 0.5 * LINEAR_ETA0 * y * x
    X = sv({0: 1.0}, 1)
    W, B = averaged_sgd_train(X, indicator([[0]], 1), loss="logistic", alpha=1e-7, epochs=1, seed=0)
    assert W[0, 0] == pytest.approx(0.5 * LINEAR_ETA0, rel=1e-9)
    assert B[0] == pytest.approx(-0.5 * LINEAR_ETA0, rel=1e-9)


def test_alpha_of_one_is_refused_at_the_first_step():
    # the first step shrinks the weights by 1 - alpha * LINEAR_ETA0, which is 0 here
    X = sv({0: 1.0}, 1)
    with pytest.raises(ValueError) as refused:
        averaged_sgd_train(X, indicator([[0]], 1), alpha=1.0, epochs=1)
    assert str(refused.value) == "alpha must be < 1, got 1.0: the weights shrank to zero"


def test_single_epoch_returns_final_iterate():
    vectors, rows = small_problem(seed=2)
    dense = list(vectors.toarray())
    kwargs = dict(loss="logistic", alpha=1e-4, epochs=1, seed=3)
    W, B = averaged_sgd_train(vectors, indicator(rows, 2), **kwargs)
    W_ref, B_ref = reference_sgd(dense, rows, 2, **kwargs)
    assert np.allclose(W, W_ref, rtol=1e-9, atol=1e-12)
    assert np.allclose(B, B_ref, rtol=1e-9, atol=1e-12)


def test_training_deterministic_bitwise():
    vectors, rows = small_problem(seed=8, n_docs=10)
    a = averaged_sgd_train(vectors, indicator(rows, 2), seed=17)
    b = averaged_sgd_train(vectors, indicator(rows, 2), seed=17)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


@pytest.mark.parametrize("loss", ["logistic", "hinge"])
def test_separable_fixture_reaches_training_f1_one(loss):
    X = vstack([{0: 1.0}] * 10 + [{1: 1.0}] * 10, 2)
    gold = [{"pos"}] * 10 + [{"neg"}] * 10
    clf = LinearClassifier(loss=loss, epochs=10, seed=0).fit(X, labels_of(gold))
    for predicted, g in zip(clf.predict(X), gold):
        assert predicted == g


def test_all_negative_label_never_predicted():
    vectors, rows = small_problem(seed=5, n_docs=12, n_labels=1)
    # two label slots but every document carries only label 0
    W, B = averaged_sgd_train(vectors, indicator(rows, 2), epochs=10, seed=1)
    for margin in vectors @ W[1] - B[1]:
        assert margin <= 0.0


class TestLossGradients:
    def test_hinge_zero_inside_margin(self):
        margins = np.array([1.0, 2.0, -0.5])
        y = np.array([1.0, 1.0, -1.0])
        # p*y: 1.0 (boundary -> no loss term), 2.0, 0.5 (inside -> -y)
        grad = _loss_gradient("hinge", margins, y)
        assert grad[0] == 0.0
        assert grad[1] == 0.0
        assert grad[2] == 1.0

    def test_logistic_matches_formula(self):
        margins = np.array([0.3, -1.2])
        y = np.array([1.0, -1.0])
        expected = -y / (1.0 + np.exp(margins * y))
        assert np.allclose(_loss_gradient("logistic", margins, y), expected, rtol=1e-12)


def test_decision_is_strictly_positive_margin():
    clf = LinearClassifier()
    clf.label_ids = ("a",)
    clf.W = np.array([[1.0, 0.0]])
    clf.b = np.array([1.0])
    assert clf.predict(sv({0: 1.0}, 2)) == [set()]    # margin exactly 0
    assert clf.predict(sv({0: 1.5}, 2)) == [{"a"}]    # margin 0.5


def test_rank_scores_non_increasing():
    vectors, rows = small_problem(seed=6, n_docs=8, n_labels=3)
    gold = [{f"l{j}" for j in row} for row in rows]
    clf = LinearClassifier(epochs=3, seed=2).fit(vectors, labels_of(gold))
    (ranks,) = clf.rank(vectors[0])
    by_rank = np.argsort(ranks)
    scores = clf.scores(vectors[0])[0, by_rank].tolist()
    assert scores == sorted(scores, reverse=True)
    assert ranks[by_rank].tolist() == list(range(1, len(ranks) + 1))


@pytest.mark.parametrize("alpha", [1.0, 2.5])
def test_alpha_of_at_least_one_is_refused_with_its_value(alpha):
    X = sv({0: 1.0}, 1)
    with pytest.raises(ValueError) as refused:
        averaged_sgd_train(X, indicator([[0]], 1), alpha=alpha, epochs=1)
    assert str(refused.value) == f"alpha must be < 1, got {alpha}: the weights shrank to zero"


# inputs of the guard rows below: a row of the fitted width and one wider,
# a fit with no documents and one with two
ROW, WIDER_ROW = sp.csr_matrix((1, 3)), sp.csr_matrix((1, 4))
NO_DOCUMENTS = (sp.csr_matrix((0, 3)), LabelMatrix.from_gold([]))
TWO_DOCUMENTS = (sp.csr_matrix(np.ones((2, 3))), LabelMatrix.from_gold([{"a"}, {"b"}]))
TWO_ROWS = (sp.csr_matrix(np.ones((2, 3))), sp.csr_matrix(np.ones((2, 1))))  # X, Y


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: averaged_sgd_train(*TWO_ROWS, loss="squared"),
         ValueError, "unknown loss 'squared'"),
        (lambda: averaged_sgd_train(*TWO_ROWS, epochs=0), ValueError, "epochs must be >= 1"),
        (lambda: averaged_sgd_train(TWO_ROWS[0], TWO_ROWS[1][:1]),
         ValueError, "label rows must align with X"),
        (lambda: LinearClassifier(loss="squared"), ValueError, "unknown loss 'squared'"),
        (lambda: LinearClassifier().fit(*NO_DOCUMENTS), ValueError, "empty training set"),
        (lambda: LinearClassifier().margins(ROW), RuntimeError, "classifier is not fitted"),
        (lambda: LinearClassifier(epochs=1).fit(*TWO_DOCUMENTS).margins(WIDER_ROW),
         ValueError, "feature dimension mismatch"),
    ],
    ids=[
        "train-unknown-loss", "train-zero-epochs", "train-misaligned-labels",
        "classifier-unknown-loss", "empty-fit", "unfitted", "feature-dimension-mismatch",
    ],
)
def test_linear_guards_refuse_with_their_message(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == message
