import numpy as np
import pytest

from semannot.learners import LabelMatrix, MlpClassifier, TrainingDiverged
from semannot.learners.mlp import forward_scores, init_params, loss_and_grads
from semannot.sparse import vstack

from oracles import central_difference_grads, gradient_relative_error as relative_error


def labels_of(gold):
    return LabelMatrix.from_gold([frozenset(g) for g in gold])


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_gradient_matches_finite_differences(activation):
    rng = np.random.default_rng(123)
    for _ in range(4):
        params = init_params(5, 4, 3, rng)
        X = rng.normal(size=(6, 5))
        T = (rng.random((6, 3)) < 0.4).astype(np.float64)
        _, analytic = loss_and_grads(params, X, T, activation)
        numeric = central_difference_grads(params, X, T, activation)
        for key in params:
            assert relative_error(analytic[key], numeric[key]) < 1e-4


def test_scores_strictly_inside_unit_interval():
    rng = np.random.default_rng(0)
    params = init_params(4, 3, 5, rng)
    X = rng.normal(size=(10, 4)) * 5.0
    scores = forward_scores(params, X, "relu")
    assert np.all(scores > 0.0)
    assert np.all(scores < 1.0)


def test_prediction_deterministic_and_dropout_free():
    X = vstack([{0: 1.0, 1: 0.5}, {2: 1.0}], 3)
    clf = MlpClassifier(hidden=8, epochs=3, batch_size=2, seed=5).fit(
        X, labels_of([{"a"}, {"b"}])
    )
    first = clf.scores(X[0])
    second = clf.scores(X[0])
    assert np.array_equal(first, second)


def test_fit_deterministic_given_seed():
    X = vstack([{0: 1.0}, {1: 1.0}] * 3, 2)
    gold = [{"a"}, {"b"}] * 3
    one = MlpClassifier(hidden=6, epochs=4, seed=11).fit(X, labels_of(gold))
    two = MlpClassifier(hidden=6, epochs=4, seed=11).fit(X, labels_of(gold))
    for key in one.params:
        assert np.array_equal(one.params[key], two.params[key])


def test_decide_equals_scores_above_threshold():
    rng = np.random.default_rng(21)
    rows = []
    gold = []
    for _ in range(12):
        idx = rng.choice(4, size=2, replace=False)
        rows.append({int(j): 1.0 for j in idx})
        gold.append({f"l{int(rng.integers(0, 3))}"})
    X = vstack(rows, 4)
    clf = MlpClassifier(hidden=5, epochs=3, seed=1).fit(X, labels_of(gold))
    for scores, predicted in zip(clf.scores(X), clf.predict(X)):
        expected = {
            cid for cid, s in zip(clf.label_ids, scores) if s > clf.threshold
        }
        assert predicted == expected


def test_loss_decreases_on_separable_task():
    rng = np.random.default_rng(2)
    rows = []
    gold = []
    for i in range(60):
        lab = int(rng.integers(0, 3))
        rows.append({lab: 1.0, 3 + int(rng.integers(0, 2)): 0.5})
        gold.append({f"l{lab}"})
    X = vstack(rows, 5)
    clf = MlpClassifier(hidden=16, epochs=8, batch_size=16, seed=3).fit(X, labels_of(gold))
    assert clf.epoch_losses[-1] < clf.epoch_losses[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan propagate by design
def test_non_finite_loss_aborts_with_diagnostic():
    X = vstack([{0: 1.0}, {1: 1.0}] * 4, 2)
    gold = [{"a"}, {"b"}] * 4
    clf = MlpClassifier(hidden=4, epochs=3, batch_size=2, learning_rate=1e308, seed=0)
    with pytest.raises(TrainingDiverged, match="epoch"):
        clf.fit(X, labels_of(gold))


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="activation"):
        MlpClassifier(activation="swish")
