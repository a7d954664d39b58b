import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse as sp

from semannot.learners import LabelMatrix, MlpClassifier, TrainingDiverged
from semannot.learners.mlp import (
    ADAM_CHUNK,
    MLP_BATCH,
    forward_scores,
    hidden_layer,
    init_params,
    loss_and_grads,
)
from semannot.sparse import vstack

from oracles import (
    central_difference_grads,
    gradient_relative_error as relative_error,
    reference_mlp_fit,
)


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
    clf = MlpClassifier(hidden=8, epochs=3, seed=5).fit(X, labels_of([{"a"}, {"b"}]))
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
    clf = MlpClassifier(hidden=16, epochs=8, seed=3).fit(X, labels_of(gold))
    assert clf.epoch_losses[-1] < clf.epoch_losses[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan propagate by design
def test_non_finite_loss_aborts_with_diagnostic():
    # inputs near the float64 maximum overflow the summed cross-entropy
    X = vstack([{0: 1e308}, {1: 1e308}] * 4, 2)
    gold = [{"a"}, {"b"}] * 4
    clf = MlpClassifier(hidden=4, epochs=3, seed=0)
    with pytest.raises(TrainingDiverged) as diverged:
        clf.fit(X, labels_of(gold))
    # the advice names only what a caller can change: the learning rate is a constant
    assert str(diverged.value) == "non-finite loss at epoch 0, batch 0; consider the tanh activation"


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="activation"):
        MlpClassifier(activation="swish")
    # the prediction and the training path refuse it too, rather than fall back to one
    params = init_params(3, 2, 2, np.random.default_rng(0))
    X, T = np.ones((1, 3)), np.zeros((1, 2))
    with pytest.raises(ValueError, match="unknown activation 'swish'"):
        forward_scores(params, X, "swish")
    with pytest.raises(ValueError, match="unknown activation 'swish'"):
        loss_and_grads(params, X, T, "swish")


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_float32_inputs_give_float32_loss_and_gradients(activation):
    """A float64 f' would widen the backward pass and move the first-layer
    gradient product off float32 BLAS onto numpy's mixed-type loop."""
    rng = np.random.default_rng(6)
    params = {k: v.astype(np.float32) for k, v in init_params(5, 4, 3, rng).items()}
    X = rng.normal(size=(6, 5)).astype(np.float32)
    T = (rng.random((6, 3)) < 0.4).astype(np.float32)
    mask = (rng.random((6, 4)) >= 0.5).astype(np.float32)
    H, df = hidden_layer(params, X, activation)
    assert H.dtype == df(H).dtype == np.float32
    loss, grads = loss_and_grads(params, X, T, activation, mask)
    # a loss summed in float32 is a float32 value
    assert float(np.float32(loss)) == loss
    assert {key: grad.dtype for key, grad in grads.items()} == dict.fromkeys(params, np.float32)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_derivative_from_activations_equals_derivative_from_inputs(activation):
    """f' read off H = f(Z) equals f' computed from Z, bit for bit."""
    params = init_params(6, 16, 3, np.random.default_rng(4))
    X = np.random.default_rng(5).normal(size=(9, 6))
    X[0] = 0.0  # a row whose pre-activations are exactly the zero biases
    Z = X @ params["W1"].T + params["b1"]
    H, df = hidden_layer(params, X, activation)
    expected = (Z > 0.0).astype(np.float64) if activation == "relu" else 1.0 - np.tanh(Z) ** 2
    assert np.array_equal(df(H), expected)


def random_training_set(n_rows, n_features, n_labels, seed):
    rng = np.random.default_rng(seed)
    X = sp.random(n_rows, n_features, density=0.2, format="csr", random_state=rng)
    sizes = rng.integers(1, min(n_labels, 2) + 1, size=n_rows)
    gold = [{f"l{j}" for j in rng.choice(n_labels, size=k, replace=False)} for k in sizes]
    return X, labels_of(gold)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n_rows=st.integers(1, 2 * MLP_BATCH + 20),
    n_features=st.integers(1, 40),
    hidden=st.integers(1, 16),
    n_labels=st.integers(1, 5),
    activation=st.sampled_from(["relu", "tanh"]),
    epochs=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
# hidden 40 x 900 features: W1 spans more than one Adam chunk and ends in a partial one
@example(
    n_rows=MLP_BATCH + 37, n_features=900, hidden=40, n_labels=3, activation="relu", epochs=3, seed=7
)
@example(
    n_rows=MLP_BATCH + 37, n_features=900, hidden=40, n_labels=4, activation="tanh", epochs=2, seed=8
)
def test_fit_equals_out_of_place_oracle_bitwise(
    n_rows, n_features, hidden, n_labels, activation, epochs, seed
):
    """Training in preallocated buffers with in-place Adam gives the bits
    of the loop that allocates every gradient and update term afresh."""
    assert 40 * 900 > ADAM_CHUNK and 40 * 900 % ADAM_CHUNK
    X, labels = random_training_set(n_rows, n_features, n_labels, seed)
    clf = MlpClassifier(hidden=hidden, activation=activation, epochs=epochs, seed=seed).fit(X, labels)
    params, epoch_losses = reference_mlp_fit(X, labels.Y, hidden, activation, epochs, seed)
    assert list(clf.params) == list(params)
    for key in params:
        assert np.array_equal(clf.params[key], params[key]), key
    assert np.array_equal(clf.epoch_losses, epoch_losses)


def test_training_peak_memory_stays_under_three_first_layers():
    """Float32 params, both Adam moments and one gradient buffer are two
    float64 W1s; the float64 params fit returns are one more, made after the
    moments and gradients are freed.  Float64 training state, W1-sized update
    temporaries, or widening while the training state is alive go past three."""
    hidden, n_features = 256, 4000
    X, labels = random_training_set(64, n_features, 5, seed=3)
    w1_bytes = hidden * n_features * 8
    tracemalloc.start()
    try:
        MlpClassifier(hidden=hidden, epochs=3, seed=0).fit(X, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * w1_bytes, f"training peaked at {peak / w1_bytes:.2f} x W1"
