import pytest

from oracles import reference_build_classifier
from semannot.pipeline import CLASSIFIERS, RunConfig, build_classifier


def described(learner):
    """A learner's type and the attributes its constructor set, with the
    learners it wraps (a stacked ``base``, an L2R ``knn``) described too."""
    return type(learner), {
        name: described(value) if name in ("base", "knn") else value
        for name, value in vars(learner).items()
    }


@pytest.mark.parametrize(
    "epochs, alpha", [(None, None), (3, 0.01)], ids=["learner-defaults", "set"]
)
@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_build_classifier_equals_reference(classifier, epochs, alpha):
    # every knob off its default, so a knob sent to the wrong learner shows
    config = RunConfig(
        classifier=classifier, seed=5, knn_k=7, l2r_k=9, epochs=epochs, alpha=alpha,
        mlp_hidden=12, mlp_threshold=0.4, mlp_activation="tanh",
    )
    assert described(build_classifier(config)) == described(reference_build_classifier(config))


@pytest.mark.parametrize("classifier", ["knn-dt", "rocchio", "svm-dt", "bayes-gaussian", "MLP"])
def test_build_classifier_refuses_unknown_name(classifier):
    with pytest.raises(ValueError, match=f"^unknown classifier '{classifier}'$"):
        build_classifier(RunConfig(classifier=classifier))
