import dataclasses
import json

import numpy as np
import pytest

from semannot.pipeline import CLASSIFIERS, RunConfig, fit_pipeline
from semannot.preprocess import LemmaTable
from semannot.serialize import ModelFormatError, load_pipeline, save_pipeline
from semannot.synthetic import generate_corpus

CORPUS = generate_corpus(n_labels=5, docs_per_label=10, synonyms_per_concept=1, seed=21)


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_round_trip_preserves_decisions(classifier, tmp_path):
    config = RunConfig(
        vectorization="ctf-idf",
        classifier=classifier,
        seed=4,
        epochs=3,
        mlp_hidden=8,
        knn_k=1,
        l2r_k=5,
    )
    pipeline = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    reloaded = load_pipeline(path)
    for doc in CORPUS.documents[::7]:
        assert reloaded.predict_document(doc) == pipeline.predict_document(doc)


def test_weights_round_trip_bitwise(tmp_path):
    config = RunConfig(vectorization="tf-idf", classifier="lr", seed=0, epochs=3)
    pipeline = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    reloaded = load_pipeline(path)
    assert np.array_equal(reloaded.classifier.W, pipeline.classifier.W)
    assert np.array_equal(reloaded.classifier.b, pipeline.classifier.b)
    assert np.array_equal(
        reloaded.vectorizer.term_weighting.idf, pipeline.vectorizer.term_weighting.idf
    )


def test_mlp_parameters_round_trip_bitwise(tmp_path):
    config = RunConfig(
        vectorization="tf-idf", classifier="mlp", seed=2, epochs=2, mlp_hidden=6
    )
    pipeline = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    reloaded = load_pipeline(path)
    for key, value in pipeline.classifier.params.items():
        assert np.array_equal(reloaded.classifier.params[key], value)


def test_lemma_table_travels_with_model(tmp_path):
    table = LemmaTable({"datumz": "datum"})
    config = RunConfig(vectorization="tf-idf", classifier="knn", seed=0)
    pipeline = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus, lemma_table=table)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    assert load_pipeline(path).lemma_table.mapping == {"datumz": "datum"}


def test_unsupported_version_rejected(tmp_path):
    config = RunConfig(vectorization="tf-idf", classifier="knn", seed=0)
    pipeline = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    container = json.loads(path.read_text())
    container["format_version"] = 999
    path.write_text(json.dumps(container))
    with pytest.raises(ModelFormatError, match="version"):
        load_pipeline(path)


def test_container_holds_only_current_keys(tmp_path):
    """A saved model is format version 2, its config holds exactly the
    RunConfig fields, and no retired knob is written."""
    config = RunConfig(vectorization="bm25ct", classifier="lr-dt", seed=0, epochs=2)
    pipeline = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    container = json.loads(path.read_text())
    assert container["format_version"] == 2
    assert list(container["config"]) == [f.name for f in dataclasses.fields(RunConfig)]
    assert not {"k", "b"} & set(container["vectorizer"])
    classifier = container["classifier"]
    assert "eta0" not in classifier["base"]
    assert all("min_leaf" not in tree for tree in classifier["trees"].values())
    config = RunConfig(vectorization="tf-idf", classifier="bayes-bernoulli", seed=0)
    save_pipeline(fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus), path)
    assert "alpha" not in json.loads(path.read_text())["classifier"]
