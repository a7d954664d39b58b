import binascii
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ORACLE_TOKENS, naive_longest_match, thesaurus_patterns
from semannot.corpus import Concept, Document, Thesaurus
from semannot.features import VARIANTS, ConceptMatcher, count_corpus
from semannot.multilabel import TREE_MAX_DEPTH
from semannot.pipeline import CLASSIFIERS, RunConfig, fit_pipeline
from semannot.preprocess import LemmaTable, preprocess
from semannot.serialize import ModelFormatError, load_pipeline, save_pipeline
from semannot.synthetic import generate_corpus

CORPUS = generate_corpus(n_labels=5, docs_per_label=10, synonyms_per_concept=1, seed=21)


@pytest.mark.parametrize(
    "classifier, vectorization",
    [
        # ctf-idf cases keep the bare classifier name as their id
        pytest.param(clf, vec, id=clf if vec == "ctf-idf" else f"{clf}-{vec}")
        for clf in CLASSIFIERS
        for vec in VARIANTS
    ],
)
def test_round_trip_preserves_decisions(classifier, vectorization, tmp_path):
    """Every classifier under every vectorization layout (terms only,
    concepts only, both; weighted or raw counts) decides as before saving."""
    config = RunConfig(
        vectorization=vectorization,
        classifier=classifier,
        seed=4,
        epochs=3,
        mlp_hidden=8,
        knn_k=1,
        l2r_k=5,
    )
    pipeline, _ = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    reloaded = load_pipeline(path)
    for doc in CORPUS.documents[::7]:
        assert reloaded.predict_document(doc) == pipeline.predict_document(doc)


def test_weights_round_trip_bitwise(tmp_path):
    config = RunConfig(vectorization="tf-idf", classifier="lr", seed=0, epochs=3)
    pipeline, _ = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    reloaded = load_pipeline(path)
    assert np.array_equal(reloaded.classifier.W, pipeline.classifier.W)
    assert np.array_equal(reloaded.classifier.b, pipeline.classifier.b)
    assert np.array_equal(
        reloaded.vectorizer.term_weighting.idf, pipeline.vectorizer.term_weighting.idf
    )


def test_arrays_decode_with_the_python_3_10_base64_signature(tmp_path, monkeypatch):
    """The loader calls binascii.a2b_base64 as Python 3.10 allows: with the
    data alone (its strict_mode keyword came in 3.11)."""
    config = RunConfig(vectorization="tf-idf", classifier="lr", seed=0, epochs=3)
    pipeline, _ = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    a2b_base64 = binascii.a2b_base64
    monkeypatch.setattr(binascii, "a2b_base64", lambda data, /: a2b_base64(data))
    assert np.array_equal(load_pipeline(path).classifier.W, pipeline.classifier.W)


def test_mlp_parameters_round_trip_bitwise(tmp_path):
    config = RunConfig(
        vectorization="tf-idf", classifier="mlp", seed=2, epochs=2, mlp_hidden=6
    )
    pipeline, _ = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    reloaded = load_pipeline(path)
    stored = json.loads(path.read_text())["classifier"]["params"]
    for key, value in pipeline.classifier.params.items():
        # trained in float32, handed back as float64 by an exact widening
        assert value.dtype == np.float64, key
        assert np.array_equal(value.astype(np.float32).astype(np.float64), value), key
        assert stored[key]["dtype"] == "<f8", key
        assert reloaded.classifier.params[key].dtype == np.float64, key
        assert reloaded.classifier.params[key].tobytes() == value.tobytes(), key


def test_lemma_table_travels_with_model(tmp_path):
    table = LemmaTable({"datumz": "datum"})
    config = RunConfig(vectorization="tf-idf", classifier="knn", seed=0)
    pipeline, _ = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus, lemma_table=table)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    assert load_pipeline(path).lemma_table.mapping == {"datumz": "datum"}


def test_cf_idf_round_trip_rebuilds_matcher_with_stored_lemma_table(tmp_path):
    """Load builds the matcher from the stored thesaurus and lemma table: the
    reloaded pipeline counts concepts and decides as the original does, and
    a matcher built without the table counts differently."""
    # maps the preferred label of C0000 onto a keyword of its documents
    table = LemmaTable({"siga": "kuab"})
    assert CORPUS.thesaurus.get("C0000").pref_label == "siga"
    config = RunConfig(vectorization="cf-idf", classifier="knn", seed=0)
    pipeline, _ = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus, lemma_table=table)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    reloaded = load_pipeline(path)
    seqs = [preprocess(doc.title, table) for doc in CORPUS.documents]
    counts = reloaded.count(CORPUS.documents).concept_counts.toarray()
    assert np.array_equal(counts, pipeline.count(CORPUS.documents).concept_counts.toarray())
    untabled = count_corpus(seqs, ConceptMatcher(CORPUS.thesaurus)).concept_counts.toarray()
    assert not np.array_equal(counts, untabled)
    for doc in CORPUS.documents:
        assert reloaded.predict_document(doc) == pipeline.predict_document(doc)


@st.composite
def matcher_cases(draw):
    """A small thesaurus over the oracle tokens, an optional lemma table
    mapping some of them onto others, and token streams to scan."""
    phrase = st.lists(st.sampled_from(ORACLE_TOKENS), min_size=1, max_size=3).map(" ".join)
    concepts = {}
    for i in range(draw(st.integers(1, 5))):
        labels = draw(st.lists(phrase, min_size=1, max_size=3, unique=True))
        concepts[f"c{i}"] = Concept(f"c{i}", labels[0], tuple(labels[1:]))
    surfaces = draw(st.sets(st.sampled_from(ORACLE_TOKENS), max_size=2))
    lemmas = st.sampled_from([t for t in ORACLE_TOKENS if t not in surfaces])
    tables = st.fixed_dictionaries(dict.fromkeys(surfaces, lemmas)).map(LemmaTable)
    table = draw(st.none() | tables)
    stream = st.lists(st.sampled_from(ORACLE_TOKENS), max_size=12)
    return Thesaurus(concepts), table, draw(st.lists(stream, min_size=1, max_size=4))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(matcher_cases())
def test_reloaded_matcher_counts_as_training_and_oracle(case):
    """The matcher a saved cf-idf model reloads counts every token stream as
    the training matcher and the naive longest-match scan do."""
    thesaurus, table, streams = case
    first = thesaurus.sorted_ids()[0]
    docs = [
        Document(f"d{i}", " ".join(stream), None, frozenset({first}))
        for i, stream in enumerate(streams)
    ]
    config = RunConfig(vectorization="cf-idf", classifier="knn", seed=0)
    pipeline, _ = fit_pipeline(config, docs, thesaurus, lemma_table=table)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_pipeline(pipeline, path)
        reloaded = load_pipeline(path).matcher
    trained = pipeline.matcher
    assert reloaded.concept_index == trained.concept_index
    patterns = thesaurus_patterns(thesaurus, table)
    for stream in streams:
        expected = naive_longest_match(stream, patterns)
        assert trained.match_counts(stream) == expected
        assert reloaded.match_counts(stream) == expected


def test_unsupported_version_rejected(tmp_path):
    config = RunConfig(vectorization="tf-idf", classifier="knn", seed=0)
    pipeline, _ = fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)
    path = tmp_path / "model.json"
    save_pipeline(pipeline, path)
    container = json.loads(path.read_text())
    container["format_version"] = 999
    path.write_text(json.dumps(container))
    with pytest.raises(ModelFormatError, match="version"):
        load_pipeline(path)


# learner and vectorizer settings the config determines; none is stored
HYPERPARAMETERS = {
    "kind", "loss", "variant", "k", "alpha", "epochs", "seed", "hidden", "activation",
    "threshold", "top_m", "max_depth", "scheme", "eta0", "min_leaf",
}


def stored_keys(block: dict) -> set[str]:
    """Keys of a stored block and of every block nested in it; decision-tree
    nodes are left out, since a split's `threshold` is fitted state."""
    keys = set(block)
    for key, value in block.items():
        if isinstance(value, dict) and key != "trees":
            keys |= stored_keys(value)
    return keys


def test_container_holds_only_current_keys(tmp_path):
    """A saved model is format version 5, its config holds exactly the
    RunConfig fields, it stores the training thesaurus and lemma table as
    inputs, and its vectorizer and classifier blocks hold only fitted state
    that prediction reads: no hyperparameter the config determines, no
    matcher, and nothing derivable from other stored state."""
    path = tmp_path / "model.json"
    blocks = {}
    for classifier in CLASSIFIERS:
        config = RunConfig(
            vectorization="bm25ct", classifier=classifier, seed=0, epochs=2, mlp_hidden=4, l2r_k=5
        )
        save_pipeline(fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)[0], path)
        container = json.loads(path.read_text())
        assert list(container) == [
            "format_version", "config", "lemma_table", "thesaurus", "vectorizer", "classifier"
        ]
        assert container["format_version"] == 5
        assert list(container["config"]) == [f.name for f in dataclasses.fields(RunConfig)]
        assert not stored_keys(container["classifier"]) & HYPERPARAMETERS, classifier
        assert not stored_keys(container["vectorizer"]) & HYPERPARAMETERS, classifier
        blocks[classifier] = container["classifier"]
    assert container["thesaurus"] == {
        cid: [concept.pref_label, *concept.alt_labels]
        for cid, concept in CORPUS.thesaurus.concepts.items()
    }
    vectorizer = container["vectorizer"]
    assert set(vectorizer) == {"vocab", "term_weighting", "concept_weighting"}
    # only BM25 reads the mean document length
    for weighting in (vectorizer["term_weighting"], vectorizer["concept_weighting"]):
        assert set(weighting) == {"idf", "mean_doc_len"}
    classifier = container["classifier"]  # mlp-dt, the last of CLASSIFIERS
    assert set(classifier) == {"base", "model"}
    assert set(classifier["base"]) == {"label_ids", "params"}
    assert set(classifier["model"]) == {"trees", "fallback_cutoff"}
    # L2R is its kNN index plus the ranker; priors and cutoff come from the index
    assert set(blocks["l2r"]) == {"knn", "weights", "bias"}
    assert set(blocks["l2r-dt"]["base"]) == {"knn", "weights", "bias"}
    config = RunConfig(vectorization="cf-idf", classifier="bayes-bernoulli", seed=0)
    save_pipeline(fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)[0], path)
    container = json.loads(path.read_text())
    assert set(container["vectorizer"]) == {"concept_weighting"}
    assert set(container["vectorizer"]["concept_weighting"]) == {"idf"}
    assert set(container["classifier"]) == {"label_ids", "_const", "_coef"}
    assert container["thesaurus"] is not None
    config = RunConfig(vectorization="tf-idf", classifier="knn", seed=0)
    save_pipeline(fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)[0], path)
    container = json.loads(path.read_text())
    assert container["thesaurus"] is None
    assert set(container["vectorizer"]) == {"vocab", "term_weighting"}
    assert set(container["vectorizer"]["term_weighting"]) == {"idf"}


def test_stacking_tree_depth_cap_is_inclusive(tmp_path):
    """A stored meta-tree as deep as fitting can grow one loads and decides;
    one split deeper is refused."""
    config = RunConfig(vectorization="tf-idf", classifier="lr-dt", seed=0, epochs=3)
    path = tmp_path / "model.json"
    save_pipeline(fit_pipeline(config, CORPUS.documents, CORPUS.thesaurus)[0], path)
    container = json.loads(path.read_text())
    trees = container["classifier"]["model"]["trees"]

    def store_chain(depth: int) -> None:
        """Replace the first label's tree by `depth` splits on the rank."""
        node = {"leaf": True, "value": 1}
        for _ in range(depth):
            node = {"leaf": False, "feature": 1, "threshold": 1e9, "left": node, "right": node}
        trees[min(trees)] = node
        path.write_text(json.dumps(container))

    store_chain(TREE_MAX_DEPTH)
    reloaded = load_pipeline(path)
    assert all(reloaded.predict_document(doc) for doc in CORPUS.documents)
    store_chain(TREE_MAX_DEPTH + 1)
    with pytest.raises(ModelFormatError, match="is malformed or too deep"):
        load_pipeline(path)
