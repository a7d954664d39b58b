"""Batched scoring equals row-by-row scoring for every classifier.

predict, scores, rank and the kNN neighbour search on a block of CSR rows
must give exactly what the same calls give on 1-row slices of it, also for
blocks longer than ROW_BLOCK, so that a document's decision never depends
on the documents scored next to it.  FittedPipeline.annotate, which counts
documents in blocks too, must give each document what counting, vectorizing
and deciding it alone gives.  The block decision rules must decide
what each classifier's rule applied row by row (tests/oracles.py) decides.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import per_row_predict
from semannot.corpus import Document
from semannot.features import VARIANTS
from semannot.pipeline import CLASSIFIERS, RunConfig, fit_pipeline
from semannot.sparse import ROW_BLOCK
from semannot.synthetic import generate_corpus


def _block_calls(clf):
    """The block-in, one-result-per-row methods of a fitted classifier."""
    base = getattr(clf, "base", clf)
    calls = {"predict": clf.predict, "scores": lambda X: base.scores(X).tolist()}
    if hasattr(base, "rank"):
        calls["rank"] = lambda X: base.rank(X).tolist()
    if hasattr(base, "neighbors"):
        calls["neighbors"] = lambda X: [
            list(zip(idx.tolist(), sims.tolist())) for idx, sims in zip(*base.neighbors(X))
        ]
    return calls


@st.composite
def fitted_pipelines(draw, classifier):
    n_labels = draw(st.integers(2, 5))
    made = generate_corpus(
        n_labels=n_labels,
        docs_per_label=draw(st.integers(2, 5)),
        labels_per_doc=(1, 2),
        keywords_per_label=4,
        keyword_overlap=draw(st.sampled_from([0.0, 0.5])),
        synonyms_per_concept=1,
        synonym_rate=0.5,
        title_keywords=2,
        noise_words=2,
        seed=draw(st.integers(0, 10_000)),
    )
    config = RunConfig(
        vectorization=draw(st.sampled_from(VARIANTS)),
        classifier=classifier,
        seed=draw(st.integers(0, 100)),
        epochs=2,
        mlp_hidden=draw(st.integers(1, 9)),
        # up to more neighbours than training documents, where k is clamped
        knn_k=draw(st.integers(1, 30)),
        l2r_k=draw(st.integers(1, 6)),
    )
    pipeline, _ = fit_pipeline(config, made.documents, made.thesaurus)
    # training titles, plus an empty and an out-of-vocabulary query whose
    # feature rows are all zero
    queries = [Document("q0", "", None, frozenset()), Document("q1", "zzunseen", None, frozenset())]
    return pipeline, made.documents + queries


PROPERTY = settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_block_equals_row_by_row(classifier):
    @PROPERTY
    @given(fitted_pipelines(classifier), st.integers(1, 40))
    def check(fitted, extra_rows):
        pipeline, docs = fitted
        rows = pipeline.vectorize(pipeline.count(docs))
        n = rows.shape[0]
        # one block longer than ROW_BLOCK that revisits every row
        order = np.arange(ROW_BLOCK + extra_rows) % n
        block = rows[order]
        for name, call in _block_calls(pipeline.classifier).items():
            singles = [call(rows[i:i + 1]) for i in range(n)]
            assert all(len(single) == 1 for single in singles), name
            batched = call(block)
            assert len(batched) == len(order), name
            for got, i in zip(batched, order):
                assert got == singles[i][0], (name, int(i))

    check()


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_predict_equals_per_row_rules(classifier):
    @PROPERTY
    @given(fitted_pipelines(classifier))
    def check(fitted):
        pipeline, docs = fitted
        X = pipeline.vectorize(pipeline.count(docs))
        assert pipeline.classifier.predict(X) == per_row_predict(pipeline.classifier, X)

    check()


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_annotate_equals_one_document_at_a_time(classifier):
    @PROPERTY
    @given(fitted_pipelines(classifier), st.integers(1, 40))
    def check(fitted, extra_docs):
        pipeline, docs = fitted
        alone = [
            pipeline.classifier.predict(pipeline.vectorize(pipeline.count([doc])))[0]
            for doc in docs
        ]
        # more documents than one block, each document several times
        order = np.arange(ROW_BLOCK + extra_docs) % len(docs)
        inputs = [docs[i] for i in order]
        yielded, labels = zip(*pipeline.annotate(inputs))
        # each label set comes with the input document itself, in input order
        assert [id(doc) for doc in yielded] == [id(doc) for doc in inputs]
        assert list(labels) == [alone[i] for i in order]

    check()


def test_annotate_reads_any_iterable_one_block_ahead():
    """annotate takes documents from an iterator ROW_BLOCK at a time: the
    first (document, label set) pair comes after one block is read, not the
    whole input, and the pairs equal those of the same documents given as a
    list."""
    made = generate_corpus(n_labels=3, docs_per_label=4, seed=5)
    pipeline, _ = fit_pipeline(RunConfig(classifier="knn"), made.documents, made.thesaurus)
    docs = [made.documents[i % len(made.documents)] for i in range(2 * ROW_BLOCK + 3)]
    taken = []

    def stream():
        for doc in docs:
            taken.append(doc)
            yield doc

    labelled = pipeline.annotate(stream())
    first = next(labelled)
    assert len(taken) == ROW_BLOCK
    assert first[0] is docs[0]
    assert [first, *labelled] == list(pipeline.annotate(docs))
    assert len(taken) == len(docs)
