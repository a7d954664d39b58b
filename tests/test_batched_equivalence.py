"""Batched scoring equals row-by-row scoring for every classifier.

predict, rank and the kNN neighbour search on a block of CSR rows must give
exactly what the same calls give on 1-row slices of it, also for blocks
longer than ROW_BLOCK, so that a document's decision never depends on the
documents scored next to it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from semannot.features import VARIANTS
from semannot.pipeline import CLASSIFIERS, RunConfig, fit_pipeline
from semannot.preprocess import preprocess
from semannot.sparse import ROW_BLOCK
from semannot.synthetic import generate_corpus


def _block_calls(clf):
    """The block-in, one-result-per-row methods of a fitted classifier."""
    base = getattr(clf, "base", clf)
    calls = {"predict": clf.predict}
    if hasattr(base, "rank"):
        calls["rank"] = base.rank
    if hasattr(base, "neighbors"):
        calls["neighbors"] = lambda X: [
            list(zip(idx.tolist(), sims.tolist())) for idx, sims in zip(*base.neighbors(X, k=3))
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
        l2r_k=draw(st.integers(1, 6)),
    )
    pipeline = fit_pipeline(config, made.documents, made.thesaurus)
    # training titles, plus an empty and an out-of-vocabulary query whose
    # feature rows are all zero
    token_seqs = [preprocess(d.title) for d in made.documents] + [[], ["zzunseen"]]
    return pipeline, token_seqs


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_block_equals_row_by_row(classifier):
    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(fitted_pipelines(classifier), st.integers(1, 40))
    def check(fitted, extra_rows):
        pipeline, token_seqs = fitted
        rows = pipeline.vectorize(token_seqs)
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
