"""Count once, slice per fold.

Every document is tokenized, counted and concept-matched once per corpus;
a fold's vectorizer takes its vocabulary from the training rows of those
counts.  The fold matrices must be byte-identical to the per-fold path
(`oracles.per_fold_matrices`), and the fitted fold state must not depend on
the text of the test documents.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semannot.cli as cli
import semannot.features as features
import semannot.pipeline as pl
from semannot.cli import main
from semannot.corpus import Concept, Thesaurus, dump_corpus_jsonl, dump_thesaurus_tsv
from semannot.evaluate import make_folds
from semannot.features import VARIANTS, ConceptMatcher, TextVectorizer, count_corpus
from semannot.learners import LabelMatrix
from semannot.preprocess import preprocess
from semannot.synthetic import generate_corpus

from oracles import ORACLE_TOKENS, per_fold_matrices


def assert_same_csr(got, expected):
    assert got.shape == expected.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(expected, part)
        assert a.dtype == b.dtype, part
        assert a.tobytes() == b.tobytes(), part


CORPUS = generate_corpus(
    n_labels=6,
    docs_per_label=7,
    labels_per_doc=(1, 3),
    keyword_overlap=0.3,
    synonyms_per_concept=2,
    synonym_rate=0.5,
    noise_words=4,
    fulltext_factor=3,
    seed=13,
)


@pytest.mark.parametrize("field", ["title", "fulltext"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_fold_matrices_equal_per_fold_oracle(field, variant):
    token_seqs = [preprocess(doc.text(field)) for doc in CORPUS.documents]
    matcher = ConceptMatcher(CORPUS.thesaurus)
    counts = count_corpus(token_seqs, matcher)
    for train_idx, test_idx in make_folds(len(token_seqs), 10, seed=3):
        vectorizer = TextVectorizer(variant).fit(counts.rows(train_idx))
        train, test = counts.rows(train_idx), counts.rows(test_idx)
        for weighted, rows in ((True, vectorizer.transform), (False, vectorizer.transform_counts)):
            expected_train, expected_test = per_fold_matrices(
                variant, token_seqs, matcher, train_idx, test_idx, weighted
            )
            assert_same_csr(rows(train), expected_train)
            assert_same_csr(rows(test), expected_test)


# test-only tokens: never in a training document
UNSEEN = ["ua", "ub", "uc"]
THESAURUS = Thesaurus(
    {
        "k1": Concept("k1", "ta tb", ("tc",)),
        "k2": Concept("k2", "tb"),
        "k3": Concept("k3", "ua td"),
    }
)


@st.composite
def fold_with_rewritten_tests(draw):
    n = draw(st.integers(3, 12))
    seq = st.lists(st.sampled_from(ORACLE_TOKENS), max_size=8)
    docs = draw(st.lists(seq, min_size=n, max_size=n))
    test = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    rewritten = list(docs)
    for i in test:
        rewritten[i] = draw(st.lists(st.sampled_from(ORACLE_TOKENS + UNSEEN), max_size=8))
    train_idx = np.array([i for i in range(n) if i not in test])
    return docs, rewritten, train_idx, np.array(sorted(test))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fold_with_rewritten_tests(), st.sampled_from(VARIANTS))
def test_test_fold_text_never_reaches_fitted_state(fold, variant):
    docs, rewritten, train_idx, test_idx = fold
    matcher = ConceptMatcher(THESAURUS)
    fitted = []
    for seqs in (docs, rewritten):
        counts = count_corpus(seqs, matcher)
        vectorizer = TextVectorizer(variant).fit(counts.rows(train_idx))
        fitted.append((vectorizer, vectorizer.transform(counts.rows(train_idx))))
    (honest, honest_train), (tampered, tampered_train) = fitted
    if honest.uses_terms:
        assert list(tampered.vocab) == list(honest.vocab)
        assert not set(UNSEEN) & set(tampered.vocab)
    for model in ("term_weighting", "concept_weighting"):
        a, b = getattr(honest, model), getattr(tampered, model)
        if a is None:
            assert b is None
            continue
        assert (a.scheme, a.mean_doc_len) == (b.scheme, b.mean_doc_len)
        assert a.idf.tobytes() == b.idf.tobytes()
    assert_same_csr(tampered_train, honest_train)


def test_grid_counts_each_document_once(tmp_path, monkeypatch):
    """A --grid vectorizations run preprocesses and concept-matches every
    document once, preprocesses each thesaurus phrase once, and collects the
    gold labels into one LabelMatrix."""
    made = generate_corpus(n_labels=3, docs_per_label=5, synonyms_per_concept=1, seed=8)
    corpus, thesaurus = tmp_path / "corpus.jsonl", tmp_path / "thesaurus.tsv"
    dump_corpus_jsonl(made.documents, corpus)
    dump_thesaurus_tsv(made.thesaurus, thesaurus)
    calls = {"match": 0, "preprocess": 0, "labels": 0}
    original_match = ConceptMatcher.match_counts
    original_preprocess = pl.preprocess
    original_from_gold = LabelMatrix.from_gold.__func__

    def counting_match(self, tokens):
        calls["match"] += 1
        return original_match(self, tokens)

    def counting_preprocess(text, table=None):
        calls["preprocess"] += 1
        return original_preprocess(text, table)

    def counting_from_gold(cls, gold_sets):
        calls["labels"] += 1
        return original_from_gold(cls, gold_sets)

    monkeypatch.setattr(ConceptMatcher, "match_counts", counting_match)
    monkeypatch.setattr(pl, "preprocess", counting_preprocess)
    monkeypatch.setattr(features, "preprocess", counting_preprocess)
    monkeypatch.setattr(LabelMatrix, "from_gold", classmethod(counting_from_gold))
    code = main(
        [
            "evaluate", "--corpus", str(corpus), "--thesaurus", str(thesaurus),
            "--field", "fulltext", "--grid", "vectorizations", "--folds", "3",
            "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 0
    n_phrases = sum(len(c.phrases()) for c in made.thesaurus.concepts.values())
    assert calls["match"] == len(made.documents)
    assert calls["preprocess"] == len(made.documents) + n_phrases
    assert calls["labels"] == 1


def test_train_dump_vectors_counts_each_document_once(tmp_path, monkeypatch):
    """train --dump-vectors writes the rows the classifier was fitted on from
    the counts made for fitting: train enters fit_pipeline once, every
    document is preprocessed and concept-matched once, the counts are
    vectorized once, and the dump equals a separate count of the same
    documents through the fitted pipeline."""
    made = generate_corpus(n_labels=3, docs_per_label=5, synonyms_per_concept=1, seed=8)
    corpus, thesaurus = tmp_path / "corpus.jsonl", tmp_path / "thesaurus.tsv"
    dump_corpus_jsonl(made.documents, corpus)
    dump_thesaurus_tsv(made.thesaurus, thesaurus)
    argv = [
        "train", "--corpus", str(corpus), "--thesaurus", str(thesaurus), "--clf", "l2r-dt",
        "--out", str(tmp_path / "model.json"), "--dump-vectors", str(tmp_path / "vectors.jsonl"),
    ]
    calls = {"fit": 0, "match": 0, "preprocess": 0, "transform": 0}
    original_fit = cli.fit_pipeline
    original_match = ConceptMatcher.match_counts
    original_preprocess = pl.preprocess
    original_transform = TextVectorizer.transform

    def counting_fit(*args, **kwargs):
        calls["fit"] += 1
        return original_fit(*args, **kwargs)

    def counting_match(self, tokens):
        calls["match"] += 1
        return original_match(self, tokens)

    def counting_preprocess(text, table=None):
        calls["preprocess"] += 1
        return original_preprocess(text, table)

    def counting_transform(self, counts):
        calls["transform"] += 1
        return original_transform(self, counts)

    with monkeypatch.context() as patched:
        patched.setattr(cli, "fit_pipeline", counting_fit)
        patched.setattr(ConceptMatcher, "match_counts", counting_match)
        patched.setattr(pl, "preprocess", counting_preprocess)
        patched.setattr(features, "preprocess", counting_preprocess)
        patched.setattr(TextVectorizer, "transform", counting_transform)
        assert main(argv) == 0
    n_phrases = sum(len(c.phrases()) for c in made.thesaurus.concepts.values())
    assert calls["match"] == len(made.documents)
    assert calls["preprocess"] == len(made.documents) + n_phrases
    assert calls["transform"] == 1
    assert calls["fit"] == 1

    pipeline, _ = pl.fit_pipeline(pl.RunConfig(classifier="l2r-dt"), made.documents, made.thesaurus)
    expected = tmp_path / "expected.jsonl"
    features.dump_vectors(
        expected, [d.doc_id for d in made.documents],
        pipeline.vectorize(pipeline.count(made.documents)),
    )
    assert (tmp_path / "vectors.jsonl").read_bytes() == expected.read_bytes()
