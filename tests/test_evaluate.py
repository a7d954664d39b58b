import dataclasses

import numpy as np
import pytest

import semannot.evaluate as ev
import semannot.pipeline as pl
from semannot.corpus import Concept, Document, Thesaurus
from semannot.evaluate import evaluate_run, make_folds, run_fold, sample_prf
from semannot.features import count_corpus
from semannot.learners import LabelMatrix
from semannot.pipeline import RunConfig, count_documents
from semannot.preprocess import preprocess
from semannot.synthetic import generate_corpus


class TestMakeFolds:
    def test_ten_of_ten_singleton_folds(self):
        plan = make_folds(10, 10, seed=0)
        assert all(len(test) == 1 for _, test in plan.folds)

    def test_twelve_of_ten_remainder_distribution(self):
        plan = make_folds(12, 10, seed=1)
        sizes = sorted(len(test) for _, test in plan.folds)
        assert sizes == [1] * 8 + [2, 2]

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n_folds = int(rng.integers(2, 11))
            n_docs = int(rng.integers(n_folds, 60))
            plan = make_folds(n_docs, n_folds, seed=int(rng.integers(0, 1000)))
            seen = np.concatenate([test for _, test in plan.folds])
            assert sorted(seen.tolist()) == list(range(n_docs))
            sizes = [len(test) for _, test in plan.folds]
            assert max(sizes) - min(sizes) <= 1
            for train, test in plan.folds:
                assert set(train.tolist()) | set(test.tolist()) == set(range(n_docs))
                assert not set(train.tolist()) & set(test.tolist())

    def test_too_few_docs_error(self):
        with pytest.raises(ValueError, match="at least"):
            make_folds(5, 10)

    def test_seed_changes_assignment(self):
        a = make_folds(30, 3, seed=0)
        b = make_folds(30, 3, seed=1)
        assert any(
            not np.array_equal(ta[1], tb[1]) for ta, tb in zip(a.folds, b.folds)
        )


class TestSamplePrf:
    def test_identity(self):
        assert sample_prf({"a", "b"}, {"a", "b"}) == (1.0, 1.0, 1.0)

    def test_empty_prediction_scores_zero_precision(self):
        assert sample_prf(set(), {"a"}) == (0.0, 0.0, 0.0)

    def test_half_overlap(self):
        assert sample_prf({"a", "b"}, {"b", "c"}) == (0.5, 0.5, 0.5)

    def test_symmetry_recall_precision(self):
        rng = np.random.default_rng(2)
        ids = [f"l{i}" for i in range(8)]
        for _ in range(50):
            a = set(rng.choice(ids, size=rng.integers(1, 5), replace=False))
            b = set(rng.choice(ids, size=rng.integers(1, 5), replace=False))
            assert sample_prf(a, b)[1] == sample_prf(b, a)[0]


def gold_matrix(docs) -> LabelMatrix:
    return LabelMatrix.from_gold([doc.gold_labels for doc in docs])


class _GoldEchoClassifier:
    """Reads the gold concept straight off the concept-feature block; with a
    cf-idf pipeline on signature-only titles this reproduces the gold set."""

    def __init__(self, concept_ids):
        self.concept_ids = concept_ids

    def fit(self, X, labels):
        return self

    def predict(self, X):
        return [
            {self.concept_ids[int(i)] for i in X.indices[start:end]}
            for start, end in zip(X.indptr[:-1], X.indptr[1:])
        ]


class _EmptyClassifier:
    def fit(self, X, labels):
        return self

    def predict(self, X):
        return [set() for _ in range(X.shape[0])]


def oracle_corpus(n=40):
    """Titles mention exactly the doc's gold concepts' signature phrases."""
    ids = [f"C{i:02d}" for i in range(6)]
    phrase = {cid: "sig" + chr(97 + i) * 2 for i, cid in enumerate(ids)}
    thesaurus = Thesaurus({cid: Concept(cid, phrase[cid]) for cid in ids})
    rng = np.random.default_rng(0)
    docs = []
    for d in range(n):
        chosen = rng.choice(ids, size=int(rng.integers(1, 4)), replace=False)
        title = " ".join(phrase[cid] for cid in sorted(chosen))
        docs.append(
            Document(doc_id=f"d{d}", title=title, fulltext=None, gold_labels=frozenset(chosen))
        )
    return docs, thesaurus


def test_oracle_classifier_scores_perfect_f1(monkeypatch):
    docs, thesaurus = oracle_corpus()
    monkeypatch.setattr(
        pl, "build_classifier", lambda cfg: _GoldEchoClassifier(thesaurus.sorted_ids())
    )
    config = RunConfig(vectorization="cf-idf", classifier="knn", folds=5, seed=1)
    report = evaluate_run(config, docs, thesaurus)
    assert report.mean_f1 == 1.0
    assert report.mean_precision == 1.0
    assert report.mean_recall == 1.0


def test_always_empty_classifier_scores_zero(monkeypatch):
    docs, thesaurus = oracle_corpus()
    monkeypatch.setattr(pl, "build_classifier", lambda cfg: _EmptyClassifier())
    config = RunConfig(vectorization="cf-idf", classifier="knn", folds=5, seed=1)
    report = evaluate_run(config, docs, thesaurus)
    assert report.mean_f1 == 0.0
    assert report.empty_predictions == len(docs)


def test_evaluate_run_deterministic():
    made = generate_corpus(n_labels=5, docs_per_label=8, seed=3)
    config = RunConfig(vectorization="ctf-idf", classifier="lr", folds=5, seed=7, epochs=3)
    first = evaluate_run(config, made.documents, made.thesaurus)
    second = evaluate_run(config, made.documents, made.thesaurus)
    assert first.mean_f1 == second.mean_f1
    assert [fr.f1 for fr in first.folds] == [fr.f1 for fr in second.folds]


def test_overall_mean_is_unweighted_fold_mean():
    made = generate_corpus(n_labels=4, docs_per_label=8, seed=5)
    config = RunConfig(vectorization="tf-idf", classifier="knn", folds=3, seed=2)
    report = evaluate_run(config, made.documents, made.thesaurus)
    assert report.mean_f1 == pytest.approx(
        sum(fr.f1 for fr in report.folds) / len(report.folds)
    )


def test_no_leakage_from_test_fold_gold_labels(monkeypatch):
    made = generate_corpus(n_labels=5, docs_per_label=8, seed=11)
    docs = made.documents
    config = RunConfig(vectorization="ctf-idf", classifier="lr-dt", folds=4, seed=0, epochs=3)
    counts = count_documents([config], docs, made.thesaurus)
    plan = make_folds(len(docs), 4, seed=0)
    train_idx, test_idx = plan.folds[0]
    # the label sets each run_fold call scores, in test-row order
    scored: list[list[set[str]]] = []

    def recording_prf(predicted, gold):
        scored[-1].append(predicted)
        return sample_prf(predicted, gold)

    monkeypatch.setattr(ev, "sample_prf", recording_prf)
    scored.append([])
    honest = run_fold(config, counts, gold_matrix(docs), 0, train_idx, test_idx)
    # permute the gold sets within the test fold only
    corrupted = list(docs)
    rotated = [docs[i].gold_labels for i in test_idx]
    rotated = rotated[1:] + rotated[:1]
    for i, g in zip(test_idx, rotated):
        corrupted[i] = dataclasses.replace(docs[i], gold_labels=g)
    scored.append([])
    tampered = run_fold(config, counts, gold_matrix(corrupted), 0, train_idx, test_idx)
    assert len(scored[0]) == len(test_idx)
    assert scored[1] == scored[0]
    assert tampered.f1 != honest.f1


def test_labels_unseen_in_training_stay_in_gold():
    # one label occurs in a single document; when that document is in the
    # test fold its label cannot be predicted but still counts against recall
    made = generate_corpus(n_labels=4, docs_per_label=10, labels_per_doc=(1, 1), seed=2)
    docs = list(made.documents)
    rare_concept = Concept("RARE", "zqrare")
    concepts = dict(made.thesaurus.concepts)
    concepts["RARE"] = rare_concept
    thesaurus = Thesaurus(concepts)
    target = docs[0]
    docs[0] = Document(
        doc_id=target.doc_id,
        title=target.title,
        fulltext=target.fulltext,
        gold_labels=frozenset(set(target.gold_labels) | {"RARE"}),
    )
    config = RunConfig(vectorization="tf-idf", classifier="knn", folds=5, seed=1)
    report = evaluate_run(config, docs, thesaurus)
    assert report.mean_recall < 1.0 or report.mean_f1 < 1.0


def test_fold_errors_carry_fold_context():
    docs, thesaurus = oracle_corpus(n=12)
    config = RunConfig(vectorization="cf-idf", classifier="knn", folds=3, seed=0)
    # counted without a concept matcher, so fitting cf-idf fails inside the fold
    counts = count_corpus([preprocess(d.title) for d in docs])
    with pytest.raises(RuntimeError, match="fold 0"):
        ev._run_task((config, counts, gold_matrix(docs)), (0, np.arange(6), np.arange(6, 12)))
    # the same failure in a pool worker, which holds the shared state itself
    with pytest.raises(RuntimeError, match="fold 0"):
        evaluate_run(config, docs, thesaurus, counts=counts, jobs=2)
    with pytest.raises(ValueError, match="counts hold 11 documents"):
        evaluate_run(config, docs, thesaurus, counts=counts.rows(slice(0, 11)))


def test_fold_tasks_carry_only_fold_indices(monkeypatch):
    """Pool workers receive the counts and labels once, through the pool
    initializer; each task is just (fold_index, train_idx, test_idx)."""
    made = generate_corpus(n_labels=3, docs_per_label=6, seed=4)
    config = RunConfig(vectorization="ctf-idf", classifier="knn", folds=3, seed=0)
    seen = {}

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            seen["initargs"] = initargs
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            seen["tasks"] = list(tasks)
            return [fn(task) for task in seen["tasks"]]

    monkeypatch.setattr(ev, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(ev, "_worker_shared", None)
    report = evaluate_run(config, made.documents, made.thesaurus, jobs=2)
    assert [len(task) for task in seen["tasks"]] == [3, 3, 3]
    assert all(isinstance(part, (int, np.ndarray)) for task in seen["tasks"] for part in task)
    _, counts, labels = seen["initargs"]
    assert len(counts) == labels.n_docs == len(made.documents)
    sequential = evaluate_run(config, made.documents, made.thesaurus, jobs=1)
    assert report.to_dict()["folds"] == sequential.to_dict()["folds"]
