import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semannot.evaluate as ev
import semannot.pipeline as pl
from oracles import folds_by_slicing
from semannot.corpus import Concept, Document, Thesaurus
from semannot.evaluate import evaluate_grid, evaluate_run, make_folds, run_fold, sample_prf
from semannot.features import ConceptMatcher, count_corpus
from semannot.learners import LabelMatrix
from semannot.pipeline import RunConfig, concept_matcher, count_documents
from semannot.preprocess import preprocess
from semannot.synthetic import generate_corpus


class TestMakeFolds:
    def test_ten_of_ten_singleton_folds(self):
        folds = make_folds(10, 10, seed=0)
        assert all(len(test) == 1 for _, test in folds)

    def test_twelve_of_ten_remainder_distribution(self):
        folds = make_folds(12, 10, seed=1)
        sizes = sorted(len(test) for _, test in folds)
        assert sizes == [1] * 8 + [2, 2]

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n_folds = int(rng.integers(2, 11))
            n_docs = int(rng.integers(n_folds, 60))
            folds = make_folds(n_docs, n_folds, seed=int(rng.integers(0, 1000)))
            seen = np.concatenate([test for _, test in folds])
            assert sorted(seen.tolist()) == list(range(n_docs))
            sizes = [len(test) for _, test in folds]
            assert max(sizes) - min(sizes) <= 1
            for train, test in folds:
                assert set(train.tolist()) | set(test.tolist()) == set(range(n_docs))
                assert not set(train.tolist()) & set(test.tolist())

    def test_too_few_docs_error(self):
        with pytest.raises(ValueError, match="at least"):
            make_folds(5, 10)

    def test_zero_folds_error(self):
        with pytest.raises(ValueError) as refused:
            make_folds(5, 0)
        assert str(refused.value) == "n_folds must be >= 1"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_equals_slicing_oracle(self, data):
        n_docs = data.draw(st.integers(1, 80))
        n_folds = data.draw(st.integers(1, n_docs))
        seed = data.draw(st.integers(0, 2**32 - 1))
        folds = make_folds(n_docs, n_folds, seed)
        expected = folds_by_slicing(n_docs, n_folds, seed)
        assert len(folds) == len(expected)
        for fold, reference in zip(folds, expected):
            for got, want in zip(fold, reference):
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()

    def test_seed_changes_assignment(self):
        a = make_folds(30, 3, seed=0)
        b = make_folds(30, 3, seed=1)
        assert any(
            not np.array_equal(ta[1], tb[1]) for ta, tb in zip(a, b)
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
    (report,) = evaluate_grid([config], docs, thesaurus)
    assert report.mean_f1 == 1.0
    assert report.mean_precision == 1.0
    assert report.mean_recall == 1.0


def test_always_empty_classifier_scores_zero(monkeypatch):
    docs, thesaurus = oracle_corpus()
    monkeypatch.setattr(pl, "build_classifier", lambda cfg: _EmptyClassifier())
    config = RunConfig(vectorization="cf-idf", classifier="knn", folds=5, seed=1)
    (report,) = evaluate_grid([config], docs, thesaurus)
    assert report.mean_f1 == 0.0
    assert report.empty_predictions == len(docs)


def test_evaluate_run_deterministic():
    made = generate_corpus(n_labels=5, docs_per_label=8, seed=3)
    config = RunConfig(vectorization="ctf-idf", classifier="lr", folds=5, seed=7, epochs=3)
    (first,) = evaluate_grid([config], made.documents, made.thesaurus)
    (second,) = evaluate_grid([config], made.documents, made.thesaurus)
    assert first.mean_f1 == second.mean_f1
    assert [fr.f1 for fr in first.folds] == [fr.f1 for fr in second.folds]


def test_overall_mean_is_unweighted_fold_mean():
    made = generate_corpus(n_labels=4, docs_per_label=8, seed=5)
    config = RunConfig(vectorization="tf-idf", classifier="knn", folds=3, seed=2)
    (report,) = evaluate_grid([config], made.documents, made.thesaurus)
    assert report.mean_f1 == pytest.approx(
        sum(fr.f1 for fr in report.folds) / len(report.folds)
    )


def test_no_leakage_from_test_fold_gold_labels(monkeypatch):
    made = generate_corpus(n_labels=5, docs_per_label=8, seed=11)
    docs = made.documents
    config = RunConfig(vectorization="ctf-idf", classifier="lr-dt", folds=4, seed=0, epochs=3)
    counts = count_documents(docs, config.field, matcher=ConceptMatcher(made.thesaurus))
    folds = make_folds(len(docs), 4, seed=0)
    train_idx, test_idx = folds[0]
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


def test_run_fold_decides_test_rows_in_order_a_block_at_a_time(monkeypatch):
    """Every FittedPipeline.decide call of a run gets at most ROW_BLOCK rows,
    and the calls together get each fold's test rows in order."""
    monkeypatch.setattr(ev, "ROW_BLOCK", 3)
    n, config = 40, RunConfig(vectorization="tf-idf", classifier="knn", folds=4, seed=1)
    # document i alone holds the term "w<i>", so a decided row names its document
    counts = count_corpus([[f"w{i}", "shared"] for i in range(n)])
    labels = LabelMatrix.from_gold([{f"C{i % 4}"} for i in range(n)])
    decided: list[list[int]] = []
    decide = pl.FittedPipeline.decide

    def recording_decide(self, rows):
        doc_of = {j: int(term[1:]) for j, term in enumerate(rows.terms) if term != "shared"}
        decided.append([doc_of[j] for j in rows.term_counts.indices if j in doc_of])
        return decide(self, rows)

    monkeypatch.setattr(pl.FittedPipeline, "decide", recording_decide)
    evaluate_run(config, counts, labels)
    assert max(map(len, decided)) == 3
    assert len(decided) == 4 * 4  # each fold's 10 test rows in blocks of 3, 3, 3 and 1
    test_rows = [i for _, test in make_folds(n, config.folds, config.seed) for i in test]
    assert [i for rows in decided for i in rows] == test_rows


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
    (report,) = evaluate_grid([config], docs, thesaurus)
    assert report.mean_recall < 1.0 or report.mean_f1 < 1.0


def test_fold_errors_carry_fold_context(monkeypatch):
    """run_fold names its own failure, so a serial run, a pool worker and a
    direct call all raise the same text."""
    docs, thesaurus = oracle_corpus(n=12)
    config = RunConfig(vectorization="cf-idf", classifier="knn", folds=3, seed=0)
    # counted without a concept matcher, so fitting cf-idf fails inside the fold
    counts = count_corpus([preprocess(d.title) for d in docs])
    message = r"^fold 0 failed: vectorization 'cf-idf' needs a thesaurus$"
    with pytest.raises(RuntimeError, match=message):
        evaluate_run(config, counts, gold_matrix(docs))
    train_idx, test_idx = make_folds(len(docs), config.folds, config.seed)[0]
    with pytest.raises(RuntimeError, match=message):
        run_fold(config, counts, gold_matrix(docs), 0, train_idx, test_idx)
    # the same failure in a real pool worker, which receives the unmatched counts
    monkeypatch.setattr(ev, "concept_matcher", lambda *args: None)
    with pytest.raises(RuntimeError, match=message):
        next(evaluate_grid([config], docs, thesaurus, jobs=2))
    with pytest.raises(ValueError, match="counts hold 11 documents"):
        evaluate_run(config, counts.rows(slice(0, 11)), gold_matrix(docs))


def test_serial_run_makes_one_fold_plan(monkeypatch):
    """evaluate_run makes its config's plan once and runs every fold of it."""
    made = generate_corpus(n_labels=4, docs_per_label=5, seed=6)
    config = RunConfig(vectorization="tf-idf", classifier="knn", folds=10, seed=3)
    counts = count_documents(made.documents, config.field)
    plans = []

    def spy(*args):
        plans.append(args)
        return make_folds(*args)

    monkeypatch.setattr(ev, "make_folds", spy)
    report = evaluate_run(config, counts, gold_matrix(made.documents))
    assert plans == [(len(made.documents), 10, 3)]
    assert [fr.fold for fr in report.folds] == list(range(10))
    assert [fr.n_test for fr in report.folds] == [len(test) for _, test in make_folds(20, 10, 3)]


@pytest.fixture
def recording_pool(monkeypatch):
    """Replaces the grid's process pool by an in-process recorder, so no
    process starts; returns one record per pool opened: its worker count,
    initializer arguments and the tasks mapped."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            self.record = {"workers": max_workers, "initargs": initargs, "tasks": []}
            pools.append(self.record)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            self.record["tasks"].extend(tasks)
            return [fn(task) for task in tasks]

    monkeypatch.setattr(ev, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(ev, "_worker_shared", None)
    return pools


def test_fold_tasks_carry_only_fold_indices(recording_pool):
    """Pool workers receive the configs, counts and labels once, through the
    pool initializer; each task is just (config_index, fold_index)."""
    made = generate_corpus(n_labels=3, docs_per_label=6, seed=4)
    config = RunConfig(vectorization="ctf-idf", classifier="knn", folds=3, seed=0)
    (report,) = evaluate_grid([config], made.documents, made.thesaurus, jobs=2)
    (pool,) = recording_pool
    assert pool["tasks"] == [(0, 0), (0, 1), (0, 2)]
    configs, counts, labels = pool["initargs"]
    assert configs == (config,)
    assert len(counts["title"]) == labels.n_docs == len(made.documents)
    (sequential,) = evaluate_grid([config], made.documents, made.thesaurus, jobs=1)
    assert dataclasses.asdict(report)["folds"] == dataclasses.asdict(sequential)["folds"]


@pytest.mark.parametrize("jobs, workers", [(2, 2), (3, 3), (8, 3)])
def test_pool_holds_at_most_one_worker_per_fold(recording_pool, jobs, workers):
    """A pool starts all its workers at once, so --jobs beyond the fold
    count is capped there."""
    made = generate_corpus(n_labels=3, docs_per_label=6, seed=4)
    config = RunConfig(vectorization="ctf-idf", classifier="knn", folds=3, seed=0)
    (report,) = evaluate_grid([config], made.documents, made.thesaurus, jobs=jobs)
    assert [pool["workers"] for pool in recording_pool] == [workers]
    (sequential,) = evaluate_grid([config], made.documents, made.thesaurus, jobs=1)
    assert dataclasses.asdict(report) == dataclasses.asdict(sequential)


def test_grid_opens_one_pool_for_all_configs(recording_pool):
    """With jobs > 1 a grid starts one pool, sized for its largest fold
    count, and sends its counts and labels once; each config's reports equal
    the sequential run's."""
    made = generate_corpus(n_labels=3, docs_per_label=6, seed=4)
    configs = [
        RunConfig(vectorization="ctf-idf", classifier="knn", folds=3, seed=0),
        RunConfig(field="fulltext", vectorization="tf-idf", classifier="rocchio-dt", folds=4),
        RunConfig(vectorization="bm25", classifier="bayes-multinomial", folds=2, seed=5),
    ]
    reports = list(evaluate_grid(configs, made.documents, made.thesaurus, jobs=8))
    assert [pool["workers"] for pool in recording_pool] == [4]
    _, counts, _ = recording_pool[0]["initargs"]
    assert sorted(counts) == ["fulltext", "title"]
    sequential = list(evaluate_grid(configs, made.documents, made.thesaurus, jobs=1))
    assert [dataclasses.asdict(r) for r in reports] == [dataclasses.asdict(r) for r in sequential]


def test_grid_reports_equal_across_jobs_in_worker_processes():
    """A real pool, not a recorder: a grid over two fields with different
    fold counts reports at jobs=2 exactly what it reports at jobs=1."""
    made = generate_corpus(n_labels=3, docs_per_label=6, seed=4)
    configs = [
        RunConfig(vectorization="ctf-idf", classifier="knn", folds=3, seed=0),
        RunConfig(field="fulltext", vectorization="tf-idf", classifier="rocchio-dt", folds=4, seed=2),
    ]
    pooled = list(evaluate_grid(configs, made.documents, made.thesaurus, jobs=2))
    sequential = list(evaluate_grid(configs, made.documents, made.thesaurus, jobs=1))
    assert [dataclasses.asdict(r) for r in pooled] == [dataclasses.asdict(r) for r in sequential]


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_checks_every_fold_plan_before_counting(monkeypatch, recording_pool, jobs):
    """A fold plan the corpus cannot fill is refused before any counting
    and before any report, whether the folds would run in-process or pooled."""
    made = generate_corpus(n_labels=3, docs_per_label=3, seed=2)
    assert len(made.documents) == 9
    counted = []
    monkeypatch.setattr(ev, "count_documents", lambda *args: counted.append(args))
    configs = [RunConfig(folds=3), RunConfig(folds=20)]
    reports = []
    with pytest.raises(ValueError, match=r"^need at least 20 documents for 20 folds, got 9$"):
        reports.extend(evaluate_grid(configs, made.documents, made.thesaurus, jobs=jobs))
    assert reports == []
    assert counted == []
    assert recording_pool == []


@pytest.mark.parametrize("jobs", [0, -3])
def test_grid_refuses_jobs_below_one_before_counting(monkeypatch, jobs):
    made = generate_corpus(n_labels=3, docs_per_label=4, seed=2)
    counted = []
    monkeypatch.setattr(ev, "count_documents", lambda *args: counted.append(args))
    with pytest.raises(ValueError, match=rf"^jobs must be >= 1, got {jobs}$"):
        next(evaluate_grid([RunConfig(folds=3)], made.documents, made.thesaurus, jobs=jobs))
    assert counted == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_empty_grid_yields_no_reports(jobs):
    made = generate_corpus(n_labels=3, docs_per_label=4, seed=2)
    assert list(evaluate_grid([], made.documents, made.thesaurus, jobs=jobs)) == []


def test_grid_reports_equal_runs_on_freshly_counted_rows():
    """evaluate_grid counts each field once, with one matcher for every
    config, and collects the gold labels once; each report it yields equals
    evaluate_run on rows counted for that config alone."""
    made = generate_corpus(n_labels=4, docs_per_label=6, synonyms_per_concept=1, seed=9)
    docs, thesaurus = made.documents, made.thesaurus
    configs = [
        RunConfig(field="title", vectorization="ctf-idf", classifier="knn", folds=3, seed=1),
        RunConfig(field="fulltext", vectorization="tf-idf", classifier="rocchio-dt", folds=3),
        RunConfig(field="title", vectorization="bm25", classifier="bayes-multinomial", folds=4),
        RunConfig(field="fulltext", vectorization="cf-idf", classifier="lr", folds=3, epochs=2),
    ]
    reports = list(evaluate_grid(configs, docs, thesaurus))
    assert len(reports) == len(configs)
    for config, report in zip(configs, reports):
        counts = count_documents(docs, config.field, matcher=concept_matcher([config], thesaurus))
        expected = evaluate_run(config, counts, gold_matrix(docs))
        assert dataclasses.asdict(report) == dataclasses.asdict(expected)


def test_grid_validates_every_config_before_counting(monkeypatch):
    made = generate_corpus(n_labels=3, docs_per_label=4, seed=2)
    counted = []
    monkeypatch.setattr(ev, "count_documents", lambda *args: counted.append(args))
    configs = [RunConfig(folds=3), RunConfig(folds=3, seed=-1)]
    with pytest.raises(pl.ConfigError, match="seed must be >= 0, got -1"):
        next(evaluate_grid(configs, made.documents, made.thesaurus))
    assert counted == []
