"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass line (visible with pytest -s / -rA).

The reference corpora are license-gated, so the quantitative criteria run
on the bundled synthetic generators; the published reference scores are
checked only when a local copy of the news corpus is configured via the
SEMANNOT_RCV1_DIR environment variable.
"""

import json
import os
import time

import numpy as np
import pytest

from semannot.cli import main
from semannot.corpus import dump_corpus_jsonl, dump_thesaurus_tsv, load_corpus, load_thesaurus
from semannot.evaluate import evaluate_run, make_folds, sample_prf
from semannot.features import ConceptMatcher, fit_weighting
from semannot.learners import LabelMatrix
from semannot.learners.mlp import init_params, loss_and_grads
from semannot.pipeline import RunConfig, fit_pipeline
from semannot.preprocess import preprocess
from semannot.ranking import L2RClassifier
from semannot.synthetic import generate_corpus, noisy_corpus, separable_corpus, synonym_corpus

from oracles import (
    brute_force_idf,
    central_difference_grads,
    gradient_relative_error,
    naive_longest_match,
    random_count_vectors,
    random_thesaurus,
    random_token_stream,
)


def report(name: str) -> None:
    print(f"PASS: {name}")


def test_idf_oracle_equivalence():
    """fit_weighting == brute force of 1 + ln((|D|+1)/(df+1)) within 1e-12,
    200 random corpora (<= 20 docs, <= 30 features), under 5 s."""
    rng = np.random.default_rng(20240801)
    started = time.perf_counter()
    for _ in range(200):
        vectors = random_count_vectors(rng, max_docs=20, max_features=30)
        model = fit_weighting(vectors, "idf")
        expected = brute_force_idf(vectors, vectors.shape[1])
        assert np.allclose(model.idf, expected, atol=1e-12, rtol=0.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(f"IDF oracle equivalence (200 corpora, {elapsed:.2f}s)")


def test_longest_match_oracle():
    """extract_concepts == naive all-phrases-at-every-position scan on 200
    random (thesaurus, token stream) pairs, under 10 s."""
    rng = np.random.default_rng(20240802)
    started = time.perf_counter()
    for _ in range(200):
        thesaurus = random_thesaurus(rng, max_phrases=50)
        matcher = ConceptMatcher(thesaurus)
        patterns: dict[tuple[str, ...], set[str]] = {}
        for cid in thesaurus.sorted_ids():
            for phrase in thesaurus.get(cid).phrases():
                tokens = tuple(preprocess(phrase))
                if tokens:
                    patterns.setdefault(tokens, set()).add(cid)
        stream = random_token_stream(rng)
        assert matcher.match_counts(stream) == naive_longest_match(stream, patterns)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(f"longest-match oracle (200 pairs, {elapsed:.2f}s)")


def test_metric_fixtures():
    """sample_prf reproduces the hand cases, including precision zero on an
    empty prediction."""
    assert sample_prf({"a", "b"}, {"a", "b"}) == (1.0, 1.0, 1.0)
    assert sample_prf(set(), {"a"}) == (0.0, 0.0, 0.0)
    assert sample_prf({"a", "b"}, {"b", "c"}) == (0.5, 0.5, 0.5)
    report("metric fixtures (identity, empty-prediction zero, half overlap)")


def test_fold_partition():
    """100 random (n_docs, seed): test folds partition the corpus exactly
    once with sizes within one of each other."""
    rng = np.random.default_rng(20240803)
    for _ in range(100):
        n_folds = int(rng.integers(2, 11))
        n_docs = int(rng.integers(n_folds, 200))
        plan = make_folds(n_docs, n_folds, seed=int(rng.integers(0, 10_000)))
        covered = np.concatenate([test for _, test in plan.folds])
        assert sorted(covered.tolist()) == list(range(n_docs))
        sizes = [len(test) for _, test in plan.folds]
        assert max(sizes) - min(sizes) <= 1
    report("fold partition (100 random plans)")


def test_mlp_gradient_check():
    """Analytic vs central finite differences (eps=1e-5, dropout off) on a
    5-feature, hidden-4, 3-label network: relative error < 1e-4 over 10
    random parameter draws, under 5 s."""
    rng = np.random.default_rng(20240804)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        params = init_params(5, 4, 3, rng)
        X = rng.normal(size=(4, 5))
        T = (rng.random((4, 3)) < 0.5).astype(np.float64)
        _, analytic = loss_and_grads(params, X, T, "relu")
        numeric = central_difference_grads(params, X, T, "relu", epsilon=1e-5)
        for key in params:
            worst = max(worst, gradient_relative_error(analytic[key], numeric[key]))
    assert worst < 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(f"MLP gradient check (max rel err {worst:.2e}, {elapsed:.2f}s)")


SEPARABLE = separable_corpus(seed=11)


def test_separable_task_logistic_regression():
    """Binary-relevance LR reaches mean sample F1 >= 0.95 on the separable
    1,000-doc corpus under 10-fold CV within 10 epochs, under 60 s."""
    started = time.perf_counter()
    config = RunConfig(vectorization="tf-idf", classifier="lr", folds=10, seed=42, epochs=10)
    result = evaluate_run(config, SEPARABLE.documents, SEPARABLE.thesaurus)
    elapsed = time.perf_counter() - started
    assert result.mean_f1 >= 0.95
    assert elapsed < 60.0
    report(f"separable-task LR (F1 {result.mean_f1:.4f}, {elapsed:.1f}s)")


def test_separable_task_mlp():
    """MLP with hidden size 64 reaches mean sample F1 >= 0.95 on the same
    corpus, under 60 s."""
    started = time.perf_counter()
    config = RunConfig(
        vectorization="tf-idf", classifier="mlp", folds=10, seed=42, mlp_hidden=64
    )
    result = evaluate_run(config, SEPARABLE.documents, SEPARABLE.thesaurus)
    elapsed = time.perf_counter() - started
    assert result.mean_f1 >= 0.95
    assert elapsed < 60.0
    report(f"separable-task MLP hidden-64 (F1 {result.mean_f1:.4f}, {elapsed:.1f}s)")


def test_eager_beats_lazy_direction():
    """On the 30%-overlap noisy corpus, binary-relevance LR attains at least
    the kNN mean F1 under identical folds and seed."""
    made = noisy_corpus(seed=7)
    lr = evaluate_run(
        RunConfig(vectorization="tf-idf", classifier="lr", folds=10, seed=42, epochs=10),
        made.documents,
        made.thesaurus,
    )
    knn = evaluate_run(
        RunConfig(vectorization="tf-idf", classifier="knn", folds=10, seed=42),
        made.documents,
        made.thesaurus,
    )
    assert lr.mean_f1 >= knn.mean_f1
    report(f"eager beats lazy (LR {lr.mean_f1:.4f} >= kNN {knn.mean_f1:.4f})")


def test_ctf_benefit_direction():
    """On the synonym-injected corpus, kNN on the concatenated term+concept
    features attains at least the kNN term-only mean F1, same folds/seed."""
    made = synonym_corpus(seed=5)
    ctf = evaluate_run(
        RunConfig(vectorization="ctf-idf", classifier="knn", folds=10, seed=42),
        made.documents,
        made.thesaurus,
    )
    tf = evaluate_run(
        RunConfig(vectorization="tf-idf", classifier="knn", folds=10, seed=42),
        made.documents,
        made.thesaurus,
    )
    assert ctf.mean_f1 >= tf.mean_f1
    report(f"CTF benefit (ctf-idf {ctf.mean_f1:.4f} >= tf-idf {tf.mean_f1:.4f})")


def test_stacking_containment_exhaustive():
    """Stacked predictions are a subset of the base top-30 on every document
    for every stacked classifier kind."""
    made = generate_corpus(n_labels=8, docs_per_label=12, synonyms_per_concept=1, seed=31)
    checked = 0
    for kind in ("rocchio-dt", "lr-dt", "mlp-dt", "l2r-dt"):
        config = RunConfig(
            vectorization="ctf-idf", classifier=kind, seed=2, epochs=3, mlp_hidden=8, l2r_k=5
        )
        pipeline = fit_pipeline(config, made.documents, made.thesaurus)
        stacked = pipeline.classifier
        X = pipeline.vectorize(pipeline.count([preprocess(doc.title) for doc in made.documents]))
        for ranking, predicted in zip(stacked.base.rank(X), stacked.predict(X)):
            base_top = {cid for cid, _, _ in ranking[:30]}
            assert predicted <= base_top
            checked += 1
    report(f"stacking containment ({checked} document/classifier pairs)")


def test_l2r_cutoff_exhaustive():
    """L2R prediction sizes never exceed the rounded training mean label
    count and reach it exactly whenever enough candidates exist."""
    made = generate_corpus(n_labels=10, docs_per_label=15, labels_per_doc=(1, 4), seed=17)
    docs = made.documents
    token_seqs = [preprocess(d.title) for d in docs]
    from semannot.features import TextVectorizer, count_corpus

    counts = count_corpus(token_seqs)
    X = TextVectorizer("tf-idf").fit(counts).transform(counts)
    labels = LabelMatrix.from_gold([d.gold_labels for d in docs])
    clf = L2RClassifier(k=10, epochs=3, seed=0).fit(X, labels)
    cutoff = clf.model.cutoff
    assert cutoff >= 1
    for candidates, predicted in zip(clf.candidates(X), clf.predict(X)):
        assert len(predicted) <= cutoff
        if len(candidates.labels) >= cutoff:
            assert len(predicted) == cutoff
    report(f"L2R cutoff (cutoff {cutoff}, {X.shape[0]} documents)")


def test_cli_determinism_across_runs_and_jobs(tmp_path):
    """Identical config and seed give byte-identical CSV reports, both when
    repeated and when fold workers run in parallel (--jobs 1 vs --jobs 8)."""
    made = generate_corpus(n_labels=6, docs_per_label=20, seed=3)
    corpus = tmp_path / "corpus.jsonl"
    thesaurus = tmp_path / "thesaurus.tsv"
    dump_corpus_jsonl(made.documents, corpus)
    dump_thesaurus_tsv(made.thesaurus, thesaurus)
    outputs = {}
    for tag, jobs in (("a", 1), ("b", 1), ("c", 8)):
        out_csv = tmp_path / f"report_{tag}.csv"
        code = main(
            [
                "evaluate",
                "--corpus", str(corpus),
                "--thesaurus", str(thesaurus),
                "--vec", "ctf-idf",
                "--clf", "lr",
                "--folds", "10",
                "--seed", "5",
                "--epochs", "4",
                "--jobs", str(jobs),
                "--out-json", str(tmp_path / f"report_{tag}.json"),
                "--out-csv", str(out_csv),
            ]
        )
        assert code == 0
        outputs[tag] = out_csv.read_bytes()
    assert outputs["a"] == outputs["b"]
    assert outputs["a"] == outputs["c"]
    report("CLI determinism (repeat and --jobs 1 vs --jobs 8)")


def test_cli_fulltext_grid_identical_across_jobs(tmp_path, monkeypatch, capsys):
    """A full-text --grid vectorizations run prints the same lines and
    writes byte-identical CSV and JSON reports with --jobs 1 and --jobs 2."""
    made = generate_corpus(n_labels=5, docs_per_label=8, synonyms_per_concept=1, seed=6)
    corpus = tmp_path / "corpus.jsonl"
    thesaurus = tmp_path / "thesaurus.tsv"
    dump_corpus_jsonl(made.documents, corpus)
    dump_thesaurus_tsv(made.thesaurus, thesaurus)
    outputs = {}
    for jobs in (1, 2):
        run_dir = tmp_path / f"jobs{jobs}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--corpus", str(corpus),
                "--thesaurus", str(thesaurus),
                "--field", "fulltext",
                "--grid", "vectorizations",
                "--folds", "5",
                "--seed", "2",
                "--jobs", str(jobs),
                "--out-json", "report.json",
                "--out-csv", "report.csv",
            ]
        )
        assert code == 0
        outputs[jobs] = (
            capsys.readouterr().out,
            (run_dir / "report.csv").read_bytes(),
            (run_dir / "report.json").read_bytes(),
        )
    assert len(json.loads(outputs[1][2])["reports"]) == 6
    assert outputs[1] == outputs[2]
    report("full-text vectorization grid (--jobs 1 vs --jobs 2)")


RCV1_DIR = os.environ.get("SEMANNOT_RCV1_DIR")


@pytest.mark.skipif(
    not RCV1_DIR,
    reason="licensed news corpus not available; set SEMANNOT_RCV1_DIR to "
    "a directory holding corpus.jsonl and thesaurus.tsv to enable",
)
def test_rcv1_reference_scores():
    """Optional: published reference scores on titles, within +-0.03."""
    thesaurus = load_thesaurus(os.path.join(RCV1_DIR, "thesaurus.tsv"), "tsv")
    docs = load_corpus(
        os.path.join(RCV1_DIR, "corpus.jsonl"), "title", thesaurus=thesaurus
    ).documents
    knn = evaluate_run(
        RunConfig(vectorization="ctf-idf", classifier="knn", folds=10, seed=0),
        docs,
        thesaurus,
    )
    assert abs(knn.mean_f1 - 0.717) <= 0.03
    mlp = evaluate_run(
        RunConfig(vectorization="ctf-idf", classifier="mlp", folds=10, seed=0),
        docs,
        thesaurus,
    )
    assert abs(mlp.mean_f1 - 0.812) <= 0.03
    report("reference scores on licensed news corpus")
