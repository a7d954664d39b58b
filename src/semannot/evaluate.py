"""Cross-validated evaluation with sample-averaged precision/recall/F1.

Each fold trains the full pipeline on 90% of the corpus and scores the
held-out 10%; per-document F1 values are averaged within folds and the
fold means are averaged (unweighted) into the reported score.  Labels
whose training documents all fall into the test fold are not excluded.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .corpus import Document, Thesaurus, mean_sd
from .features import VARIANTS, CorpusCounts
from .learners import LabelMatrix
from .pipeline import CLASSIFIERS, RunConfig, concept_matcher, count_documents, fit_counts
from .preprocess import LemmaTable
from .sparse import ROW_BLOCK

# each --grid value: the RunConfig field it varies and that field's values, in report order
GRIDS = {"vectorizations": ("vectorization", VARIANTS), "classifiers": ("classifier", CLASSIFIERS)}


def make_folds(
    n_docs: int, n_folds: int = 10, seed: int = 0
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Seeded shuffle then contiguous slicing into near-equal test blocks;
    one (train, test) pair of sorted document ordinals per fold.

    Test folds partition the document ordinals: every document appears in
    exactly one test fold, and fold sizes differ by at most one.
    """
    if n_folds < 1:
        raise ValueError("n_folds must be >= 1")
    if n_docs < n_folds:
        raise ValueError(f"need at least {n_folds} documents for {n_folds} folds, got {n_docs}")
    permutation = np.random.default_rng(seed).permutation(n_docs)
    folds = []
    for test in np.array_split(permutation, n_folds):
        train = np.ones(n_docs, dtype=bool)
        train[test] = False
        folds.append((np.flatnonzero(train), np.sort(test)))
    return tuple(folds)


def sample_prf(predicted: set[str] | frozenset[str], gold: set[str] | frozenset[str]) -> tuple[float, float, float]:
    """Per-document precision, recall, F1.

    An empty prediction scores precision zero; F1 is zero whenever
    precision + recall is zero.
    """
    hits = len(set(predicted) & set(gold))
    precision = hits / len(predicted) if predicted else 0.0
    recall = hits / len(gold) if gold else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


@dataclass
class FoldResult:
    fold: int
    n_test: int
    precision: float
    recall: float
    f1: float
    empty_predictions: int
    zero_vector_queries: int


def run_fold(
    config: RunConfig,
    counts: CorpusCounts,
    labels: LabelMatrix,
    fold_index: int,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
) -> FoldResult:
    """Fit on the train rows only and score the test rows against their
    gold labels; ``counts`` and ``labels`` hold every document of the corpus.
    Any failure is raised again as ``fold N failed: ...``."""
    try:
        pipeline, _ = fit_counts(config, counts.rows(train_idx), labels.take(train_idx))
        predictions: list[set[str]] = []
        zero_vec = 0
        for start in range(0, len(test_idx), ROW_BLOCK):
            X, block_predictions = pipeline.decide(counts.rows(test_idx[start:start + ROW_BLOCK]))
            zero_vec += int(np.count_nonzero(np.diff(X.indptr) == 0))
            predictions.extend(block_predictions)
        prf = [sample_prf(predicted, labels.row_set(i)) for i, predicted in zip(test_idx, predictions)]
        precisions, recalls, f1s = zip(*prf)
        n = len(test_idx)
        return FoldResult(
            fold=fold_index,
            n_test=n,
            precision=sum(precisions) / n,
            recall=sum(recalls) / n,
            f1=sum(f1s) / n,
            empty_predictions=sum(1 for predicted in predictions if not predicted),
            zero_vector_queries=zero_vec,
        )
    except Exception as exc:
        raise RuntimeError(f"fold {fold_index} failed: {exc}") from exc


# (configs, counts by field, labels) of the grid a pool worker serves; set
# once per worker process, so a task carries only (config index, fold index)
_worker_shared: tuple | None = None


def _init_worker(*shared) -> None:
    global _worker_shared
    _worker_shared = shared


def _fold_worker(task: tuple[int, int]) -> FoldResult:
    """One fold task ``(config index, fold index)``; the fold's rows are
    rebuilt from its config's plan, so a task carries no index arrays."""
    configs, counts, labels = _worker_shared
    config_index, fold_index = task
    config = configs[config_index]
    train, test = make_folds(labels.n_docs, config.folds, config.seed)[fold_index]
    return run_fold(config, counts[config.field], labels, fold_index, train, test)


@dataclass
class EvalReport:
    config: dict
    folds: list[FoldResult]
    mean_precision: float
    mean_recall: float
    mean_f1: float
    sd_precision: float
    sd_recall: float
    sd_f1: float
    empty_predictions: int
    zero_vector_queries: int


def evaluate_run(config: RunConfig, counts: CorpusCounts, labels: LabelMatrix) -> EvalReport:
    """Full cross-validated run of one pipeline configuration over the
    documents' counts of this config's field and their gold labels, every
    fold in this process."""
    config.validate()
    if len(counts) != labels.n_docs:
        raise ValueError(f"counts hold {len(counts)} documents, the labels {labels.n_docs}")
    plan = make_folds(labels.n_docs, config.folds, config.seed)  # refused before any fold runs
    results = [run_fold(config, counts, labels, fold, *split) for fold, split in enumerate(plan)]
    return _report(config, results)


def _report(config: RunConfig, results: list[FoldResult]) -> EvalReport:
    mean_p, sd_p = mean_sd([fr.precision for fr in results])
    mean_r, sd_r = mean_sd([fr.recall for fr in results])
    mean_f, sd_f = mean_sd([fr.f1 for fr in results])
    return EvalReport(
        config=config.to_dict(),
        folds=results,
        mean_precision=mean_p,
        mean_recall=mean_r,
        mean_f1=mean_f,
        sd_precision=sd_p,
        sd_recall=sd_r,
        sd_f1=sd_f,
        empty_predictions=sum(fr.empty_predictions for fr in results),
        zero_vector_queries=sum(fr.zero_vector_queries for fr in results),
    )


def evaluate_grid(
    configs: Sequence[RunConfig], docs: Sequence[Document], thesaurus: Thesaurus,
    lemma_table: LemmaTable | None = None, jobs: int = 1,
) -> Iterator[EvalReport]:
    """One cross-validated report per config, in order.  Every config and
    its fold plan are checked first; then one concept matcher and one gold
    LabelMatrix are built and each field the configs use is counted once,
    for all runs.  With ``jobs > 1`` the folds of every config run in one
    pool of at most ``jobs`` workers (no more than the largest fold count),
    whose initializer sends the counts and labels to each worker once; the
    reports are the same for any ``jobs``."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for config in configs:
        config.validate()
        make_folds(len(docs), config.folds, config.seed)
    matcher = concept_matcher(configs, thesaurus, lemma_table)
    labels = LabelMatrix.from_gold([doc.gold_labels for doc in docs])
    fields = dict.fromkeys(config.field for config in configs)
    counts = {field: count_documents(docs, field, lemma_table, matcher) for field in fields}
    if jobs == 1:
        for config in configs:
            yield evaluate_run(config, counts[config.field], labels)
        return
    workers = min(jobs, max((config.folds for config in configs), default=1))
    shared = (tuple(configs), counts, labels)
    with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=shared) as pool:
        for c, config in enumerate(configs):
            tasks = [(c, fold) for fold in range(config.folds)]
            yield _report(config, list(pool.map(_fold_worker, tasks)))


CSV_HEADER = (
    "input,vectorization,classifier,folds,seed,"
    "mean_f1,mean_precision,mean_recall,empty_predictions,zero_vector_queries"
)


def csv_line(report: EvalReport) -> str:
    """One CSV row: each column CSV_HEADER names, read by name from the
    report and its config; the config's ``folds`` count replaces the
    report's fold list, and ``input`` is the config's field."""
    values = {**vars(report), **report.config, "input": report.config["field"]}
    return ",".join(str(values[column]) for column in CSV_HEADER.split(","))
