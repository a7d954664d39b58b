"""Cross-validated evaluation with sample-averaged precision/recall/F1.

Each fold trains the full pipeline on 90% of the corpus and scores the
held-out 10%; per-document F1 values are averaged within folds and the
fold means are averaged (unweighted) into the reported score.  Labels
whose training documents all fall into the test fold are not excluded.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corpus import Document, Thesaurus
from .features import CorpusCounts
from .learners import LabelMatrix
from .pipeline import RunConfig, count_documents, fit_counts
from .preprocess import LemmaTable


@dataclass(frozen=True)
class FoldPlan:
    n_docs: int
    n_folds: int
    seed: int
    folds: tuple[tuple[np.ndarray, np.ndarray], ...]  # (train, test) per fold


def make_folds(n_docs: int, n_folds: int = 10, seed: int = 0) -> FoldPlan:
    """Seeded shuffle then contiguous slicing into near-equal test blocks.

    Test folds partition the document ordinals: every document appears in
    exactly one test fold, and fold sizes differ by at most one.
    """
    if n_folds < 1:
        raise ValueError("n_folds must be >= 1")
    if n_docs < n_folds:
        raise ValueError(f"need at least {n_folds} documents for {n_folds} folds, got {n_docs}")
    permutation = np.random.default_rng(seed).permutation(n_docs)
    base, remainder = divmod(n_docs, n_folds)
    folds = []
    start = 0
    for i in range(n_folds):
        size = base + (1 if i < remainder else 0)
        test = np.sort(permutation[start:start + size])
        train = np.sort(np.concatenate([permutation[:start], permutation[start + size:]]))
        folds.append((train, test))
        start += size
    return FoldPlan(n_docs=n_docs, n_folds=n_folds, seed=seed, folds=tuple(folds))


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

    def to_dict(self) -> dict:
        return {
            "fold": self.fold,
            "n_test": self.n_test,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "empty_predictions": self.empty_predictions,
            "zero_vector_queries": self.zero_vector_queries,
        }


def run_fold(
    config: RunConfig,
    counts: CorpusCounts,
    labels: LabelMatrix,
    fold_index: int,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
) -> FoldResult:
    """Fit on the train rows only and score the test rows against their
    gold labels; ``counts`` and ``labels`` hold every document of the corpus."""
    pipeline = fit_counts(config, counts.rows(train_idx), labels.take(train_idx))
    predictions: list[set[str]] = []
    zero_vec = 0
    for X, block_predictions in pipeline.predict_blocks(counts.rows(test_idx)):
        zero_vec += int(np.count_nonzero(np.diff(X.indptr) == 0))
        predictions.extend(block_predictions)

    precisions, recalls, f1s = [], [], []
    empty = 0
    for i, predicted in zip(test_idx, predictions):
        if not predicted:
            empty += 1
        p, r, f1 = sample_prf(predicted, labels.row_set(i))
        precisions.append(p)
        recalls.append(r)
        f1s.append(f1)
    n = len(test_idx)
    return FoldResult(
        fold=fold_index,
        n_test=n,
        precision=sum(precisions) / n,
        recall=sum(recalls) / n,
        f1=sum(f1s) / n,
        empty_predictions=empty,
        zero_vector_queries=zero_vec,
    )


def _run_task(shared: tuple, task: tuple) -> FoldResult:
    """One fold task ``(fold_index, train_idx, test_idx)`` over the shared
    ``(config, counts, labels)``."""
    try:
        return run_fold(*shared, *task)
    except Exception as exc:
        raise RuntimeError(f"fold {task[0]} failed: {exc}") from exc


# (config, counts, labels) of the run a pool worker serves; set once per
# worker process, so fold tasks carry only their fold's indices
_worker_shared: tuple | None = None


def _init_worker(*shared) -> None:
    global _worker_shared
    _worker_shared = shared


def _fold_worker(task: tuple) -> FoldResult:
    return _run_task(_worker_shared, task)


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

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "folds": [fr.to_dict() for fr in self.folds],
            "mean_precision": self.mean_precision,
            "mean_recall": self.mean_recall,
            "mean_f1": self.mean_f1,
            "sd_precision": self.sd_precision,
            "sd_recall": self.sd_recall,
            "sd_f1": self.sd_f1,
            "empty_predictions": self.empty_predictions,
            "zero_vector_queries": self.zero_vector_queries,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _mean_sd(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def evaluate_run(
    config: RunConfig,
    docs: list[Document],
    thesaurus: Thesaurus,
    lemma_table: LemmaTable | None = None,
    counts: CorpusCounts | None = None,
    jobs: int = 1,
) -> EvalReport:
    """Full cross-validated run of one pipeline configuration.

    ``counts``, when given, are the documents' counts from
    ``count_documents`` for this config's field, shared by several runs.
    With ``jobs > 1`` the folds run in that many worker processes; the
    report is the same for any ``jobs``.
    """
    config.validate()
    if counts is None:
        counts = count_documents([config], docs, thesaurus, lemma_table)
    elif len(counts) != len(docs):
        raise ValueError(f"counts hold {len(counts)} documents, the corpus {len(docs)}")
    shared = (config, counts, LabelMatrix.from_gold([doc.gold_labels for doc in docs]))
    plan = make_folds(len(docs), config.folds, config.seed)
    tasks = [(i, train, test) for i, (train, test) in enumerate(plan.folds)]
    if jobs > 1:
        with ProcessPoolExecutor(jobs, initializer=_init_worker, initargs=shared) as pool:
            results = list(pool.map(_fold_worker, tasks))
    else:
        results = [_run_task(shared, task) for task in tasks]
    results.sort(key=lambda fr: fr.fold)
    mean_p, sd_p = _mean_sd([fr.precision for fr in results])
    mean_r, sd_r = _mean_sd([fr.recall for fr in results])
    mean_f, sd_f = _mean_sd([fr.f1 for fr in results])
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


CSV_HEADER = (
    "input,vectorization,classifier,folds,seed,"
    "mean_f1,mean_precision,mean_recall,empty_predictions,zero_vector_queries"
)


def csv_line(report: EvalReport) -> str:
    cfg = report.config
    return ",".join(
        [
            cfg["field"],
            cfg["vectorization"],
            cfg["classifier"],
            str(cfg["folds"]),
            str(cfg["seed"]),
            repr(report.mean_f1),
            repr(report.mean_precision),
            repr(report.mean_recall),
            str(report.empty_predictions),
            str(report.zero_vector_queries),
        ]
    )
