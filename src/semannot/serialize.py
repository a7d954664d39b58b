"""Versioned JSON container for fitted pipelines.

Arrays are embedded as base64 of their raw little-endian bytes, so weights
round-trip bitwise and a reloaded model makes exactly the same decisions.
"""

from __future__ import annotations

import base64
import dataclasses
import json

import numpy as np
from scipy import sparse as sp

from .features import ConceptMatcher, TextVectorizer, Vocabulary, WeightingModel
from .learners import (
    KnnClassifier,
    LabelMatrix,
    LinearClassifier,
    MlpClassifier,
    NaiveBayesClassifier,
    RocchioClassifier,
)
from .multilabel import DecisionTree, StackedClassifier, StackedModel
from .pipeline import FittedPipeline, RunConfig
from .preprocess import LemmaTable
from .ranking import L2RClassifier, RankerModel

FORMAT_VERSION = 2


class ModelFormatError(ValueError):
    pass


def _enc_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    return {
        "dtype": a.dtype.str,
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _dec_array(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    return np.frombuffer(raw, dtype=np.dtype(d["dtype"])).reshape(d["shape"]).copy()


def _enc_csr(m: sp.csr_matrix) -> dict:
    return {
        "shape": list(m.shape),
        "data": _enc_array(m.data),
        "indices": _enc_array(m.indices),
        "indptr": _enc_array(m.indptr),
    }


def _dec_csr(d: dict) -> sp.csr_matrix:
    return sp.csr_matrix(
        (_dec_array(d["data"]), _dec_array(d["indices"]), _dec_array(d["indptr"])),
        shape=tuple(d["shape"]),
    )


def _enc_labels(labels: LabelMatrix) -> dict:
    Y = labels.Y
    return {
        "label_ids": list(labels.label_ids),
        "rows": [Y.indices[start:end].tolist() for start, end in zip(Y.indptr[:-1], Y.indptr[1:])],
    }


def _dec_labels(d: dict) -> LabelMatrix:
    labels = LabelMatrix.from_rows(tuple(d["label_ids"]), d["rows"])
    indices = labels.Y.indices
    if indices.size and not 0 <= indices.min() <= indices.max() < labels.n_labels:
        raise ModelFormatError(
            f"label index out of range 0..{labels.n_labels - 1} in the training label rows"
        )
    return labels


def _enc_weighting(w: WeightingModel | None) -> dict | None:
    if w is None:
        return None
    return {
        "scheme": w.scheme,
        "idf": _enc_array(w.idf),
        "n_docs": w.n_docs,
        "mean_doc_len": w.mean_doc_len,
        "k": w.k,
        "b": w.b,
    }


def _dec_weighting(d: dict | None) -> WeightingModel | None:
    if d is None:
        return None
    return WeightingModel(
        scheme=d["scheme"],
        idf=_dec_array(d["idf"]),
        n_docs=d["n_docs"],
        mean_doc_len=d["mean_doc_len"],
        k=d["k"],
        b=d["b"],
    )


def _enc_vectorizer(v: TextVectorizer) -> dict:
    return {
        "variant": v.variant,
        "vocab": v.vocab.tokens_in_order() if v.vocab is not None else None,
        "matcher": v.matcher.to_state() if v.matcher is not None else None,
        "term_weighting": _enc_weighting(v.term_weighting),
        "concept_weighting": _enc_weighting(v.concept_weighting),
    }


def _dec_vectorizer(d: dict) -> TextVectorizer:
    v = TextVectorizer(d["variant"])
    v.vocab = (
        Vocabulary({tok: i for i, tok in enumerate(d["vocab"])})
        if d["vocab"] is not None
        else None
    )
    v.matcher = ConceptMatcher.from_state(d["matcher"]) if d["matcher"] is not None else None
    v.term_weighting = _dec_weighting(d["term_weighting"])
    v.concept_weighting = _dec_weighting(d["concept_weighting"])
    return v


def _enc_classifier(clf) -> dict:
    if isinstance(clf, KnnClassifier):
        return {
            "kind": "knn",
            "k": clf.k,
            "matrix": _enc_csr(clf.matrix),
            "labels": _enc_labels(clf.labels),
        }
    if isinstance(clf, RocchioClassifier):
        return {
            "kind": "rocchio",
            "centroids": _enc_csr(clf.centroids),
            "label_ids": list(clf.label_ids),
        }
    if isinstance(clf, NaiveBayesClassifier):
        return {
            "kind": "bayes",
            "variant": clf.variant,
            "label_ids": list(clf.label_ids),
            "const": _enc_array(clf._const),
            "coef": _enc_array(clf._coef),
        }
    if isinstance(clf, LinearClassifier):
        return {
            "kind": "linear",
            "loss": clf.loss,
            "alpha": clf.alpha,
            "epochs": clf.epochs,
            "seed": clf.seed,
            "label_ids": list(clf.label_ids),
            "W": _enc_array(clf.W),
            "b": _enc_array(clf.b),
        }
    if isinstance(clf, MlpClassifier):
        return {
            "kind": "mlp",
            "hidden": clf.hidden,
            "activation": clf.activation,
            "threshold": clf.threshold,
            "label_ids": list(clf.label_ids),
            "params": {key: _enc_array(val) for key, val in clf.params.items()},
        }
    if isinstance(clf, L2RClassifier):
        return {
            "kind": "l2r",
            "k": clf.k,
            "knn": _enc_classifier(clf.knn),
            "priors": _enc_array(clf.priors),
            "ranker": {
                "weights": _enc_array(clf.model.weights),
                "bias": clf.model.bias,
                "cutoff": clf.model.cutoff,
            },
        }
    if isinstance(clf, StackedClassifier):
        return {
            "kind": "stacked",
            "base": _enc_classifier(clf.base),
            "top_m": clf.model.top_m,
            "fallback_cutoff": clf.model.fallback_cutoff,
            "trees": {cid: tree.to_state() for cid, tree in clf.model.trees.items()},
            "meta_sample_counts": clf.model.meta_sample_counts,
        }
    raise ModelFormatError(f"cannot serialize classifier of type {type(clf).__name__}")


def _dec_classifier(d: dict):
    kind = d.get("kind")
    if kind == "knn":
        clf = KnnClassifier(k=d["k"])
        clf.matrix = _dec_csr(d["matrix"])
        clf.labels = _dec_labels(d["labels"])
        return clf
    if kind == "rocchio":
        clf = RocchioClassifier()
        clf.centroids = _dec_csr(d["centroids"])
        clf.label_ids = tuple(d["label_ids"])
        return clf
    if kind == "bayes":
        clf = NaiveBayesClassifier(d["variant"])
        clf.label_ids = tuple(d["label_ids"])
        clf._const = _dec_array(d["const"])
        clf._coef = _dec_array(d["coef"])
        return clf
    if kind == "linear":
        clf = LinearClassifier(loss=d["loss"], alpha=d["alpha"], epochs=d["epochs"], seed=d["seed"])
        clf.label_ids = tuple(d["label_ids"])
        clf.W = _dec_array(d["W"])
        clf.b = _dec_array(d["b"])
        return clf
    if kind == "mlp":
        clf = MlpClassifier(
            hidden=d["hidden"], activation=d["activation"], threshold=d["threshold"]
        )
        clf.label_ids = tuple(d["label_ids"])
        clf.params = {key: _dec_array(val) for key, val in d["params"].items()}
        return clf
    if kind == "l2r":
        clf = L2RClassifier(k=d["k"])
        clf.knn = _dec_classifier(d["knn"])
        clf.priors = _dec_array(d["priors"])
        clf.model = RankerModel(
            weights=_dec_array(d["ranker"]["weights"]),
            bias=d["ranker"]["bias"],
            cutoff=d["ranker"]["cutoff"],
        )
        return clf
    if kind == "stacked":
        clf = StackedClassifier(_dec_classifier(d["base"]), top_m=d["top_m"])
        clf.model = StackedModel(
            trees={cid: DecisionTree.from_state(s) for cid, s in d["trees"].items()},
            top_m=d["top_m"],
            fallback_cutoff=d["fallback_cutoff"],
            meta_sample_counts=dict(d.get("meta_sample_counts", {})),
        )
        return clf
    raise ModelFormatError(f"unknown classifier kind {kind!r}")


def _dec_config(d: dict) -> RunConfig:
    names = [f.name for f in dataclasses.fields(RunConfig)]
    for key in d:
        if key not in names:
            raise ModelFormatError(f"unknown config key {key!r}")
    for name in names:
        if name not in d:
            raise ModelFormatError(f"missing config key {name!r}")
    return RunConfig(**d)


def save_pipeline(pipeline: FittedPipeline, path) -> None:
    container = {
        "format_version": FORMAT_VERSION,
        "config": pipeline.config.to_dict(),
        "lemma_table": dict(pipeline.lemma_table.mapping) if pipeline.lemma_table else None,
        "vectorizer": _enc_vectorizer(pipeline.vectorizer),
        "classifier": _enc_classifier(pipeline.classifier),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(container, fh)


def load_pipeline(path) -> FittedPipeline:
    with open(path, encoding="utf-8") as fh:
        container = json.load(fh)
    version = container.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version!r}")
    config = _dec_config(container["config"])
    lemma_table = (
        LemmaTable(container["lemma_table"]) if container["lemma_table"] is not None else None
    )
    return FittedPipeline(
        config=config,
        vectorizer=_dec_vectorizer(container["vectorizer"]),
        classifier=_dec_classifier(container["classifier"]),
        lemma_table=lemma_table,
    )
