"""Versioned JSON container for fitted pipelines.

The container's `config` is the only record of what a model is: load builds
the vectorizer and classifier from it with the calls training uses, then
restores only their fitted state.  Arrays are embedded as base64 of their
raw little-endian bytes, so weights round-trip bitwise and a reloaded model
makes exactly the same decisions.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import json
import math

import numpy as np
from scipy import sparse as sp

from .corpus import Concept, Thesaurus, ThesaurusFormatError, replacing
from .features import ConceptMatcher, TextVectorizer, WeightingModel
from .learners import (
    KnnClassifier,
    LabelMatrix,
    LinearClassifier,
    MlpClassifier,
    NaiveBayesClassifier,
    RocchioClassifier,
)
from .multilabel import TREE_MAX_DEPTH, DecisionTree, StackedClassifier, StackedModel
from .pipeline import ConfigError, FittedPipeline, RunConfig, build_classifier
from .preprocess import LemmaTable, LemmaTableError
from .ranking import L2RClassifier

FORMAT_VERSION = 5
_CONTAINER_KEYS = (
    "format_version", "config", "lemma_table", "thesaurus", "vectorizer", "classifier"
)
# weighting scheme -> its stored keys; only BM25 reads the mean document length
_WEIGHTING_KEYS = {"idf": ("idf",), "bm25": ("idf", "mean_doc_len")}

_FLOAT = "<f8"
_INT = "a signed integer dtype"


class ModelFormatError(ValueError):
    pass


def _enc_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    return {
        "dtype": a.dtype.str,
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _dec_array(d: dict, required: str, name: str) -> np.ndarray:
    """Decode the array `name` whose slot requires the dtype `required`:
    `_FLOAT`, or `_INT` for any signed integer dtype."""
    _check_keys(f"array {name} has", ("dtype", "shape", "data"), d)
    try:
        dtype = np.dtype(d["dtype"]) if isinstance(d["dtype"], str) else None
    except TypeError:
        dtype = None
    if dtype is None:
        raise ModelFormatError(f"array {name} has dtype {d['dtype']!r}, which is not a numpy dtype")
    if not (dtype.kind == "i" if required == _INT else dtype.str == required):
        raise ModelFormatError(f"array of dtype {dtype.str} where {required} is required")
    shape = d["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ModelFormatError(f"array {name} shape must be a list of integers >= 0, got {shape!r}")
    data = d["data"]
    if not isinstance(data, str):
        raise ModelFormatError(
            f"array {name} data must be a base64 string, got {type(data).__name__}"
        )
    try:
        # what base64.b64decode does, without its ASCII copy of the string
        raw = binascii.a2b_base64(data)
        a = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"array {name} data is malformed: {exc}") from None
    if required == _FLOAT and not np.isfinite(a).all():
        raise ModelFormatError(f"array of dtype {dtype.str} holds NaN or infinity")
    return a


def _enc_csr(m: sp.csr_matrix) -> dict:
    return {
        "shape": list(m.shape),
        "data": _enc_array(m.data),
        "indices": _enc_array(m.indices),
        "indptr": _enc_array(m.indptr),
    }


def _dec_csr(d: dict, name: str) -> sp.csr_matrix:
    _check_keys(f"sparse {name} has", ("shape", "data", "indices", "indptr"), d)
    data = _dec_array(d["data"], _FLOAT, f"{name} data")
    indices = _dec_array(d["indices"], _INT, f"{name} indices")
    indptr = _dec_array(d["indptr"], _INT, f"{name} indptr")
    try:
        # an index out of range would make the sparse products read out of bounds
        m = sp.csr_matrix((data, indices, indptr), shape=tuple(d["shape"]))
        m.check_format(full_check=True)
    except ValueError as exc:
        raise ModelFormatError(f"sparse {name} is malformed: {exc}") from None
    return m


def _enc_labels(labels: LabelMatrix) -> dict:
    Y = labels.Y
    return {
        "label_ids": list(labels.label_ids),
        "rows": [Y.indices[start:end].tolist() for start, end in zip(Y.indptr[:-1], Y.indptr[1:])],
    }


def _dec_strings(d, name: str, first_seen: bool = False) -> list[str]:
    """A stored list of strings: label ids, which training writes sorted and
    unique, or the vocabulary, unique in first-seen order (``first_seen``)."""
    if not isinstance(d, list):
        raise ModelFormatError(f"{name} must be a list of strings, got {type(d).__name__}")
    for item in d:
        if not isinstance(item, str):
            raise ModelFormatError(f"{name} must be a list of strings, holds {item!r}")
    if not first_seen and not all(a < b for a, b in zip(d, d[1:])):
        raise ModelFormatError(f"{name} must be sorted and unique")
    if first_seen and len(last := {item: i for i, item in enumerate(d)}) < len(d):
        repeat = next(item for i, item in enumerate(d) if last[item] != i)
        raise ModelFormatError(f"{name} repeats {repeat!r}")
    return d


def _dec_labels(d: dict) -> LabelMatrix:
    _check_keys("training labels have", ("label_ids", "rows"), d)
    label_ids = _dec_strings(d["label_ids"], "training label_ids")
    rows = d["rows"]
    if not (isinstance(rows, list) and all(
        isinstance(row, list) and all(type(j) is int for j in row) for row in rows
    )):
        raise ModelFormatError("training label rows must be a list of lists of integers")
    top = len(label_ids) - 1
    for i, row in enumerate(rows):  # training writes each row's indices once, increasing
        if not (row and all(a < b for a, b in zip(row, row[1:]))):
            raise ModelFormatError(f"training label row {i} is empty or not strictly increasing")
        if not 0 <= row[0] <= row[-1] <= top:
            raise ModelFormatError(f"label index out of range 0..{top} in the training label rows")
    return LabelMatrix.from_rows(tuple(label_ids), rows)


def _enc_weighting(w: WeightingModel) -> dict:
    stored = {"idf": _enc_array(w.idf), "mean_doc_len": w.mean_doc_len}
    return {key: stored[key] for key in _WEIGHTING_KEYS[w.scheme]}


def _dec_weighting(d: dict, vectorizer: TextVectorizer) -> WeightingModel:
    # the scheme follows the variant; BM25 k and b are the module constants
    scheme = vectorizer.scheme
    _check_keys(f"config builds {scheme} weighting with state", _WEIGHTING_KEYS[scheme], d)
    mean = _dec_number(d["mean_doc_len"], "mean_doc_len", 0.0) if scheme == "bm25" else None
    return WeightingModel(scheme, _dec_array(d["idf"], _FLOAT, "idf"), mean)


def _dec_number(d, name: str, low: float = -math.inf) -> float:
    """A stored scalar: a finite JSON number, not a bool or a string, of at least `low`."""
    if isinstance(d, bool) or not isinstance(d, (int, float)) or not math.isfinite(d) or d < low:
        at_least = "" if low == -math.inf else f" >= {low:g}"
        raise ModelFormatError(f"{name} must be a finite number{at_least}, got {d!r}")
    return float(d)


def _dec_lemma_table(d) -> LemmaTable | None:
    if d is not None and not (isinstance(d, dict) and all(isinstance(v, str) for v in d.values())):
        raise ModelFormatError("lemma_table must be null or a {surface: lemma} map of strings")
    try:
        return None if d is None else LemmaTable(d)
    except LemmaTableError as exc:
        raise ModelFormatError(f"lemma_table is malformed: {exc}") from None


def _dec_matcher(d, vectorizer: TextVectorizer, lemma_table: LemmaTable | None):
    """The concept matcher, built from the stored training thesaurus
    {concept_id: [pref, alt, ...]} with the call training makes; None for a
    terms-only variant."""
    variant = vectorizer.variant
    if not vectorizer.uses_concepts:
        if d is not None:
            raise ModelFormatError(f"vectorization {variant!r} uses no thesaurus, model holds one")
        return None
    if not (isinstance(d, dict) and d and all(
        isinstance(labels, list) and labels and all(isinstance(l, str) for l in labels)
        for labels in d.values()
    )):
        raise ModelFormatError(
            f"vectorization {variant!r} needs a thesaurus {{concept_id: [pref, alt, ...]}}"
        )
    concepts = {cid: Concept(cid, labels[0], tuple(labels[1:])) for cid, labels in d.items()}
    n_idf = vectorizer.concept_weighting.dimension
    if n_idf != len(concepts):
        raise ModelFormatError(f"concept idf of length {n_idf} for {len(concepts)} thesaurus concepts")
    try:
        return ConceptMatcher(Thesaurus(concepts), lemma_table)
    except ThesaurusFormatError as exc:
        raise ModelFormatError(f"model thesaurus: {exc}") from None


def _dec_params(d) -> dict:
    """MLP parameters by name; `_shape_rules` checks which names and shapes."""
    if not isinstance(d, dict):
        raise ModelFormatError(
            f"MLP parameters must be a {{name: array}} map, got {type(d).__name__}"
        )
    return {key: _dec_array(val, _FLOAT, key) for key, val in d.items()}


def _enc_stacked(m: StackedModel) -> dict:
    return {
        "trees": {cid: tree.root for cid, tree in m.trees.items()},
        "fallback_cutoff": m.fallback_cutoff,
    }


def _tree_ok(node, depth: int = 0) -> bool:
    """Whether DecisionTree.predict walks every path of a stored meta-tree to
    a 0/1 verdict over (score, rank), no deeper than fitting grows one."""
    if depth > TREE_MAX_DEPTH or not isinstance(node, dict):
        return False
    if node.get("leaf"):  # DecisionTree.predict's own leaf test
        return (
            node.keys() == {"leaf", "value"} and type(node["value"]) is int and node["value"] in (0, 1)
        )
    return (
        node.keys() == {"leaf", "feature", "threshold", "left", "right"}
        and type(node["feature"]) is int and node["feature"] in (0, 1)
        and isinstance(node["threshold"], float) and math.isfinite(node["threshold"])
        and _tree_ok(node["left"], depth + 1) and _tree_ok(node["right"], depth + 1)
    )


def _dec_stacked(d: dict, clf: StackedClassifier) -> StackedModel:
    """Trees only for the base's labels (restored first); a label never in a top-m has none."""
    _check_keys("a stacking model has", ("trees", "fallback_cutoff"), d)
    cutoff = d["fallback_cutoff"]
    if type(cutoff) is not int or cutoff < 1:
        raise ModelFormatError(f"fallback_cutoff must be an integer >= 1, got {cutoff!r}")
    if not isinstance(d["trees"], dict):
        raise ModelFormatError(
            f"stacking trees must be a {{label_id: tree}} map, got {type(d['trees']).__name__}"
        )
    known = set(clf.base.label_ids)
    for cid, root in d["trees"].items():
        if cid not in known:
            raise ModelFormatError(f"stacking tree {cid!r} is for a label the base does not rank")
        if not _tree_ok(root):
            raise ModelFormatError(f"stacking tree {cid!r} is malformed or too deep")
    trees = {cid: DecisionTree(root) for cid, root in d["trees"].items()}
    return StackedModel(trees=trees, fallback_cutoff=cutoff)


def _fitted_state(obj) -> dict:
    """The state table of a vectorizer (its variant's blocks) or classifier."""
    if isinstance(obj, TextVectorizer):
        return {
            **(_TERM_STATE if obj.uses_terms else {}),
            **(_CONCEPT_STATE if obj.uses_concepts else {}),
        }
    return _CLASSIFIER_STATE[type(obj)]


def _enc_state(obj) -> dict:
    return {attr: enc(getattr(obj, attr)) for attr, (enc, _) in _fitted_state(obj).items()}


def _check_keys(owner: str, keys, d) -> None:
    if not isinstance(d, dict):
        raise ModelFormatError(f"{owner} keys {sorted(keys)}, model holds a {type(d).__name__}")
    if set(d) != set(keys):
        raise ModelFormatError(f"{owner} keys {sorted(keys)}, model holds {sorted(d)}")


def _restore(obj, d: dict, width: int | None = None):
    """Fill the fitted state of `obj`, built from the config, from its block;
    a classifier's arrays must have `width` features."""
    table = _fitted_state(obj)
    _check_keys(f"config builds {type(obj).__name__} with state", table, d)
    for attr, (_, dec) in table.items():
        if dec is None:
            _restore(getattr(obj, attr), d[attr], width)
        else:
            setattr(obj, attr, dec(d[attr], obj))
    for name, array, shape in _shape_rules(obj, width):
        if array.shape != shape:
            raise ModelFormatError(
                f"array {name} of shape {list(array.shape)} where {list(shape)} is required"
            )
    return obj


def _shape_rules(obj, width: int | None) -> list[tuple[str, np.ndarray, tuple]]:
    """(name, array, required shape) of the restored arrays whose shape the
    vocabulary, label_ids, the config or `width` fixes."""
    if isinstance(obj, TextVectorizer):
        return [("term idf", obj.term_weighting.idf, (len(obj.vocab),))] if obj.uses_terms else []
    n_labels = len(getattr(obj, "label_ids", ()))
    if isinstance(obj, KnnClassifier):
        return [("matrix", obj.matrix, (obj.labels.n_docs, width))]
    if isinstance(obj, RocchioClassifier):
        return [("centroids", obj.centroids, (n_labels, width))]
    if isinstance(obj, LinearClassifier):
        return [("W", obj.W, (n_labels, width)), ("b", obj.b, (n_labels,))]
    if isinstance(obj, NaiveBayesClassifier):
        return [("_coef", obj._coef, (n_labels, width)), ("_const", obj._const, (n_labels,))]
    if isinstance(obj, MlpClassifier):
        h = obj.hidden
        shapes = {"W1": (h, width), "b1": (h,), "W2": (n_labels, h), "b2": (n_labels,)}
        if set(obj.params) != set(shapes):
            raise ModelFormatError(
                f"MLP parameters {sorted(obj.params)} where {sorted(shapes)} are required"
            )
        return [(key, obj.params[key], shape) for key, shape in shapes.items()]
    if isinstance(obj, L2RClassifier):
        # one weight per ranking feature of a CandidateSet
        return [("weights", obj.weights, (4,))]
    return []


def _floats(name: str) -> tuple:
    """The codec of the float array `name`."""
    return _enc_array, lambda d, owner: _dec_array(d, _FLOAT, name)


# fitted attribute -> (encode(value), decode(stored, owner)); decode None marks
# a nested classifier, the one its owner's constructor built, restored in place
_NESTED = (_enc_state, None)
_IDS = (list, lambda d, owner: tuple(_dec_strings(d, "label_ids")))
_WEIGHTING = (_enc_weighting, _dec_weighting)
_TERM_STATE = {
    "vocab": (list, lambda d, owner: {
        tok: i for i, tok in enumerate(_dec_strings(d, "vocab", first_seen=True))
    }),
    "term_weighting": _WEIGHTING,
}
_CONCEPT_STATE = {"concept_weighting": _WEIGHTING}
_CLASSIFIER_STATE = {
    KnnClassifier: {
        "matrix": (_enc_csr, lambda d, owner: _dec_csr(d, "matrix")),
        "labels": (_enc_labels, lambda d, owner: _dec_labels(d)),
    },
    RocchioClassifier: {
        "centroids": (_enc_csr, lambda d, owner: _dec_csr(d, "centroids")),
        "label_ids": _IDS,
    },
    NaiveBayesClassifier: {
        "label_ids": _IDS, "_const": _floats("_const"), "_coef": _floats("_coef")
    },
    LinearClassifier: {"label_ids": _IDS, "W": _floats("W"), "b": _floats("b")},
    MlpClassifier: {
        "label_ids": _IDS,
        "params": (
            lambda params: {key: _enc_array(val) for key, val in params.items()},
            lambda d, owner: _dec_params(d),
        ),
    },
    L2RClassifier: {
        "knn": _NESTED,
        "weights": _floats("weights"),
        "bias": (float, lambda d, owner: _dec_number(d, "bias")),
    },
    StackedClassifier: {
        "base": _NESTED,
        "model": (_enc_stacked, _dec_stacked),
    },
}


def _dec_config(d) -> RunConfig:
    if not isinstance(d, dict):
        raise ModelFormatError(f"config must be a {{field: value}} map, got {type(d).__name__}")
    names = [f.name for f in dataclasses.fields(RunConfig)]
    for key in d:
        if key not in names:
            raise ModelFormatError(f"unknown config key {key!r}")
    for name in names:
        if name not in d:
            raise ModelFormatError(f"missing config key {name!r}")
    return RunConfig(**d)


def save_pipeline(pipeline: FittedPipeline, path) -> None:
    matcher = pipeline.matcher
    container = {
        "format_version": FORMAT_VERSION,
        "config": pipeline.config.to_dict(),
        # training inputs; load rebuilds the concept matcher from them
        "lemma_table": dict(pipeline.lemma_table.mapping) if pipeline.lemma_table else None,
        "thesaurus": None if matcher is None else {
            cid: list(concept.phrases()) for cid, concept in matcher.thesaurus.concepts.items()
        },
        "vectorizer": _enc_state(pipeline.vectorizer),
        "classifier": _enc_state(pipeline.classifier),
    }
    with replacing(path) as fh:
        json.dump(container, fh)


def load_pipeline(path) -> FittedPipeline:
    try:
        with open(path, encoding="utf-8") as fh:
            container = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"model file is not JSON: {exc}") from None
    if not isinstance(container, dict):
        raise ModelFormatError(
            f"model container must be a JSON object, got {type(container).__name__}"
        )
    version = container.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version!r}")
    _check_keys(f"format version {version} has top-level", _CONTAINER_KEYS, container)
    config = _dec_config(container["config"])
    try:
        config.validate()  # the check the CLI flags get
    except ConfigError as exc:
        raise ModelFormatError(f"config refused: {exc}") from None
    lemma_table = _dec_lemma_table(container["lemma_table"])
    vectorizer = _restore(TextVectorizer(config.vectorization), container["vectorizer"])
    matcher = _dec_matcher(container["thesaurus"], vectorizer, lemma_table)
    classifier = _restore(build_classifier(config), container["classifier"], vectorizer.dimension)
    return FittedPipeline(config, vectorizer, classifier, lemma_table, matcher)
