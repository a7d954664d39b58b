"""Wiring of vectorization variants and classifiers into runnable
configurations; every (field, vectorization, classifier) triple is one path
through the processing pipeline."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field
from typing import Iterator, Sequence

from scipy import sparse as sp

from .corpus import FIELDS, THESAURUS_FORMATS, Document, Thesaurus
from .features import VARIANTS, ConceptMatcher, CorpusCounts, TextVectorizer, count_corpus
from .learners import (
    KnnClassifier,
    LabelMatrix,
    LinearClassifier,
    MlpClassifier,
    NaiveBayesClassifier,
    RocchioClassifier,
)
from .learners.lazy import KNN_K
from .learners.linear import LINEAR_ALPHA, LINEAR_EPOCHS
from .learners.mlp import ACTIVATIONS, MLP_EPOCHS, MLP_HIDDEN, MLP_THRESHOLD
from .multilabel import StackedClassifier
from .preprocess import LemmaTable, preprocess
from .ranking import L2R_K, L2RClassifier
from .sparse import ROW_BLOCK

CLASSIFIERS = (
    "knn",
    "rocchio-dt",
    "bayes-bernoulli",
    "bayes-multinomial",
    "svm",
    "lr",
    "lr-dt",
    "l2r",
    "l2r-dt",
    "mlp",
    "mlp-dt",
)

# classifiers consuming raw pre-weighting counts instead of weighted vectors
_COUNT_BASED = ("bayes-bernoulli", "bayes-multinomial")

# RunConfig fields that hold an integer, and those that hold any number (a
# bool is neither); epochs and alpha may also be None, the learner's default
_INTEGER_FIELDS = ("folds", "seed", "knn_k", "l2r_k", "epochs", "mlp_hidden")
_NUMBER_FIELDS = ("alpha", "mlp_threshold")


class ConfigError(ValueError):
    """A RunConfig that validate refuses."""


@dataclass
class RunConfig:
    """What a run computes: the corpus, the pipeline path and the learner
    knobs.  How a run executes (worker count, report paths) is not part of
    it, so reports and model files do not depend on it."""

    corpus: str | None = None
    thesaurus: str | None = None
    thesaurus_format: str = "tsv"
    field: str = "title"
    vectorization: str = "ctf-idf"
    classifier: str = "knn"
    folds: int = 10
    seed: int = 0
    lemma_table: str | None = None
    knn_k: int = KNN_K
    l2r_k: int = L2R_K
    epochs: int | None = None
    alpha: float | None = None
    mlp_hidden: int = MLP_HIDDEN
    mlp_threshold: float = MLP_THRESHOLD
    mlp_activation: str = "relu"

    def validate(self) -> None:
        """Raise ConfigError unless every field has a usable type and value;
        a model file's config is outside input, so types are checked too."""
        if self.thesaurus_format not in THESAURUS_FORMATS:
            raise ConfigError(
                f"unknown thesaurus_format {self.thesaurus_format!r}; "
                f"valid: {', '.join(THESAURUS_FORMATS)}"
            )
        if self.field not in FIELDS:
            raise ConfigError(f"unknown field {self.field!r}; valid: {', '.join(FIELDS)}")
        if not (isinstance(self.vectorization, str) and self.vectorization.lower() in VARIANTS):
            raise ConfigError(
                f"unknown vectorization {self.vectorization!r}; valid: {', '.join(VARIANTS)}"
            )
        if self.classifier not in CLASSIFIERS:
            raise ConfigError(
                f"unknown classifier {self.classifier!r}; valid: {', '.join(CLASSIFIERS)}"
            )
        if self.mlp_activation not in tuple(ACTIVATIONS):
            raise ConfigError(
                f"unknown mlp_activation {self.mlp_activation!r}; valid: {', '.join(ACTIVATIONS)}"
            )
        for name in _INTEGER_FIELDS + _NUMBER_FIELDS:
            value = getattr(self, name)
            if value is None and name in ("epochs", "alpha"):
                continue
            integer = name in _INTEGER_FIELDS
            if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
                what = "an integer" if integer else "a number"
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("knn_k", "l2r_k", "epochs", "mlp_hidden"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.alpha is not None and not self.alpha > 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if self.alpha == math.inf:
            raise ConfigError(f"alpha must be finite, got {self.alpha}")
        # the first SGD step shrinks the weights by 1 - alpha * LINEAR_ETA0,
        # with LINEAR_ETA0 = 1
        if self.alpha is not None and self.alpha >= 1:
            raise ConfigError(f"alpha must be < 1, got {self.alpha}")
        # NaN and the infinities fail the comparison too
        if not 0 < self.mlp_threshold < 1:
            raise ConfigError(f"mlp_threshold must be in (0, 1), got {self.mlp_threshold}")

    def to_dict(self) -> dict:
        return asdict(self)


def build_classifier(config: RunConfig):
    """Instantiate the classifier named by the config, seeded from it."""
    kind = config.classifier
    seed = config.seed
    alpha = config.alpha if config.alpha is not None else LINEAR_ALPHA
    linear_epochs = config.epochs if config.epochs is not None else LINEAR_EPOCHS
    mlp_epochs = config.epochs if config.epochs is not None else MLP_EPOCHS
    if kind == "knn":
        return KnnClassifier(k=config.knn_k)
    if kind == "rocchio-dt":
        return StackedClassifier(RocchioClassifier())
    if kind == "bayes-bernoulli":
        return NaiveBayesClassifier("bernoulli")
    if kind == "bayes-multinomial":
        return NaiveBayesClassifier("multinomial")
    if kind in ("svm", "lr", "lr-dt"):
        loss = "hinge" if kind == "svm" else "logistic"
        linear = LinearClassifier(loss=loss, alpha=alpha, epochs=linear_epochs, seed=seed)
        return StackedClassifier(linear) if kind == "lr-dt" else linear
    if kind in ("l2r", "l2r-dt"):
        l2r = L2RClassifier(k=config.l2r_k, alpha=alpha)
        return StackedClassifier(l2r) if kind == "l2r-dt" else l2r
    if kind in ("mlp", "mlp-dt"):
        mlp = MlpClassifier(
            hidden=config.mlp_hidden,
            activation=config.mlp_activation,
            epochs=mlp_epochs,
            threshold=config.mlp_threshold,
            seed=seed,
        )
        return StackedClassifier(mlp) if kind == "mlp-dt" else mlp
    raise ValueError(f"unknown classifier {kind!r}")


def concept_matcher(
    configs: Sequence[RunConfig], thesaurus: Thesaurus, lemma_table: LemmaTable | None = None
) -> ConceptMatcher | None:
    """The matcher that counting for the configs needs; None unless one of
    their vectorizations uses concepts."""
    uses = any(TextVectorizer(config.vectorization).uses_concepts for config in configs)
    return ConceptMatcher(thesaurus, lemma_table) if uses else None


def count_documents(
    docs: Sequence[Document],
    field: str,
    lemma_table: LemmaTable | None = None,
    matcher: ConceptMatcher | None = None,
) -> CorpusCounts:
    """Preprocess and count the given field of every document once, matching
    concepts when a matcher is given.  The one place document text becomes
    counts."""
    return count_corpus([preprocess(doc.text(field), lemma_table) for doc in docs], matcher)


@dataclass
class FittedPipeline:
    """A vectorizer and classifier fitted together, ready to annotate, with
    what counts documents for them: the lemma table and concept matcher."""

    config: RunConfig
    vectorizer: TextVectorizer
    classifier: object
    lemma_table: LemmaTable | None = dc_field(default=None, repr=False)
    matcher: ConceptMatcher | None = dc_field(default=None, repr=False)

    def count(self, docs: Sequence[Document]) -> CorpusCounts:
        """Counts of the documents' configured field."""
        return count_documents(docs, self.config.field, self.lemma_table, self.matcher)

    def vectorize(self, counts: CorpusCounts) -> sp.csr_matrix:
        """Classifier input rows: raw counts for the count-based classifiers,
        weighted unit vectors for the rest."""
        if self.config.classifier in _COUNT_BASED:
            return self.vectorizer.transform_counts(counts)
        return self.vectorizer.transform(counts)

    def predict_blocks(
        self, counts: CorpusCounts
    ) -> Iterator[tuple[sp.csr_matrix, list[set[str]]]]:
        """Vectorize and decide ROW_BLOCK documents at a time; yields each
        block's feature rows with one label set per row."""
        for start in range(0, len(counts), ROW_BLOCK):
            X = self.vectorize(counts.rows(slice(start, start + ROW_BLOCK)))
            yield X, self.classifier.predict(X)

    def predict_document(self, doc: Document) -> set[str]:
        return self.classifier.predict(self.vectorize(self.count([doc])))[0]


def fit_counts(
    config: RunConfig,
    counts: CorpusCounts,
    labels: LabelMatrix,
    lemma_table: LemmaTable | None = None,
    matcher: ConceptMatcher | None = None,
) -> tuple[FittedPipeline, sp.csr_matrix]:
    """Fit vectorizer and classifier on counted documents and their gold
    labels (no held-out split), counted with ``lemma_table`` and ``matcher``.
    Returns the pipeline and the classifier input rows it was fitted on."""
    vectorizer = TextVectorizer(config.vectorization).fit(counts)
    pipeline = FittedPipeline(config, vectorizer, build_classifier(config), lemma_table, matcher)
    X = pipeline.vectorize(counts)
    pipeline.classifier.fit(X, labels)
    return pipeline, X


def fit_pipeline(
    config: RunConfig,
    docs: Sequence[Document],
    thesaurus: Thesaurus,
    lemma_table: LemmaTable | None = None,
) -> tuple[FittedPipeline, sp.csr_matrix]:
    """Fit vectorizer and classifier on the given documents (no held-out
    split); returns the pipeline and the input rows it was fitted on."""
    config.validate()
    matcher = concept_matcher([config], thesaurus, lemma_table)
    counts = count_documents(docs, config.field, lemma_table, matcher)
    labels = LabelMatrix.from_gold([doc.gold_labels for doc in docs])
    return fit_counts(config, counts, labels, lemma_table, matcher)
