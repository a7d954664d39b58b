"""Wiring of vectorization variants and classifiers into runnable
configurations; every (field, vectorization, classifier) triple is one path
through the processing pipeline."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field
from itertools import islice
from typing import Iterable, Iterator, Sequence

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
from .learners.mlp import ACTIVATIONS, MLP_HIDDEN, MLP_THRESHOLD
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

# RunConfig fields that name one of a fixed set of values
_CHOICES = {
    "thesaurus_format": THESAURUS_FORMATS,
    "field": FIELDS,
    "vectorization": VARIANTS,
    "classifier": CLASSIFIERS,
    "mlp_activation": tuple(ACTIVATIONS),
}
# RunConfig fields that hold an integer, with the least value each takes, and
# those that hold any number (a bool is neither); epochs and alpha may also be
# None, the learner's default
_MINIMUMS = {"folds": 2, "seed": 0, "knn_k": 1, "l2r_k": 1, "epochs": 1, "mlp_hidden": 1}
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
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ConfigError(f"unknown {name} {value!r}; valid: {', '.join(choices)}")
        for name in (*_MINIMUMS, *_NUMBER_FIELDS):
            value = getattr(self, name)
            if value is None and name in ("epochs", "alpha"):
                continue
            integer = name in _MINIMUMS
            if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
                what = "an integer" if integer else "a number"
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        for name, least in _MINIMUMS.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
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
    """Instantiate the classifier named by the config, seeded from it; a
    ``-dt`` name stacks its base learner."""
    kind = config.classifier
    if kind not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {kind!r}")
    base = kind.removesuffix("-dt")
    # passed only when set, so each learner's constructor holds its default
    alpha = {} if config.alpha is None else {"alpha": config.alpha}
    epochs = {} if config.epochs is None else {"epochs": config.epochs}
    if base == "knn":
        learner = KnnClassifier(k=config.knn_k)
    elif base == "rocchio":
        learner = RocchioClassifier()
    elif base.startswith("bayes-"):
        learner = NaiveBayesClassifier(base.removeprefix("bayes-"))
    elif base in ("svm", "lr"):
        loss = "hinge" if base == "svm" else "logistic"
        learner = LinearClassifier(loss=loss, seed=config.seed, **alpha, **epochs)
    elif base == "l2r":
        learner = L2RClassifier(k=config.l2r_k, **alpha)
    else:
        learner = MlpClassifier(
            hidden=config.mlp_hidden,
            activation=config.mlp_activation,
            threshold=config.mlp_threshold,
            seed=config.seed,
            **epochs,
        )
    return StackedClassifier(learner) if kind != base else learner


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
        """Classifier input rows: raw counts for Naive Bayes, which models
        counts, and weighted unit vectors for the rest."""
        if isinstance(self.classifier, NaiveBayesClassifier):
            return self.vectorizer.transform_counts(counts)
        return self.vectorizer.transform(counts)

    def decide(self, counts: CorpusCounts) -> tuple[sp.csr_matrix, list[set[str]]]:
        """Vectorize and decide the given count rows (callers pass at most
        ROW_BLOCK); returns their feature rows and one label set per row."""
        X = self.vectorize(counts)
        return X, self.classifier.predict(X)

    def annotate(self, docs: Iterable[Document]) -> Iterator[tuple[Document, set[str]]]:
        """Each document with its label set, in order; takes ROW_BLOCK
        documents at a time from any iterable, then counts and decides them."""
        docs = iter(docs)
        while block := list(islice(docs, ROW_BLOCK)):
            yield from zip(block, self.decide(self.count(block))[1], strict=True)

    def predict_document(self, doc: Document) -> set[str]:
        return next(self.annotate([doc]))[1]


def fit_counts(
    config: RunConfig, counts: CorpusCounts, labels: LabelMatrix
) -> tuple[FittedPipeline, sp.csr_matrix]:
    """Fit vectorizer and classifier on counted documents and their gold
    labels (no held-out split), leaving the lemma table and matcher unset.
    Returns the pipeline and the classifier input rows it was fitted on."""
    vectorizer = TextVectorizer(config.vectorization).fit(counts)
    pipeline = FittedPipeline(config, vectorizer, build_classifier(config))
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
    pipeline, X = fit_counts(config, counts, labels)
    pipeline.lemma_table, pipeline.matcher = lemma_table, matcher
    return pipeline, X
