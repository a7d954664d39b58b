"""Wiring of vectorization variants and classifiers into runnable
configurations; every (field, vectorization, classifier) triple is one path
through the processing pipeline."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from typing import Iterator, Sequence

from scipy import sparse as sp

from .corpus import Document, Thesaurus
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
from .learners.mlp import MLP_EPOCHS, MLP_HIDDEN, MLP_THRESHOLD
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

FIELDS = ("title", "fulltext")

# classifiers consuming raw pre-weighting counts instead of weighted vectors
_COUNT_BASED = ("bayes-bernoulli", "bayes-multinomial")


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
        if self.field not in FIELDS:
            raise ValueError(f"unknown field {self.field!r}; valid: {', '.join(FIELDS)}")
        if self.vectorization.lower() not in VARIANTS:
            raise ValueError(
                f"unknown vectorization {self.vectorization!r}; valid: {', '.join(VARIANTS)}"
            )
        if self.classifier not in CLASSIFIERS:
            raise ValueError(
                f"unknown classifier {self.classifier!r}; valid: {', '.join(CLASSIFIERS)}"
            )
        if self.folds < 2:
            raise ValueError("folds must be >= 2")

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
        l2r = L2RClassifier(k=config.l2r_k, alpha=alpha, epochs=linear_epochs, seed=seed)
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


def count_documents(
    configs: Sequence[RunConfig],
    docs: list[Document],
    thesaurus: Thesaurus,
    lemma_table: LemmaTable | None = None,
) -> CorpusCounts:
    """Preprocess and count the configs' field of every document once; all
    configs share that field.  Concepts are matched only when a config's
    vectorization uses them."""
    if any(TextVectorizer(config.vectorization).uses_concepts for config in configs):
        matcher = ConceptMatcher(thesaurus, lemma_table)
    else:
        matcher = None
    field = configs[0].field
    return count_corpus([preprocess(doc.text(field), lemma_table) for doc in docs], matcher)


@dataclass
class FittedPipeline:
    """A vectorizer and classifier fitted together, ready to annotate."""

    config: RunConfig
    vectorizer: TextVectorizer
    classifier: object
    lemma_table: LemmaTable | None = dc_field(default=None, repr=False)

    def count(self, token_seqs: Sequence[list[str]]) -> CorpusCounts:
        """Counts of preprocessed documents, with this pipeline's concept matcher."""
        return count_corpus(token_seqs, self.vectorizer.matcher)

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
        tokens = preprocess(doc.text(self.config.field), self.lemma_table)
        return self.classifier.predict(self.vectorize(self.count([tokens])))[0]


def fit_counts(
    config: RunConfig,
    counts: CorpusCounts,
    labels: LabelMatrix,
    lemma_table: LemmaTable | None = None,
) -> FittedPipeline:
    """Fit vectorizer and classifier on counted documents and their gold
    labels (no held-out split)."""
    vectorizer = TextVectorizer(config.vectorization).fit(counts)
    pipeline = FittedPipeline(config, vectorizer, build_classifier(config), lemma_table)
    pipeline.classifier.fit(pipeline.vectorize(counts), labels)
    return pipeline


def fit_pipeline(
    config: RunConfig,
    docs: list[Document],
    thesaurus: Thesaurus,
    lemma_table: LemmaTable | None = None,
) -> FittedPipeline:
    """Fit vectorizer and classifier on the given documents (no held-out
    split)."""
    config.validate()
    counts = count_documents([config], docs, thesaurus, lemma_table)
    labels = LabelMatrix.from_gold([doc.gold_labels for doc in docs])
    return fit_counts(config, counts, labels, lemma_table)
