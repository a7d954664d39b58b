"""Wiring of vectorization variants and classifiers into runnable
configurations; every (field, vectorization, classifier) triple is one path
through the processing pipeline."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from itertools import islice
from typing import Iterable, Iterator

from scipy import sparse as sp

from .corpus import Document, Thesaurus
from .features import VARIANTS, TextVectorizer
from .learners import (
    KnnClassifier,
    LabelMatrix,
    LinearClassifier,
    MlpClassifier,
    NaiveBayesClassifier,
    RocchioClassifier,
)
from .learners.linear import LINEAR_ALPHA, LINEAR_EPOCHS
from .learners.mlp import MLP_EPOCHS
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
    corpus: str | None = None
    thesaurus: str | None = None
    thesaurus_format: str = "tsv"
    field: str = "title"
    vectorization: str = "ctf-idf"
    classifier: str = "knn"
    folds: int = 10
    seed: int = 0
    jobs: int = 1
    lemma_table: str | None = None
    knn_k: int = 1
    l2r_k: int = L2R_K
    epochs: int | None = None
    alpha: float | None = None
    mlp_hidden: int = 1000
    mlp_threshold: float = 0.2
    mlp_activation: str = "relu"
    mlp_batch: int = 256
    out_json: str | None = None
    out_csv: str | None = None

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
            batch_size=config.mlp_batch,
            threshold=config.mlp_threshold,
            seed=seed,
        )
        return StackedClassifier(mlp) if kind == "mlp-dt" else mlp
    raise ValueError(f"unknown classifier {kind!r}")


@dataclass
class FittedPipeline:
    """A vectorizer and classifier fitted together, ready to annotate."""

    config: RunConfig
    vectorizer: TextVectorizer
    classifier: object
    lemma_table: LemmaTable | None = dc_field(default=None, repr=False)

    def vectorize(self, token_seqs: list[list[str]]) -> sp.csr_matrix:
        """Classifier input rows: raw counts for the count-based classifiers,
        weighted unit vectors for the rest."""
        if self.config.classifier in _COUNT_BASED:
            return self.vectorizer.transform_counts(token_seqs)
        return self.vectorizer.transform(token_seqs)

    def predict_blocks(
        self, token_seqs: Iterable[list[str]]
    ) -> Iterator[tuple[sp.csr_matrix, list[set[str]]]]:
        """Vectorize and decide ROW_BLOCK documents at a time; yields each
        block's feature rows with one label set per row."""
        seqs = iter(token_seqs)
        while block := list(islice(seqs, ROW_BLOCK)):
            X = self.vectorize(block)
            yield X, self.classifier.predict(X)

    def predict_document(self, doc: Document) -> set[str]:
        tokens = preprocess(doc.text(self.config.field), self.lemma_table)
        return self.classifier.predict(self.vectorize([tokens]))[0]


def fit_pipeline(
    config: RunConfig,
    docs: list[Document],
    thesaurus: Thesaurus,
    lemma_table: LemmaTable | None = None,
    token_seqs: list[list[str]] | None = None,
) -> FittedPipeline:
    """Fit vectorizer and classifier on the given documents (no held-out
    split); ``token_seqs``, when given, are their preprocessed texts."""
    config.validate()
    if token_seqs is None:
        token_seqs = [preprocess(doc.text(config.field), lemma_table) for doc in docs]
    vectorizer = TextVectorizer(
        config.vectorization, thesaurus=thesaurus, lemma_table=lemma_table
    ).fit(token_seqs)
    pipeline = FittedPipeline(config, vectorizer, build_classifier(config), lemma_table)
    labels = LabelMatrix.from_gold([doc.gold_labels for doc in docs])
    pipeline.classifier.fit(pipeline.vectorize(token_seqs), labels)
    return pipeline
