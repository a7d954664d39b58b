"""semannot: multi-label semantic annotation of documents against
SKOS-style controlled vocabularies.

The pipeline vectorizes titles or full-text into sparse term/concept
features, trains lazy or eager multi-label classifiers, and evaluates them
with sample-averaged F1 under cross-validation.
"""

from .corpus import (
    Concept,
    Document,
    Thesaurus,
    load_corpus,
    load_thesaurus,
    read_corpus,
)
from .evaluate import EvalReport, evaluate_grid, evaluate_run, make_folds, sample_prf
from .features import ConceptMatcher, TextVectorizer
from .pipeline import CLASSIFIERS, RunConfig, fit_pipeline
from .preprocess import LemmaTable, lemmatize, preprocess, tokenize

__version__ = "0.1.0"

__all__ = [
    "Concept",
    "ConceptMatcher",
    "Document",
    "EvalReport",
    "LemmaTable",
    "RunConfig",
    "TextVectorizer",
    "Thesaurus",
    "CLASSIFIERS",
    "evaluate_grid",
    "evaluate_run",
    "fit_pipeline",
    "lemmatize",
    "load_corpus",
    "load_thesaurus",
    "make_folds",
    "preprocess",
    "read_corpus",
    "sample_prf",
    "tokenize",
]
