"""semannot: multi-label semantic annotation of documents against
SKOS-style controlled vocabularies.

The pipeline vectorizes titles or full-text into sparse term/concept
features, trains lazy or eager multi-label classifiers, and evaluates them
with sample-averaged F1 under cross-validation.
"""

from .corpus import (
    Concept,
    CorpusStats,
    Document,
    Thesaurus,
    corpus_stats,
    load_corpus,
    load_thesaurus,
)
from .evaluate import EvalReport, evaluate_run, make_folds, sample_prf
from .features import ConceptMatcher, TextVectorizer, Vocabulary
from .pipeline import CLASSIFIERS, RunConfig, fit_pipeline
from .preprocess import LemmaTable, lemmatize, preprocess, tokenize

__version__ = "0.1.0"

__all__ = [
    "Concept",
    "ConceptMatcher",
    "CorpusStats",
    "Document",
    "EvalReport",
    "LemmaTable",
    "RunConfig",
    "TextVectorizer",
    "Thesaurus",
    "Vocabulary",
    "CLASSIFIERS",
    "corpus_stats",
    "evaluate_run",
    "fit_pipeline",
    "lemmatize",
    "load_corpus",
    "load_thesaurus",
    "make_folds",
    "preprocess",
    "sample_prf",
    "tokenize",
]
