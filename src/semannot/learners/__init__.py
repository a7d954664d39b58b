"""Base classifiers: lazy (kNN, Rocchio) and eager (Naive Bayes, averaged
SGD linear models, MLP)."""

from .labels import LabelMatrix
from .lazy import KnnClassifier, RocchioClassifier
from .bayes import NaiveBayesClassifier
from .linear import LinearClassifier
from .mlp import MlpClassifier, TrainingDiverged

__all__ = [
    "LabelMatrix",
    "KnnClassifier",
    "RocchioClassifier",
    "NaiveBayesClassifier",
    "LinearClassifier",
    "MlpClassifier",
    "TrainingDiverged",
]
