"""Dense label index and the docs x labels indicator shared by all learners."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse as sp

from ..sparse import remap_columns, vstack


@dataclass
class LabelMatrix:
    """Binary docs x labels indicator over a dense 0..L-1 label index.

    label_ids are sorted concept ids; ``Y`` is a 0/1 CSR matrix with one
    row per document, indices sorted within each row.  Every row must be
    nonempty for training corpora.
    """

    label_ids: tuple[str, ...]
    Y: sp.csr_matrix

    @classmethod
    def from_gold(cls, gold_sets: list[frozenset[str] | set[str]]) -> "LabelMatrix":
        used = sorted(set().union(*gold_sets)) if gold_sets else []
        index = {cid: i for i, cid in enumerate(used)}
        for i, gold in enumerate(gold_sets):
            if not gold:
                raise ValueError(f"document {i} has an empty gold label set")
        return cls.from_rows(tuple(used), [sorted(index[c] for c in gold) for gold in gold_sets])

    @classmethod
    def from_rows(cls, label_ids: tuple[str, ...], rows: Sequence[Sequence[int]]) -> "LabelMatrix":
        """Indicator whose row i holds the label indices ``rows[i]``."""
        return cls(label_ids, vstack([dict.fromkeys(row, 1.0) for row in rows], len(label_ids)))

    def take(self, rows: np.ndarray) -> "LabelMatrix":
        """The indicator of the documents at ``rows``, over only the labels
        they carry: what ``from_gold`` gives for those documents' gold sets."""
        Y = self.Y[rows]
        used = np.flatnonzero(np.bincount(Y.indices, minlength=self.n_labels))
        lookup = np.full(self.n_labels, -1, dtype=np.int64)
        lookup[used] = np.arange(len(used))
        label_ids = tuple(self.label_ids[j] for j in used)
        return LabelMatrix(label_ids, remap_columns(Y, lookup, len(used)))

    @property
    def n_labels(self) -> int:
        return len(self.label_ids)

    @property
    def n_docs(self) -> int:
        return self.Y.shape[0]

    def row_set(self, i: int) -> frozenset[str]:
        indices = self.Y.indices[self.Y.indptr[i]:self.Y.indptr[i + 1]]
        return frozenset(self.label_ids[j] for j in indices)

    def priors(self) -> np.ndarray:
        """Fraction of documents carrying each label."""
        return np.asarray(self.Y.sum(axis=0)).ravel() / max(1, self.n_docs)

    def mean_labels_per_doc(self) -> float:
        return self.Y.nnz / max(1, self.n_docs)
