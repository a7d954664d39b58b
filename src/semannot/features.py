"""Sparse feature construction: term counts, concept extraction, IDF/BM25
re-weighting, L2 normalization and block concatenation.

Six vectorization variants are supported; term-based, concept-based, and
the concatenation of both, each with IDF or BM25 re-weighting:

    tf-idf, bm25, cf-idf, bm25c, ctf-idf, bm25ct

Documents are counted once (``count_corpus``); a vectorizer fitted on some
of the count rows takes its vocabulary and weighting from those rows only
and maps any count rows onto its own feature columns.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import sparse as sp

from .corpus import Thesaurus, ThesaurusFormatError, replacing
from .preprocess import LemmaTable, preprocess
from .sparse import csr_rows, l2_normalize, remap_columns, vstack

BM25_K = 1.6
BM25_B = 0.75

# variant -> (uses term block, uses concept block, weighting scheme)
_VARIANT_PLAN = {
    "tf-idf": (True, False, "idf"),
    "bm25": (True, False, "bm25"),
    "cf-idf": (False, True, "idf"),
    "bm25c": (False, True, "bm25"),
    "ctf-idf": (True, True, "idf"),
    "bm25ct": (True, True, "bm25"),
}
VARIANTS = tuple(_VARIANT_PLAN)


def count_terms(tokens: list[str], index: dict[str, int]) -> Counter[int]:
    """Term frequencies of one document by column, in the order the terms
    first appear in it; a term new to ``index`` takes the next column."""
    return Counter([index.setdefault(token, len(index)) for token in tokens])


class _TrieNode:
    __slots__ = ("children", "concepts")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.concepts: tuple[str, ...] = ()


class ConceptMatcher:
    """Multi-pattern matcher over lemmatized phrase token sequences.

    Scanning is greedy left to right: at each position the longest phrase
    starting there wins and is consumed whole; if phrases of that length are
    owned by several concepts, each is counted once.
    """

    def __init__(self, thesaurus: Thesaurus, lemma_table: LemmaTable | None = None):
        self.thesaurus = thesaurus
        self.concept_index = {cid: i for i, cid in enumerate(thesaurus.sorted_ids())}
        self._root = _TrieNode()
        for cid in self.concept_index:
            matchable = False
            for phrase in thesaurus.get(cid).phrases():
                node = self._root
                for token in preprocess(phrase, lemma_table):
                    node = node.children.setdefault(token, _TrieNode())
                # owners in concept-id order, each once; an empty phrase matches nothing
                if node is not self._root:
                    matchable = True
                    if cid not in node.concepts:
                        node.concepts += (cid,)
            if not matchable:
                raise ThesaurusFormatError(f"concept {cid!r} has no label with a token")

    def match_counts(self, tokens: list[str]) -> Counter[str]:
        counts: Counter[str] = Counter()
        pos = 0
        n = len(tokens)
        while pos < n:
            node = self._root
            best_len = 0
            best_concepts: tuple[str, ...] = ()
            for j in range(pos, n):
                node = node.children.get(tokens[j])
                if node is None:
                    break
                if node.concepts:
                    best_len = j + 1 - pos
                    best_concepts = node.concepts
            if best_len:
                for cid in best_concepts:
                    counts[cid] += 1
                pos += best_len
            else:
                pos += 1
        return counts


@dataclass(frozen=True)
class CorpusCounts:
    """Raw term and concept counts of a list of documents, one row each.

    ``terms`` names the term columns in first-seen order over the rows.
    Each row of ``term_counts`` stores its entries in the order its terms
    first appear in the document, so the rows of any subset of documents
    still give that subset's own first-seen term order.  ``concept_counts``
    has one column per concept index of the matcher the documents were
    counted with, and is present exactly when one was given.
    """

    terms: list[str]
    term_counts: sp.csr_matrix
    concept_counts: sp.csr_matrix | None = None

    def __len__(self) -> int:
        return self.term_counts.shape[0]

    def rows(self, idx) -> "CorpusCounts":
        """The counts of the documents at ``idx`` (index array or slice),
        over the same columns."""
        return replace(
            self,
            term_counts=self.term_counts[idx],
            concept_counts=None if self.concept_counts is None else self.concept_counts[idx],
        )


def count_corpus(
    token_seqs: Sequence[list[str]], matcher: ConceptMatcher | None = None
) -> CorpusCounts:
    """Count every token sequence once: its terms, and its concepts when a
    matcher is given.  The one place token sequences become counts."""
    index: dict[str, int] = {}
    rows = [count_terms(seq, index) for seq in token_seqs]
    term_counts = csr_rows(rows, len(index))
    concept_counts = None
    if matcher is not None:
        columns = matcher.concept_index
        rows = [{columns[c]: n for c, n in matcher.match_counts(seq).items()} for seq in token_seqs]
        concept_counts = vstack(rows, len(columns))
    return CorpusCounts(list(index), term_counts, concept_counts)


@dataclass(frozen=True)
class WeightingModel:
    """Per-feature IDF values plus, for BM25 only, the mean training
    document length.

    idf(w) = 1 + ln((N + 1) / (df(w) + 1)); both counts are incremented by
    one, as if one artificial document contained every feature, so features
    absent from all training documents still get a finite weight and
    features present everywhere keep idf = 1.
    """

    scheme: str
    idf: np.ndarray
    mean_doc_len: float | None

    @property
    def dimension(self) -> int:
        return len(self.idf)


def fit_weighting(counts: sp.csr_matrix, scheme: str) -> WeightingModel:
    """Fit IDF (and BM25 length statistics) on training count rows."""
    if scheme not in ("idf", "bm25"):
        raise ValueError(f"unknown weighting scheme {scheme!r}")
    n = counts.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    df = np.bincount(counts.indices, minlength=counts.shape[1])
    idf = 1.0 + np.log((n + 1.0) / (df.astype(np.float64) + 1.0))
    return WeightingModel(
        scheme=scheme,
        idf=idf,
        mean_doc_len=float(counts.data.sum()) / n if scheme == "bm25" else None,
    )


def apply_weighting(X: sp.csr_matrix, model: WeightingModel) -> sp.csr_matrix:
    """Re-weight raw count rows under the fitted model.

    bm25 uses the Okapi saturation form
    idf * tf * (k + 1) / (tf + k * (1 - b + b * len / mean_len)) at the fixed
    k = BM25_K and b = BM25_B, with the document length taken as the sum of
    the row's raw counts.
    """
    if X.shape[1] != model.dimension:
        raise ValueError(
            f"matrix dimension {X.shape[1]} does not match model dimension {model.dimension}"
        )
    tf = X.data
    idf = model.idf[X.indices]
    if model.scheme == "idf":
        weights = tf * idf
    else:
        # counts are whole numbers, so row sums are exact in any order
        lengths = np.repeat(np.asarray(X.sum(axis=1)).ravel(), np.diff(X.indptr))
        rel_len = lengths / model.mean_doc_len if model.mean_doc_len > 0 else 1.0
        denom = tf + BM25_K * (1.0 - BM25_B + BM25_B * rel_len)
        weights = idf * tf * (BM25_K + 1.0) / denom
    return sp.csr_matrix((weights, X.indices, X.indptr), shape=X.shape)


def concat(*blocks: sp.csr_matrix) -> sp.csr_matrix:
    """Concatenate feature blocks column-wise; later blocks' indices shift
    past the earlier ones.

    The result is intentionally not re-normalized: each block keeps its own
    unit norm, so a row has norm sqrt(2) when both blocks are nonzero.
    """
    if len(blocks) == 1:
        return blocks[0]
    return sp.hstack(blocks, format="csr")


class TextVectorizer:
    """One fitted path through the vectorization half of the pipeline.

    fit() learns the vocabulary and the IDF/BM25 statistics from the count
    rows of the training documents only; transform() applies the identical
    pipeline to the count rows of any documents.  transform_counts()
    exposes the raw pre-weighting counts in the same index layout (the
    count-based classifiers consume these).  A concept variant reads count
    rows taken with a concept matcher.
    """

    def __init__(self, variant: str):
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown vectorization {variant!r}; valid: {', '.join(VARIANTS)}"
            )
        self.variant = variant
        self.uses_terms, self.uses_concepts, self.scheme = _VARIANT_PLAN[variant]
        # token -> term column, in column order; fitted on training text only
        self.vocab: dict[str, int] | None = None
        self.term_weighting: WeightingModel | None = None
        self.concept_weighting: WeightingModel | None = None

    def fit(self, counts: CorpusCounts) -> "TextVectorizer":
        if not len(counts):
            raise ValueError("cannot fit a vectorizer on an empty training set")
        concepts = self._concept_counts(counts)
        if self.uses_terms:
            # columns in order of their first entry in the training rows:
            # the order in which a scan of the training token stream meets them
            columns, first = np.unique(counts.term_counts.indices, return_index=True)
            order = columns[np.argsort(first)]
            self.vocab = {counts.terms[j]: i for i, j in enumerate(order.tolist())}
            # every training entry is a vocabulary term: keep the vocabulary's idf, in its order
            weighting = fit_weighting(counts.term_counts, self.scheme)
            self.term_weighting = replace(weighting, idf=weighting.idf[order])
        if concepts is not None:
            self.concept_weighting = fit_weighting(concepts, self.scheme)
        return self

    def _concept_counts(self, counts: CorpusCounts) -> sp.csr_matrix | None:
        """The concept rows a concept variant reads; None for a term variant."""
        if self.uses_concepts and counts.concept_counts is None:
            raise ValueError(f"vectorization {self.variant!r} needs a thesaurus")
        return counts.concept_counts if self.uses_concepts else None

    def _check_fitted(self) -> None:
        if (self.uses_terms and self.term_weighting is None) or (
            self.uses_concepts and self.concept_weighting is None
        ):
            raise RuntimeError("vectorizer is not fitted")

    @property
    def dimension(self) -> int:
        self._check_fitted()
        return sum(w.dimension for w in (self.term_weighting, self.concept_weighting) if w)

    def _term_counts(self, counts: CorpusCounts) -> sp.csr_matrix:
        """Term count rows over the fitted vocabulary, indices sorted within
        each row; terms outside the vocabulary are dropped."""
        lookup = np.array([self.vocab.get(term, -1) for term in counts.terms], dtype=np.int64)
        return remap_columns(counts.term_counts, lookup, len(self.vocab))

    def _blocks(self, counts: CorpusCounts) -> list[tuple[sp.csr_matrix, WeightingModel]]:
        """Raw count rows and fitted weighting of each feature block, terms first."""
        self._check_fitted()
        blocks = []
        if self.uses_terms:
            blocks.append((self._term_counts(counts), self.term_weighting))
        if self.uses_concepts:
            blocks.append((self._concept_counts(counts), self.concept_weighting))
        return blocks

    def transform(self, counts: CorpusCounts) -> sp.csr_matrix:
        return concat(*[l2_normalize(apply_weighting(c, w)) for c, w in self._blocks(counts)])

    def transform_counts(self, counts: CorpusCounts) -> sp.csr_matrix:
        return concat(*[c for c, _ in self._blocks(counts)])

    def transform_one(self, tokens: list[str], matcher: ConceptMatcher | None = None):
        return self.transform(count_corpus([tokens], matcher))

    def counts_one(self, tokens: list[str], matcher: ConceptMatcher | None = None):
        return self.transform_counts(count_corpus([tokens], matcher))


def dump_vectors(path, doc_ids: list[str], X: sp.csr_matrix) -> None:
    """Debug dump: one JSON line per document with indices and weights."""
    with replacing(path) as fh:
        for doc_id, start, end in zip(doc_ids, X.indptr[:-1], X.indptr[1:]):
            fh.write(
                json.dumps(
                    {
                        "id": doc_id,
                        "indices": [int(i) for i in X.indices[start:end]],
                        "weights": [float(w) for w in X.data[start:end]],
                    }
                )
                + "\n"
            )
