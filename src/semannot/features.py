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
from itertools import chain
from typing import Sequence

import numpy as np
from scipy import sparse as sp

from .corpus import Thesaurus
from .preprocess import LemmaTable, preprocess
from .sparse import row_norms, vstack

BM25_K = 1.6
BM25_B = 0.75

VARIANTS = ("tf-idf", "bm25", "cf-idf", "bm25c", "ctf-idf", "bm25ct")

# variant -> (uses term block, uses concept block, weighting scheme)
_VARIANT_PLAN = {
    "tf-idf": (True, False, "idf"),
    "bm25": (True, False, "bm25"),
    "cf-idf": (False, True, "idf"),
    "bm25c": (False, True, "bm25"),
    "ctf-idf": (True, True, "idf"),
    "bm25ct": (True, True, "bm25"),
}


class Vocabulary:
    """Frozen token -> dense feature index map, fitted on training text only."""

    def __init__(self, index: dict[str, int]):
        self.index = index

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def tokens_in_order(self) -> list[str]:
        return sorted(self.index, key=self.index.get)


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
        patterns: dict[tuple[str, ...], set[str]] = {}
        for cid in thesaurus.sorted_ids():
            for phrase in thesaurus.get(cid).phrases():
                tokens = tuple(preprocess(phrase, lemma_table))
                if tokens:
                    patterns.setdefault(tokens, set()).add(cid)
        self._init_from(thesaurus.sorted_ids(), patterns)

    def _init_from(
        self, concept_ids: list[str], patterns: dict[tuple[str, ...], set[str]]
    ) -> None:
        self.concept_index = {cid: i for i, cid in enumerate(concept_ids)}
        self._patterns = patterns
        self._root = _TrieNode()
        for tokens, owners in patterns.items():
            node = self._root
            for token in tokens:
                node = node.children.setdefault(token, _TrieNode())
            node.concepts = tuple(sorted(owners))

    def to_state(self) -> dict:
        ids = sorted(self.concept_index, key=self.concept_index.get)
        return {
            "concept_ids": ids,
            "patterns": [
                [list(tokens), sorted(owners)] for tokens, owners in sorted(self._patterns.items())
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ConceptMatcher":
        matcher = cls.__new__(cls)
        matcher._init_from(
            list(state["concept_ids"]),
            {tuple(tokens): set(owners) for tokens, owners in state["patterns"]},
        )
        return matcher

    @property
    def n_concepts(self) -> int:
        return len(self.concept_index)

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


def extract_concepts(tokens: list[str], matcher: ConceptMatcher) -> dict[int, float]:
    """Concept frequencies by concept index, from the longest-match scan."""
    counts = matcher.match_counts(tokens)
    return {matcher.concept_index[cid]: float(c) for cid, c in counts.items()}


@dataclass(frozen=True)
class CorpusCounts:
    """Raw term and concept counts of a list of documents, one row each.

    ``terms`` names the term columns in first-seen order over the rows.
    Each row of ``term_counts`` stores its entries in the order its terms
    first appear in the document, so the rows of any subset of documents
    still give that subset's own first-seen term order.  ``concept_counts``
    has one column per concept index of ``matcher`` and is present exactly
    when a matcher was given.
    """

    terms: list[str]
    term_counts: sp.csr_matrix
    matcher: ConceptMatcher | None = None
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
    """Count every document once: its terms, and its concepts when a
    matcher is given.  The one place token sequences become counts."""
    index: dict[str, int] = {}
    rows = [count_terms(seq, index) for seq in token_seqs]
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    nnz = int(indptr[-1])
    term_counts = sp.csr_matrix(
        (
            np.fromiter(chain.from_iterable(row.values() for row in rows), np.float64, nnz),
            np.fromiter(chain.from_iterable(rows), np.int64, nnz),
            indptr,
        ),
        shape=(len(rows), len(index)),
    )
    concept_counts = None
    if matcher is not None:
        concept_counts = vstack(
            [extract_concepts(seq, matcher) for seq in token_seqs], matcher.n_concepts
        )
    return CorpusCounts(list(index), term_counts, matcher, concept_counts)


@dataclass(frozen=True)
class WeightingModel:
    """Per-feature IDF values plus the BM25 corpus statistics.

    idf(w) = 1 + ln((N + 1) / (df(w) + 1)); both counts are incremented by
    one, as if one artificial document contained every feature, so features
    absent from all training documents still get a finite weight and
    features present everywhere keep idf = 1.
    """

    scheme: str
    idf: np.ndarray
    n_docs: int
    mean_doc_len: float
    k: float = BM25_K
    b: float = BM25_B

    @property
    def dimension(self) -> int:
        return len(self.idf)


def fit_weighting(
    counts: sp.csr_matrix,
    scheme: str,
    k: float = BM25_K,
    b: float = BM25_B,
) -> WeightingModel:
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
        n_docs=n,
        mean_doc_len=float(counts.data.sum()) / n,
        k=k,
        b=b,
    )


def apply_weighting(X: sp.csr_matrix, model: WeightingModel) -> sp.csr_matrix:
    """Re-weight raw count rows under the fitted model.

    bm25 uses the Okapi saturation form
    idf * tf * (k + 1) / (tf + k * (1 - b + b * len / mean_len)) with the
    document length taken as the sum of the row's raw counts.
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
        denom = tf + model.k * (1.0 - model.b + model.b * rel_len)
        weights = idf * tf * (model.k + 1.0) / denom
    return sp.csr_matrix((weights, X.indices, X.indptr), shape=X.shape)


def l2_normalize(X: sp.csr_matrix) -> sp.csr_matrix:
    """Scale every row to unit Euclidean norm; all-zero rows pass through."""
    norms = row_norms(X)
    factors = np.divide(1.0, norms, out=np.ones_like(norms), where=norms > 0.0)
    data = X.data * np.repeat(factors, np.diff(X.indptr))
    return sp.csr_matrix((data, X.indices, X.indptr), shape=X.shape)


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
    count-based classifiers consume these).
    """

    def __init__(self, variant: str):
        key = variant.lower()
        if key not in _VARIANT_PLAN:
            raise ValueError(
                f"unknown vectorization {variant!r}; valid: {', '.join(VARIANTS)}"
            )
        self.variant = key
        self.uses_terms, self.uses_concepts, self.scheme = _VARIANT_PLAN[key]
        self.matcher: ConceptMatcher | None = None
        self.vocab: Vocabulary | None = None
        self.term_weighting: WeightingModel | None = None
        self.concept_weighting: WeightingModel | None = None

    def fit(self, counts: CorpusCounts) -> "TextVectorizer":
        if not len(counts):
            raise ValueError("cannot fit a vectorizer on an empty training set")
        if self.uses_concepts and counts.matcher is None:
            raise ValueError(f"vectorization {self.variant!r} needs a thesaurus")
        if self.uses_terms:
            # columns in order of their first entry in the training rows:
            # the order in which a scan of the training token stream meets them
            columns, first = np.unique(counts.term_counts.indices, return_index=True)
            order = columns[np.argsort(first)].tolist()
            self.vocab = Vocabulary({counts.terms[j]: i for i, j in enumerate(order)})
            self.term_weighting = fit_weighting(self._term_counts(counts), self.scheme)
        if self.uses_concepts:
            self.matcher = counts.matcher
            self.concept_weighting = fit_weighting(counts.concept_counts, self.scheme)
        return self

    def _check_fitted(self) -> None:
        if (self.uses_terms and self.term_weighting is None) or (
            self.uses_concepts and self.concept_weighting is None
        ):
            raise RuntimeError("vectorizer is not fitted")

    @property
    def dimension(self) -> int:
        self._check_fitted()
        dim = 0
        if self.uses_terms:
            dim += len(self.vocab)
        if self.uses_concepts:
            dim += self.matcher.n_concepts
        return dim

    def _term_counts(self, counts: CorpusCounts) -> sp.csr_matrix:
        """Term count rows over the fitted vocabulary, indices sorted within
        each row; terms outside the vocabulary are dropped."""
        index = self.vocab.index
        lookup = np.array([index.get(term, -1) for term in counts.terms], dtype=np.int64)
        rows = counts.term_counts
        columns = lookup[rows.indices]
        kept = columns >= 0
        indptr = np.concatenate(([0], np.cumsum(kept)))[rows.indptr]
        X = sp.csr_matrix(
            (rows.data[kept], columns[kept], indptr), shape=(rows.shape[0], len(index))
        )
        X.sort_indices()
        return X

    def _blocks(self, counts: CorpusCounts) -> list[tuple[sp.csr_matrix, WeightingModel]]:
        """Raw count rows and fitted weighting of each feature block, terms first."""
        self._check_fitted()
        blocks = []
        if self.uses_terms:
            blocks.append((self._term_counts(counts), self.term_weighting))
        if self.uses_concepts:
            blocks.append((counts.concept_counts, self.concept_weighting))
        return blocks

    def transform(self, counts: CorpusCounts) -> sp.csr_matrix:
        return concat(*[l2_normalize(apply_weighting(c, w)) for c, w in self._blocks(counts)])

    def transform_counts(self, counts: CorpusCounts) -> sp.csr_matrix:
        return concat(*[c for c, _ in self._blocks(counts)])

    def transform_one(self, tokens: list[str]) -> sp.csr_matrix:
        return self.transform(count_corpus([tokens], self.matcher))

    def counts_one(self, tokens: list[str]) -> sp.csr_matrix:
        return self.transform_counts(count_corpus([tokens], self.matcher))


def dump_vectors(path, doc_ids: list[str], X: sp.csr_matrix) -> None:
    """Debug dump: one JSON line per document with indices and weights."""
    with open(path, "w", encoding="utf-8") as fh:
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
