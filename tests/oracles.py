"""Independent brute-force reference implementations used by property and
acceptance tests.  These stay deliberately naive and share no code with the
implementations they check."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy import sparse as sp

from semannot.corpus import Concept, Thesaurus


def brute_force_idf(matrix: sp.csr_matrix, dimension: int) -> list[float]:
    """1 + ln((N+1)/(df+1)) computed feature by feature, document by document."""
    rows = matrix.toarray().tolist()
    n = len(rows)
    values = []
    for w in range(dimension):
        df = 0
        for row in rows:
            if row[w] > 0:
                df += 1
        values.append(1.0 + math.log((n + 1) / (df + 1)))
    return values


def naive_longest_match(
    tokens: list[str], patterns: dict[tuple[str, ...], set[str]]
) -> Counter:
    """Try every phrase at every position, prefer the longest, consume it."""
    counts: Counter = Counter()
    pos = 0
    n = len(tokens)
    while pos < n:
        matches = [p for p in patterns if list(p) == tokens[pos:pos + len(p)]]
        if matches:
            longest = max(len(p) for p in matches)
            owners: set[str] = set()
            for p in matches:
                if len(p) == longest:
                    owners.update(patterns[p])
            for cid in owners:
                counts[cid] += 1
            pos += longest
        else:
            pos += 1
    return counts


# stable under tokenization and the suffix lemmatizer (no trailing 's')
ORACLE_TOKENS = ["ta", "tb", "tc", "td", "te"]


def random_count_vectors(
    rng: np.random.Generator, max_docs: int = 20, max_features: int = 30
) -> sp.csr_matrix:
    """Random whole-number count rows, one document per row."""
    n_docs = int(rng.integers(1, max_docs + 1))
    dim = int(rng.integers(1, max_features + 1))
    dense = np.zeros((n_docs, dim))
    for row in dense:
        nnz = int(rng.integers(0, dim + 1))
        idx = np.sort(rng.choice(dim, size=nnz, replace=False))
        row[idx] = rng.integers(1, 6, size=nnz)
    return sp.csr_matrix(dense)


def random_thesaurus(rng: np.random.Generator, max_phrases: int = 50) -> Thesaurus:
    n_concepts = int(rng.integers(1, 9))
    concepts = {}
    budget = max_phrases
    for c in range(n_concepts):
        phrases = []
        for _ in range(int(rng.integers(1, 4))):
            if budget == 0:
                break
            length = int(rng.integers(1, 5))
            phrases.append(" ".join(rng.choice(ORACLE_TOKENS, size=length)))
            budget -= 1
        if not phrases:
            phrases = [rng.choice(ORACLE_TOKENS)]
        alts = []
        for p in phrases[1:]:
            if p != phrases[0] and p not in alts:
                alts.append(p)
        concepts[f"c{c}"] = Concept(f"c{c}", phrases[0], tuple(alts))
    return Thesaurus(concepts)


def random_token_stream(rng: np.random.Generator, max_len: int = 30) -> list[str]:
    length = int(rng.integers(0, max_len + 1))
    return [str(t) for t in rng.choice(ORACLE_TOKENS, size=length)]


def central_difference_grads(params, X, T, activation, epsilon=1e-5):
    """Finite-difference gradient of the MLP batch loss, one parameter at a
    time; the independent check of the backpropagated gradients."""
    from semannot.learners.mlp import loss_and_grads

    grads = {}
    for key, value in params.items():
        grad = np.zeros_like(value)
        flat = value.ravel()
        gflat = grad.ravel()
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + epsilon
            up, _ = loss_and_grads(params, X, T, activation)
            flat[j] = original - epsilon
            down, _ = loss_and_grads(params, X, T, activation)
            flat[j] = original
            gflat[j] = (up - down) / (2.0 * epsilon)
        grads[key] = grad
    return grads


def gradient_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))
