"""Independent brute-force reference implementations used by property and
acceptance tests.  These stay deliberately naive and share no code with the
implementations they check."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy import sparse as sp
from scipy.special import expit

from semannot.corpus import Concept, Thesaurus
from semannot.features import (
    VARIANTS,
    ConceptMatcher,
    apply_weighting,
    concat,
    fit_weighting,
)
from semannot.learners import (
    KnnClassifier,
    LinearClassifier,
    MlpClassifier,
    NaiveBayesClassifier,
    RocchioClassifier,
)
from semannot.learners.linear import LINEAR_ALPHA, LINEAR_EPOCHS
from semannot.learners.mlp import MLP_EPOCHS
from semannot.multilabel import STACKING_TOP_M, StackedClassifier
from semannot.preprocess import LemmaTable, preprocess
from semannot.ranking import CandidateSet, L2RClassifier
from semannot.sparse import l2_normalize


def stack_rows(rows, dimension: int) -> sp.csr_matrix:
    """Per-row index -> weight maps stacked one entry at a time: keys in
    sorted order, zero weights skipped, then the range check.  The
    reference for ``sparse.vstack``."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indices: list[int] = []
    data: list[float] = []
    for i, row in enumerate(rows):
        for j in sorted(row):
            if row[j] != 0.0:
                indices.append(j)
                data.append(row[j])
        indptr[i + 1] = len(indices)
    if indices and not 0 <= min(indices) <= max(indices) < dimension:
        raise ValueError(f"feature index out of range for dimension {dimension}")
    return sp.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64), indptr),
        shape=(len(rows), dimension),
    )


def sequential_row_norms(X: sp.csr_matrix) -> np.ndarray:
    """Each row's stored weights squared and added one at a time, in stored
    order, then ``math.sqrt``.  The reference for ``sparse.row_norms``."""
    norms = []
    for start, end in zip(X.indptr[:-1].tolist(), X.indptr[1:].tolist()):
        s = 0.0
        for v in X.data[start:end].tolist():
            s += v * v
        norms.append(math.sqrt(s))
    return np.array(norms, dtype=np.float64)


def folds_by_slicing(n_docs: int, n_folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded permutation cut into contiguous test blocks by hand, the
    first n_docs mod n_folds blocks one document longer; each fold trains
    on the rest.  The reference for ``evaluate.make_folds``."""
    permutation = np.random.default_rng(seed).permutation(n_docs)
    base, remainder = divmod(n_docs, n_folds)
    folds = []
    start = 0
    for i in range(n_folds):
        size = base + (1 if i < remainder else 0)
        test = np.sort(permutation[start:start + size])
        train = np.sort(np.concatenate([permutation[:start], permutation[start + size:]]))
        folds.append((train, test))
        start += size
    return folds


def scatter_columns(X: sp.csr_matrix, lookup, n_columns: int) -> np.ndarray:
    """Dense copy of ``X`` with column j written to column ``lookup[j]``
    and the columns whose lookup is -1 left out.  The reference for
    ``sparse.remap_columns``."""
    dense = X.toarray()
    out = np.zeros((X.shape[0], n_columns))
    for j, target in enumerate(lookup):
        if target >= 0:
            out[:, target] = dense[:, j]
    return out


def extract_concepts(tokens: list[str], matcher: ConceptMatcher) -> dict[int, float]:
    """Concept frequencies by concept index, from the matcher's longest-match
    scan of one document."""
    counts = matcher.match_counts(tokens)
    return {matcher.concept_index[cid]: float(c) for cid, c in counts.items()}


def concept_rows(token_seqs, matcher: ConceptMatcher) -> sp.csr_matrix:
    """Concept count rows stacked one document at a time: the reference for
    count_corpus's concept block."""
    rows = [extract_concepts(seq, matcher) for seq in token_seqs]
    return stack_rows(rows, len(matcher.concept_index))


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


def thesaurus_patterns(
    thesaurus: Thesaurus, table: LemmaTable | None = None
) -> dict[tuple[str, ...], set[str]]:
    """Every phrase of the thesaurus, preprocessed, with the concepts owning
    it; a phrase that preprocesses to no tokens is left out."""
    patterns: dict[tuple[str, ...], set[str]] = {}
    for cid in thesaurus.sorted_ids():
        for phrase in thesaurus.get(cid).phrases():
            tokens = tuple(preprocess(phrase, table))
            if tokens:
                patterns.setdefault(tokens, set()).add(cid)
    return patterns


def sorted_ranking(label_ids, scores) -> list[tuple[str, float, int]]:
    """One score row ranked by a Python sort keyed on (-score, id), ranks
    from 1, labels scoring -inf left out: the per-row reference for the
    block ranking."""
    ranked = [i for i in range(len(label_ids)) if scores[i] != -math.inf]
    order = sorted(ranked, key=lambda i: (-scores[i], label_ids[i]))
    return [(label_ids[i], float(scores[i]), pos + 1) for pos, i in enumerate(order)]


def ranked_ids(label_ids, ranks) -> list[str]:
    """The labels of one rank-block row in rank order, rank-0 labels left out."""
    return [label_ids[j] for j in sorted(range(len(label_ids)), key=lambda j: ranks[j]) if ranks[j]]


def walk_tree(node: dict, x) -> int:
    """A stored meta-tree's 0/1 verdict for one (score, rank) pair, walking
    its dict nodes from the root: x[feature] <= threshold goes left."""
    while not node["leaf"]:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["value"]


def per_ranking_stacking(model, ranking) -> set[str]:
    """The stacking rule on one (concept_id, score, rank) ranking: each label
    of its first STACKING_TOP_M entries follows its tree's verdict, or,
    without a tree, is assigned iff its rank is within the fallback cutoff."""
    decided = set()
    for cid, score, rank in ranking[:STACKING_TOP_M]:
        tree = model.trees.get(cid)
        if tree is not None:
            if walk_tree(tree.root, (score, float(rank))):
                decided.add(cid)
        elif rank <= model.fallback_cutoff:
            decided.add(cid)
    return decided


def per_row_rankings(clf, X) -> list[list[tuple[str, float, int]]]:
    """Each row's ranking, sorted row by row: L2R ranks each candidate set
    by its own ranker product, every other classifier its row of scores."""
    if isinstance(clf, L2RClassifier):
        return [
            sorted_ranking(
                [clf.label_ids[j] for j in cs.labels], expit(cs.features @ clf.weights - clf.bias)
            )
            for cs in clf.candidates(X)
        ]
    return [sorted_ranking(clf.label_ids, row) for row in clf.scores(X)]


def per_row_predict(clf, X) -> list[set[str]]:
    """Label sets decided row by row, by each classifier's own rule:
    majority vote over the neighbors' gold sets (kNN), sign of the margins
    (linear) or of the log-odds (Naive Bayes), the fixed MLP threshold,
    rank-and-cut per candidate set (L2R), and stacking per ranking."""
    if isinstance(clf, StackedClassifier):
        rankings = per_row_rankings(clf.base, X)
        return [per_ranking_stacking(clf.model, ranking) for ranking in rankings]
    if isinstance(clf, L2RClassifier):
        return [
            {cid for cid, _, rank in ranking if rank <= clf.cutoff}
            for ranking in per_row_rankings(clf, X)
        ]
    if isinstance(clf, KnnClassifier):
        idx, _ = clf.neighbors(X)
        k = idx.shape[1]
        decided = []
        for neighbors in idx:
            votes = Counter(cid for i in neighbors for cid in clf.labels.row_set(i))
            decided.append({cid for cid, n in votes.items() if n * 2 > k})
        return decided
    if isinstance(clf, LinearClassifier):
        rows, theta = clf.margins(X), 0.0
    elif isinstance(clf, NaiveBayesClassifier):
        rows, theta = clf.scores(X), 0.0
    else:
        rows, theta = clf.scores(X), clf.threshold
    return [{cid for cid, s in zip(clf.label_ids, row) if s > theta} for row in rows]


def loop_candidates(idx, sims, labels, priors) -> CandidateSet:
    """One document's candidate set built neighbor by neighbor and label by
    label: the reference for ``generate_candidates``."""
    f1 = np.zeros(labels.n_labels)
    f2 = np.zeros(labels.n_labels)
    f4 = np.zeros(labels.n_labels)
    Y = labels.Y
    for i, sim in zip(idx, sims):
        for j in Y.indices[Y.indptr[i]:Y.indptr[i + 1]]:
            f1[j] += sim
            f2[j] += 1.0
            f4[j] = max(f4[j], sim)
    chosen = np.flatnonzero(f2)
    features = np.column_stack([f1[chosen], f2[chosen], priors[chosen], f4[chosen]])
    return CandidateSet(labels=chosen.tolist(), features=features)


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


def random_thesaurus(
    rng: np.random.Generator, max_phrases: int = 50, tokens: list[str] = ORACLE_TOKENS
) -> Thesaurus:
    n_concepts = int(rng.integers(1, 9))
    concepts = {}
    budget = max_phrases
    for c in range(n_concepts):
        phrases = []
        for _ in range(int(rng.integers(1, 4))):
            if budget == 0:
                break
            length = int(rng.integers(1, 5))
            phrases.append(" ".join(rng.choice(tokens, size=length)))
            budget -= 1
        if not phrases:
            phrases = [rng.choice(tokens)]
        alts = []
        for p in phrases[1:]:
            if p != phrases[0] and p not in alts:
                alts.append(p)
        concepts[f"c{c}"] = Concept(f"c{c}", phrases[0], tuple(alts))
    return Thesaurus(concepts)


SKOS = "http://www.w3.org/2004/02/skos/core#"


def ntriples_text(
    thesaurus: Thesaurus, escaped: frozenset[str] = frozenset(), wide: bool = False
) -> str:
    """The thesaurus as N-Triples, one triple per label.  Every character
    of a literal or a subject IRI that is not ASCII or is in ``escaped`` is
    written as a ``\\u`` UCHAR, or as ``\\U`` when ``wide`` or outside the
    BMP; a quote or backslash left in a literal is written as an ECHAR."""

    def escape(text: str, echars: str = "") -> str:
        out = []
        for ch in text:
            if ch in escaped or not ch.isascii():
                out.append(f"\\U{ord(ch):08X}" if wide or ord(ch) > 0xFFFF else f"\\u{ord(ch):04x}")
            elif ch in echars:
                out.append("\\" + ch)
            else:
                out.append(ch)
        return "".join(out)

    def literal(text: str) -> str:
        return '"' + escape(text, '"\\') + '"'

    lines = []
    for cid, concept in thesaurus.concepts.items():
        subject = escape(cid)
        lines.append(f"<{subject}> <{SKOS}prefLabel> {literal(concept.pref_label)}@en .\n")
        lines += [
            f"<{subject}> <{SKOS}altLabel> {literal(alt)}@en .\n" for alt in concept.alt_labels
        ]
    return "".join(lines)


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


def reference_mlp_fit(
    X: sp.csr_matrix, Y: sp.csr_matrix, hidden: int, activation: str, epochs: int, seed: int
):
    """(params, epoch_losses) of MlpClassifier.fit on rows X and label
    indicator rows Y, by the out-of-place loop: every step builds a fresh
    gradient dict and a fresh temporary for each term of Adam's update.
    Training runs in float32 (float64 init and dropout draws rounded to
    float32, float32 batches, mask and moments); the params come back
    widened to float64.  The bitwise reference for the in-place training
    loop."""
    from semannot.learners.mlp import (
        ADAM_BETA1,
        ADAM_BETA2,
        ADAM_EPS,
        MLP_BATCH,
        MLP_DROPOUT,
        MLP_LEARNING_RATE,
    )

    f, df = {
        "relu": (lambda z: np.maximum(z, 0.0), lambda h: (h > 0.0).astype(np.float32)),
        "tanh": (np.tanh, lambda h: 1.0 - h * h),
    }[activation]
    n_docs, n_features = X.shape
    n_labels = Y.shape[1]
    rng = np.random.default_rng(seed)
    s1 = np.sqrt(2.0 / (n_features + hidden))
    s2 = np.sqrt(2.0 / (hidden + n_labels))
    params = {
        "W1": rng.normal(0.0, s1, size=(hidden, n_features)).astype(np.float32),
        "b1": np.zeros(hidden, dtype=np.float32),
        "W2": rng.normal(0.0, s2, size=(n_labels, hidden)).astype(np.float32),
        "b2": np.zeros(n_labels, dtype=np.float32),
    }
    moments = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.items()}
    step = 0
    epoch_losses = []
    for _ in range(epochs):
        order = rng.permutation(n_docs)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, n_docs, MLP_BATCH):
            batch_idx = order[lo:lo + MLP_BATCH]
            Xb = X[batch_idx].toarray().astype(np.float32)
            Tb = Y[batch_idx].toarray().astype(np.float32)
            mask = (rng.random((len(batch_idx), hidden)) >= MLP_DROPOUT).astype(np.float32)
            H = f(Xb @ params["W1"].T + params["b1"])
            dH = df(H)
            keep = mask / (1.0 - MLP_DROPOUT)
            Hd = H * keep
            Yb = Hd @ params["W2"].T + params["b2"]
            batch = Xb.shape[0]
            loss = float((np.logaddexp(0.0, Yb) - Tb * Yb).sum() / batch)
            Gy = (expit(Yb) - Tb) / batch
            grads = {"W2": Gy.T @ Hd, "b2": Gy.sum(axis=0)}
            Gz = (Gy @ params["W2"]) * keep * dH
            grads["W1"] = Gz.T @ Xb
            grads["b1"] = Gz.sum(axis=0)
            step += 1
            for key, grad in grads.items():
                m, v = moments[key]
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * grad
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * grad * grad
                m_hat = m / (1.0 - ADAM_BETA1 ** step)
                v_hat = v / (1.0 - ADAM_BETA2 ** step)
                params[key] -= MLP_LEARNING_RATE * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            epoch_loss += loss
            n_batches += 1
        epoch_losses.append(epoch_loss / n_batches)
    return {key: p.astype(np.float64) for key, p in params.items()}, epoch_losses


def gradient_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


# variant -> (term block, concept block, weighting), as documented in features
_ORACLE_PLAN = dict(
    zip(
        VARIANTS,
        [
            (True, False, "idf"),
            (True, False, "bm25"),
            (False, True, "idf"),
            (False, True, "bm25"),
            (True, True, "idf"),
            (True, True, "bm25"),
        ],
    )
)


def per_fold_matrices(
    variant: str,
    token_seqs: list[list[str]],
    matcher: ConceptMatcher,
    train_idx,
    test_idx,
    weighted: bool,
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """A fold's (train, test) feature rows the way a vectorizer fitted on
    the fold's own token sequences builds them: a first-seen vocabulary of
    the training tokens, every document counted against it token by token
    (unseen tokens ignored), concepts matched per document, then weighting
    fitted on the training rows.  The reference for the count-once path."""
    uses_terms, uses_concepts, scheme = _ORACLE_PLAN[variant]
    train = [token_seqs[i] for i in train_idx]
    test = [token_seqs[i] for i in test_idx]
    vocab: dict[str, int] = {}
    for seq in train:
        for token in seq:
            if token not in vocab:
                vocab[token] = len(vocab)

    def term_rows(seqs):
        rows = []
        for seq in seqs:
            row: Counter = Counter()
            for token in seq:
                if token in vocab:
                    row[vocab[token]] += 1
            rows.append(row)
        return stack_rows(rows, len(vocab))

    counters = []
    if uses_terms:
        counters.append(term_rows)
    if uses_concepts:
        counters.append(lambda seqs: concept_rows(seqs, matcher))
    models = [fit_weighting(count(train), scheme) for count in counters]

    def rows(seqs):
        blocks = [count(seqs) for count in counters]
        if weighted:
            blocks = [l2_normalize(apply_weighting(b, m)) for b, m in zip(blocks, models)]
        return concat(*blocks)

    return rows(train), rows(test)


def reference_build_classifier(config):
    """The classifier a config names, one branch per name, each stacked
    learner wrapped in its own branch.  The reference for
    ``pipeline.build_classifier``."""
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
        l2r = L2RClassifier(k=config.l2r_k, alpha=alpha)
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
