"""Seeded synthetic corpora with controllable difficulty.

The original evaluation corpora are license-gated, so tests and demos run
on generated ones.  Each label owns a signature concept (whose surface
form can vary across synonym phrases) plus a keyword pool; difficulty is
tuned through keyword overlap between labels, synonym usage, and noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Concept, Document, Thesaurus

# letters only and no trailing 's', so tokenization and the suffix
# lemmatizer leave generated words untouched
_ALPHABET = "abcdefghijklmnopqr"


def _word(prefix: str, n: int) -> str:
    digits = []
    n = int(n)
    while True:
        n, rem = divmod(n, len(_ALPHABET))
        digits.append(_ALPHABET[rem])
        if n == 0:
            break
    return prefix + "".join(reversed(digits))


class SettingError(ValueError):
    """A generate_corpus argument outside its range: ``name`` is the
    parameter, ``requirement`` what its value must be."""

    def __init__(self, name: str, requirement: str):
        super().__init__(f"{name} {requirement}")
        self.name = name
        self.requirement = requirement


# generate_corpus integer parameters, with their least value
_MINIMUMS = {
    "n_labels": 1,
    "docs_per_label": 0,
    "keywords_per_label": 0,
    "synonyms_per_concept": 0,
    "title_keywords": 0,
    "noise_words": 0,
    "noise_vocab": 1,
    "fulltext_factor": 0,
    "seed": 0,
}


def _check_settings(settings: dict) -> None:
    for name, least in _MINIMUMS.items():
        if settings[name] < least:
            raise SettingError(name, f"must be >= {least}, got {settings[name]}")
    for name in ("keyword_overlap", "synonym_rate"):
        # NaN fails the comparison too
        if not 0.0 <= settings[name] <= 1.0:
            raise SettingError(name, f"must be within [0, 1], got {settings[name]}")


@dataclass
class SyntheticCorpus:
    documents: list[Document]
    thesaurus: Thesaurus


def generate_corpus(
    n_labels: int = 20,
    docs_per_label: int = 50,
    labels_per_doc: tuple[int, int] | None = None,
    keywords_per_label: int = 8,
    keyword_overlap: float = 0.0,
    synonyms_per_concept: int = 0,
    synonym_rate: float = 0.0,
    title_keywords: int = 4,
    noise_words: int = 2,
    noise_vocab: int = 200,
    fulltext_factor: int = 4,
    seed: int = 0,
) -> SyntheticCorpus:
    """Build a labeled corpus of n_labels * docs_per_label documents.

    Every document carries one primary label plus up to
    labels_per_doc[1] - 1 extra ones; labels_per_doc defaults to
    (1, min(3, n_labels)).  A title mentions, for each of its
    labels, the label's signature concept (preferred phrase, or one of its
    synonym phrases with probability synonym_rate) and a sample of the
    label's keywords; keyword_overlap is the fraction of keyword slots
    drawn from a pool shared across all labels.  A setting outside its
    range raises SettingError.
    """
    _check_settings(locals())
    lo, hi = (1, min(3, n_labels)) if labels_per_doc is None else labels_per_doc
    if hi > n_labels:
        raise SettingError("n_labels", f"must be >= {hi} for labels_per_doc {lo, hi}, got {n_labels}")
    if not 1 <= lo <= hi:
        raise ValueError(f"labels_per_doc must be a range 1 <= low <= high, got {lo, hi}")
    rng = np.random.default_rng(seed)

    shared_pool = [_word("sh", i) for i in range(max(keywords_per_label, 4))]
    label_keywords: list[list[str]] = []
    for lab in range(n_labels):
        n_shared = int(round(keyword_overlap * keywords_per_label))
        own = [_word(f"ku{_word('', lab)}", j) for j in range(keywords_per_label - n_shared)]
        shared = list(rng.choice(shared_pool, size=n_shared, replace=False)) if n_shared else []
        label_keywords.append(own + shared)

    concepts: dict[str, Concept] = {}
    signature_forms: list[list[str]] = []
    for lab in range(n_labels):
        cid = f"C{lab:04d}"
        pref = _word("sig", lab)
        alts = tuple(_word(f"sy{_word('', lab)}", j) for j in range(synonyms_per_concept))
        concepts[cid] = Concept(cid, pref, alts)
        signature_forms.append([pref, *alts])
    thesaurus = Thesaurus(concepts)

    noise = [_word("nz", i) for i in range(noise_vocab)]

    def mention(lab: int) -> str:
        forms = signature_forms[lab]
        if len(forms) > 1 and rng.random() < synonym_rate:
            return forms[1 + rng.integers(0, len(forms) - 1)]
        return forms[0]

    def sample_block(labs: list[int], kw_count: int, noise_count: int) -> list[str]:
        tokens: list[str] = []
        for lab in labs:
            tokens.append(mention(lab))
            pool = label_keywords[lab]
            take = min(kw_count, len(pool))
            if take:
                tokens.extend(rng.choice(pool, size=take, replace=False))
        if noise_count:
            tokens.extend(rng.choice(noise, size=noise_count, replace=True))
        return tokens

    documents: list[Document] = []
    index = 0
    for primary in range(n_labels):
        for _ in range(docs_per_label):
            n_lab = int(rng.integers(lo, hi + 1))
            extra = [lab for lab in rng.permutation(n_labels) if lab != primary][: n_lab - 1]
            labs = [primary, *extra]
            title = " ".join(sample_block(labs, title_keywords, noise_words))
            fulltext = " ".join(
                tok
                for _ in range(fulltext_factor)
                for tok in sample_block(labs, title_keywords, noise_words)
            )
            documents.append(
                Document(
                    doc_id=f"d{index:05d}",
                    title=title,
                    fulltext=fulltext,
                    gold_labels=frozenset(f"C{lab:04d}" for lab in labs),
                )
            )
            index += 1
    return SyntheticCorpus(documents=documents, thesaurus=thesaurus)


# The named corpora of `semannot generate --preset`: each maps to the
# generate_corpus settings that differ from its defaults.
PRESETS: dict[str, dict] = {
    # 1,000 documents over 20 labels with disjoint keyword signals
    "separable": {},
    # label keyword pools overlap by 30% and titles carry extra noise
    "noisy": dict(
        docs_per_label=40, keywords_per_label=10, keyword_overlap=0.3, title_keywords=3,
        noise_words=4,
    ),
    # same-label documents rarely share a surface form: each concept has
    # three synonym phrases used at a high rate, so only concept extraction
    # unifies them
    "synonym": dict(
        n_labels=12, docs_per_label=40, labels_per_doc=(1, 2), keywords_per_label=4,
        synonyms_per_concept=3, synonym_rate=0.75, title_keywords=1, noise_words=4,
        noise_vocab=300,
    ),
}
