"""Loading and validation of corpora and thesauri.

Corpora are UTF-8 JSON-lines files with fields ``id``, ``title``,
``fulltext`` (optional) and ``labels``.  Thesauri come either as a minimal
N-Triples subset (only prefLabel/altLabel triples are consumed) or as a
three-column TSV.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass


class CorpusFormatError(ValueError):
    pass


class ThesaurusFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    fulltext: str | None
    gold_labels: frozenset[str]

    def text(self, field_name: str) -> str:
        if field_name == "title":
            return self.title
        if field_name == "fulltext":
            if self.fulltext is None:
                raise ValueError(f"document {self.doc_id} has no fulltext")
            return self.fulltext
        raise ValueError(f"unknown field {field_name!r}")


@dataclass(frozen=True)
class Concept:
    concept_id: str
    pref_label: str
    alt_labels: tuple[str, ...] = ()

    def phrases(self) -> tuple[str, ...]:
        return (self.pref_label,) + self.alt_labels


@dataclass(frozen=True)
class Thesaurus:
    concepts: dict[str, Concept]

    def __post_init__(self) -> None:
        if not self.concepts:
            raise ThesaurusFormatError("no concepts")

    def __len__(self) -> int:
        return len(self.concepts)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self.concepts

    def get(self, concept_id: str) -> Concept:
        return self.concepts[concept_id]

    def sorted_ids(self) -> list[str]:
        return sorted(self.concepts)


@dataclass
class CorpusLoadResult:
    """Documents in file order plus counters of everything that was dropped."""

    documents: list[Document]
    n_missing_field: int = 0
    n_empty_labels: int = 0
    n_unknown_labels: int = 0

    def __iter__(self):
        return iter(self.documents)

    def __len__(self) -> int:
        return len(self.documents)


def load_corpus(
    path,
    field_name: str = "title",
    thesaurus: Thesaurus | None = None,
    require_labels: bool = True,
) -> CorpusLoadResult:
    """Load a JSON-lines corpus, keeping documents in file order.

    Documents missing the requested text field are dropped and counted, as
    are documents whose gold label set is (or becomes) empty.  When a
    thesaurus is given, labels that do not resolve in it are dropped with a
    warning count; the document survives if at least one label remains.
    ``require_labels=False`` admits unlabeled documents (annotation input).
    """
    if field_name not in ("title", "fulltext"):
        raise ValueError(f"unknown field {field_name!r}")
    result = CorpusLoadResult(documents=[])
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(f"{path}:{lineno}: expected a JSON object")
            doc_id = record.get("id")
            if not isinstance(doc_id, str) or not doc_id:
                raise CorpusFormatError(f"{path}:{lineno}: missing or invalid 'id'")
            if doc_id in seen_ids:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
            seen_ids.add(doc_id)

            if not isinstance(record.get(field_name), str):
                result.n_missing_field += 1
                continue

            raw_labels = record.get("labels", [])
            if not isinstance(raw_labels, list) or any(not isinstance(l, str) for l in raw_labels):
                raise CorpusFormatError(f"{path}:{lineno}: 'labels' must be an array of strings")
            labels = set(raw_labels)
            if thesaurus is not None:
                known = {l for l in labels if l in thesaurus}
                result.n_unknown_labels += len(labels) - len(known)
                labels = known
            if require_labels and not labels:
                result.n_empty_labels += 1
                continue

            title = record.get("title")
            fulltext = record.get("fulltext")
            result.documents.append(
                Document(
                    doc_id=doc_id,
                    title=title if isinstance(title, str) else "",
                    fulltext=fulltext if isinstance(fulltext, str) else None,
                    gold_labels=frozenset(labels),
                )
            )
    return result


# --- thesaurus parsing -------------------------------------------------

_LITERAL_OBJECT = re.compile(
    r'^"(?P<lex>(?:[^"\\]|\\.)*)"(?:@[A-Za-z0-9-]+|\^\^<[^>]*>)?\s*\.\s*$'
)
_SUBJECT_PREDICATE = re.compile(r"^<(?P<subject>[^>]*)>\s+<(?P<predicate>[^>]*)>\s+(?P<rest>.*)$")

_NT_UNESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n", "\\t": "\t", "\\r": "\r"}


def _unescape_literal(lex: str) -> str:
    out = []
    i = 0
    while i < len(lex):
        if lex[i] == "\\" and i + 1 < len(lex):
            pair = lex[i:i + 2]
            if pair in _NT_UNESCAPES:
                out.append(_NT_UNESCAPES[pair])
                i += 2
                continue
        out.append(lex[i])
        i += 1
    return "".join(out)


def _parse_ntriples(path) -> Thesaurus:
    prefs: dict[str, str] = {}
    alts: dict[str, list[str]] = {}
    subjects: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            match = _SUBJECT_PREDICATE.match(line)
            if match is None:
                raise ThesaurusFormatError(f"{path}:{lineno}: not a triple")
            predicate = match.group("predicate")
            local = predicate.rsplit("#", 1)[-1].rsplit("/", 1)[-1]
            if local not in ("prefLabel", "altLabel"):
                continue  # unknown predicates are ignored
            literal = _LITERAL_OBJECT.match(match.group("rest"))
            if literal is None:
                raise ThesaurusFormatError(
                    f"{path}:{lineno}: {local} object must be a literal"
                )
            subject = match.group("subject")
            value = _unescape_literal(literal.group("lex"))
            if subject not in alts:
                alts[subject] = []
                subjects.append(subject)
            if local == "prefLabel":
                if subject in prefs and prefs[subject] != value:
                    raise ThesaurusFormatError(
                        f"two preferred labels for subject <{subject}>"
                    )
                prefs[subject] = value
            else:
                alts[subject].append(value)
    concepts: dict[str, Concept] = {}
    for subject in subjects:
        if subject not in prefs:
            raise ThesaurusFormatError(f"concept <{subject}> has no preferred label")
        pref = prefs[subject]
        uniq = []
        for alt in alts[subject]:
            if alt != pref and alt not in uniq:
                uniq.append(alt)
        concepts[subject] = Concept(subject, pref, tuple(uniq))
    return Thesaurus(concepts)


def _parse_tsv(path) -> Thesaurus:
    concepts: dict[str, Concept] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2 or len(parts) > 3 or not parts[0] or not parts[1]:
                raise ThesaurusFormatError(
                    f"{path}:{lineno}: expected 'id<TAB>pref<TAB>alt|alt' row"
                )
            concept_id, pref = parts[0], parts[1]
            if concept_id in concepts:
                raise ThesaurusFormatError(f"{path}:{lineno}: duplicate concept {concept_id!r}")
            alt_field = parts[2] if len(parts) == 3 else ""
            uniq: list[str] = []
            for alt in alt_field.split("|"):
                if alt and alt != pref and alt not in uniq:
                    uniq.append(alt)
            concepts[concept_id] = Concept(concept_id, pref, tuple(uniq))
    return Thesaurus(concepts)


def load_thesaurus(path, format: str = "tsv") -> Thesaurus:
    if format == "ntriples":
        return _parse_ntriples(path)
    if format == "tsv":
        return _parse_tsv(path)
    raise ValueError(f"unknown thesaurus format {format!r}")


def dump_thesaurus_tsv(thesaurus: Thesaurus, path) -> None:
    """Write the TSV form; round-trips through load_thesaurus(format='tsv')."""
    with open(path, "w", encoding="utf-8") as fh:
        for concept_id in sorted(thesaurus.concepts):
            concept = thesaurus.concepts[concept_id]
            for phrase in concept.phrases():
                if any(c in phrase for c in "\t\n|"):
                    raise ThesaurusFormatError(
                        f"phrase {phrase!r} of {concept_id!r} cannot be written as TSV"
                    )
            fh.write(f"{concept_id}\t{concept.pref_label}\t{'|'.join(concept.alt_labels)}\n")


def dump_corpus_jsonl(docs: list[Document], path, include_labels: bool = True) -> None:
    """Write documents in the JSON-lines interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record: dict = {"id": doc.doc_id, "title": doc.title}
            if doc.fulltext is not None:
                record["fulltext"] = doc.fulltext
            if include_labels:
                record["labels"] = sorted(doc.gold_labels)
            fh.write(json.dumps(record) + "\n")


# --- corpus statistics -------------------------------------------------


@dataclass(frozen=True)
class CorpusStats:
    n_docs: int
    n_concepts_in_thesaurus: int
    n_labels_used: int
    mean_labels_per_doc: float
    sd_labels_per_doc: float
    mean_words_per_doc: float
    mean_concepts_per_doc: float
    vocabulary_size_title: int | None = None
    vocabulary_size_fulltext: int | None = None


def corpus_stats(
    docs: list[Document],
    thesaurus: Thesaurus,
    tokens_per_doc: list[int],
    concepts_per_doc: list[int],
    vocabulary_size_title: int | None = None,
    vocabulary_size_fulltext: int | None = None,
) -> CorpusStats:
    """Summary statistics of a corpus against its thesaurus.

    Standard deviations are population SDs; the label count |L| is the size
    of the union of all gold label sets.
    """
    if not docs:
        raise ValueError("empty corpus")
    if len(tokens_per_doc) != len(docs) or len(concepts_per_doc) != len(docs):
        raise ValueError("per-document count lists must align with docs")
    used = set()
    for doc in docs:
        used.update(doc.gold_labels)
    counts = [len(doc.gold_labels) for doc in docs]
    mean = sum(counts) / len(counts)
    sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / len(counts))
    return CorpusStats(
        n_docs=len(docs),
        n_concepts_in_thesaurus=len(thesaurus),
        n_labels_used=len(used),
        mean_labels_per_doc=mean,
        sd_labels_per_doc=sd,
        mean_words_per_doc=sum(tokens_per_doc) / len(docs),
        mean_concepts_per_doc=sum(concepts_per_doc) / len(docs),
        vocabulary_size_title=vocabulary_size_title,
        vocabulary_size_fulltext=vocabulary_size_fulltext,
    )

