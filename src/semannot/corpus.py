"""Loading and validation of corpora and thesauri.

Every input file is UTF-8 text; a leading byte order mark is ignored.
Corpora are JSON-lines files with fields ``id``, ``title``,
``fulltext`` (optional) and ``labels``.  Thesauri come either as N-Triples
(only the prefLabel/altLabel triples of IRI subjects are consumed) or as a
three-column TSV.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import stat
import sys
from dataclasses import dataclass, field as dc_field
from typing import Iterator


# the text fields of a document that a run can annotate from
FIELDS = ("title", "fulltext")


class CorpusFormatError(ValueError):
    pass


class ThesaurusFormatError(ValueError):
    pass


# a byte that does not decode as UTF-8, as the surrogateescape handler holds it
_UNDECODED = re.compile("[\udc80-\udcff]")


def text_lines(path, error: type[ValueError]):
    """Number and text of each line of the UTF-8 file at ``path``, without a
    leading byte order mark; the first line that does not decode is refused
    with ``error``."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            # isascii reads a flag; only a line with other characters is searched
            if not line.isascii() and _UNDECODED.search(line):
                raise error(f"{path}:{lineno}: not UTF-8 text")
            yield lineno, line


def write_mode(path) -> str:
    """How `replacing` writes ``path``: "stdout" for the file of descriptor 1
    (also when ``sys.stdout`` is replaced), "in place" for one that exists
    and is no regular file, else "rename"."""
    st = to_stdout = None
    with contextlib.suppress(OSError):  # not there yet, or refused when the partial file is made
        st = os.stat(path)
    with contextlib.suppress(OSError):  # fd 1 is closed
        to_stdout = st is not None and os.path.samestat(st, os.fstat(1))
    if to_stdout:
        return "stdout"
    return "in place" if st is not None and not stat.S_ISREG(st.st_mode) else "rename"


# numbers the partial files of one process, so writers open together never share one
_partial_numbers = itertools.count()


@contextlib.contextmanager
def replacing(path):
    """A UTF-8 text file that replaces the one at ``path`` when the block
    ends normally; if the block raises, it is removed and ``path`` is left
    as it was.  It is made with ``open``'s permissions next to ``path``'s
    target, so the rename stays on one file system.  A ``path`` that is
    descriptor 1's file (``/dev/stdout``) is written through stdout, so the
    shell's ``>``, ``>>`` or ``|`` applies; one that exists and is no
    regular file (a FIFO, /dev/null) is written in place, as is an open file."""
    if hasattr(path, "write"):
        yield path
        return
    mode = write_mode(path)
    if mode == "stdout":
        yield sys.stdout
        sys.stdout.flush()
        return
    if mode == "in place":
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    partial = os.path.join(directory, f".{name}.{os.getpid()}.{next(_partial_numbers)}.partial")
    try:
        fh = open(partial, "x", encoding="utf-8")
    except OSError as exc:
        # named as opening `path` itself would name it
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(partial, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    fulltext: str | None
    gold_labels: frozenset[str]

    def text(self, field_name: str) -> str:
        if field_name not in FIELDS:
            raise ValueError(f"unknown field {field_name!r}")
        text = getattr(self, field_name)
        if text is None:
            raise ValueError(f"document {self.doc_id} has no {field_name}")
        return text


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

    documents: list[Document] = dc_field(default_factory=list)
    n_missing_field: int = 0
    n_empty_labels: int = 0
    n_unknown_labels: int = 0


def read_corpus(
    path,
    field_name: str = "title",
    thesaurus: Thesaurus | None = None,
    require_labels: bool = True,
    *,
    result: CorpusLoadResult,
) -> Iterator[Document]:
    """The documents of a JSON-lines corpus, yielded in file order as the
    file is read; what is dropped is counted in ``result``'s counters.

    Documents missing the requested text field are dropped and counted, as
    are documents whose gold label set is (or becomes) empty.  When a
    thesaurus is given, labels that do not resolve in it are dropped with a
    warning count; the document survives if at least one label remains.
    ``require_labels=False`` reads no labels: gold sets stay empty
    (annotation input).  What grows with the corpus is the set of ids seen,
    which finds duplicates.
    """
    if field_name not in FIELDS:
        raise ValueError(f"unknown field {field_name!r}")
    seen_ids: set[str] = set()
    for lineno, line in text_lines(path, CorpusFormatError):
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

        raw_labels = record.get("labels", []) if require_labels else []
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
        yield Document(
            doc_id=doc_id,
            title=title if isinstance(title, str) else "",
            fulltext=fulltext if isinstance(fulltext, str) else None,
            gold_labels=frozenset(labels),
        )


def load_corpus(
    path,
    field_name: str = "title",
    thesaurus: Thesaurus | None = None,
    require_labels: bool = True,
) -> CorpusLoadResult:
    """A whole JSON-lines corpus read by `read_corpus`: its documents in
    file order and what it dropped."""
    result = CorpusLoadResult()
    result.documents.extend(read_corpus(path, field_name, thesaurus, require_labels, result=result))
    return result


# --- thesaurus parsing -------------------------------------------------

# the object literal with its language tag or datatype, the final dot and
# an optional comment
_LITERAL_OBJECT = re.compile(
    r'^"(?P<lex>(?:[^"\\]|\\.)*)"(?:@(?P<lang>[A-Za-z0-9-]+)|\^\^<[^>]*>)?\s*\.\s*(?:#.*)?$'
)
# a blank-node subject leaves the subject group unset
_SUBJECT_PREDICATE = re.compile(
    r"^(?:<(?P<subject>[^>]*)>|_:\S+)\s+<(?P<predicate>[^>]*)>\s+(?P<rest>.*)$"
)

# ECHAR, UCHAR, then any other escaped character, or none at the end
_NT_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))")
_NT_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _unescape(text: str, where: str, echars: dict[str, str]) -> str:
    """Decode the UCHAR escapes of an N-Triples string or IRI and the given
    ECHAR escapes (a literal's eight; an IRI has none); any other escape,
    and a UCHAR that is no Unicode scalar value, is refused."""

    def decode(match: re.Match) -> str:
        digits = match.group(1) or match.group(2)
        if digits is None:
            if match.group(3) not in echars:
                raise ThesaurusFormatError(f"{where}: invalid escape {match.group()}")
            return echars[match.group(3)]
        code = int(digits, 16)
        if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
            raise ThesaurusFormatError(f"{where}: escape {match.group()} is not a character")
        return chr(code)

    return _NT_ESCAPE.sub(decode, text)


def _alts(pref: str, alts) -> tuple[str, ...]:
    """Alternative labels in first-seen order, without repeats, empties or
    the preferred label."""
    return tuple(alt for alt in dict.fromkeys(alts) if alt and alt != pref)


def _parse_ntriples(path) -> Thesaurus:
    """Read the SKOS prefLabel and altLabel triples of an N-Triples file.
    The first prefLabel of a subject is its preferred label; a prefLabel in
    another language (tags compare case-insensitively, untagged is one
    language) joins the alternative labels."""
    prefs: dict[str, dict[str, str]] = {}  # subject -> language tag -> prefLabel
    labels: dict[str, list[str]] = {}  # subject -> its labels; subjects in first-seen order
    for lineno, line in text_lines(path, ThesaurusFormatError):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SUBJECT_PREDICATE.match(line)
        if match is None:
            raise ThesaurusFormatError(f"{path}:{lineno}: not a triple")
        subject = match.group("subject")
        local = match.group("predicate").rsplit("#", 1)[-1].rsplit("/", 1)[-1]
        if subject is None or local not in ("prefLabel", "altLabel"):
            continue  # blank nodes and unknown predicates are ignored
        where = f"{path}:{lineno}"
        subject = _unescape(subject, where, {})
        literal = _LITERAL_OBJECT.match(match.group("rest"))
        if literal is None:
            raise ThesaurusFormatError(f"{where}: {local} object must be a literal")
        value = _unescape(literal.group("lex"), where, _NT_ECHARS)
        # every label joins the list; _alts drops the preferred one
        labels.setdefault(subject, []).append(value)
        if local == "prefLabel":
            by_tag = prefs.setdefault(subject, {})
            tag = (literal.group("lang") or "").lower()
            if by_tag.setdefault(tag, value) != value:
                raise ThesaurusFormatError(
                    f"{path}:{lineno}: two preferred labels in one language "
                    f"for subject <{subject}>"
                )
    concepts: dict[str, Concept] = {}
    for subject in labels:
        if subject not in prefs:
            raise ThesaurusFormatError(f"concept <{subject}> has no preferred label")
        pref = next(iter(prefs[subject].values()))
        concepts[subject] = Concept(subject, pref, _alts(pref, labels[subject]))
    return Thesaurus(concepts)


def _parse_tsv(path) -> Thesaurus:
    concepts: dict[str, Concept] = {}
    for lineno, raw in text_lines(path, ThesaurusFormatError):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2 or len(parts) > 3 or not parts[0] or not parts[1]:
            raise ThesaurusFormatError(f"{path}:{lineno}: expected 'id<TAB>pref<TAB>alt|alt' row")
        concept_id, pref = parts[0], parts[1]
        if concept_id in concepts:
            raise ThesaurusFormatError(f"{path}:{lineno}: duplicate concept {concept_id!r}")
        alts = parts[2].split("|") if len(parts) == 3 else []
        concepts[concept_id] = Concept(concept_id, pref, _alts(pref, alts))
    return Thesaurus(concepts)


THESAURUS_FORMATS = ("tsv", "ntriples")


def load_thesaurus(path, format: str = "tsv") -> Thesaurus:
    if format == "ntriples":
        return _parse_ntriples(path)
    if format == "tsv":
        return _parse_tsv(path)
    raise ValueError(f"unknown thesaurus format {format!r}")


def dump_thesaurus_tsv(thesaurus: Thesaurus, path) -> None:
    """Write the TSV form; round-trips through load_thesaurus(format='tsv')."""
    with replacing(path) as fh:
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
    with replacing(path) as fh:
        for doc in docs:
            record: dict = {"id": doc.doc_id, "title": doc.title}
            if doc.fulltext is not None:
                record["fulltext"] = doc.fulltext
            if include_labels:
                record["labels"] = sorted(doc.gold_labels)
            fh.write(json.dumps(record) + "\n")


def mean_sd(values: list[float]) -> tuple[float, float]:
    """Mean and population standard deviation."""
    mean = sum(values) / len(values)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
