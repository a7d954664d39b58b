"""Text normalization: tokenization and rule-based lemmatization.

The same normalization runs over document text and over thesaurus phrases,
so that surface variants meet in one token space.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .corpus import text_lines

# A "letter" is any unicode alphabetic character (excludes digits and _).
_LETTER = r"[^\W\d_]"
_HYPHEN_BETWEEN_LETTERS = re.compile(rf"(?<={_LETTER})-(?={_LETTER})")
_LETTER_RUN = re.compile(rf"{_LETTER}+")


def tokenize(text: str) -> list[str]:
    """Split text into lower-case alphabetic tokens of length >= 2.

    A hyphen directly flanked by letters is removed, joining the two parts
    ("state-of-the-art" -> "stateoftheart").  Every other non-letter
    character separates tokens.  Tokens shorter than two characters are
    dropped; the result may be empty.
    """
    joined = _HYPHEN_BETWEEN_LETTERS.sub("", text)
    tokens = []
    for run in _LETTER_RUN.findall(joined):
        low = run.lower()
        if len(low) >= 2 and low.isalpha():
            tokens.append(low)
    return tokens


class LemmaTableError(ValueError):
    pass


@dataclass(frozen=True)
class LemmaTable:
    """Surface-form to lemma lookup backing :func:`lemmatize`.

    Lemmas must be fixed points of the table: applying the table twice is
    the same as applying it once.
    """

    mapping: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for surface, lemma in self.mapping.items():
            if self.mapping.get(lemma, lemma) != lemma:
                raise LemmaTableError(
                    f"lemma {lemma!r} (for surface {surface!r}) is not a fixed point of the table"
                )

    @classmethod
    def load(cls, path) -> "LemmaTable":
        """Read a two-column tab-separated file; `#` starts a comment line."""
        mapping: dict[str, str] = {}
        for lineno, line in text_lines(path, LemmaTableError):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise LemmaTableError(f"{path}:{lineno}: expected 'surface<TAB>lemma'")
            mapping[parts[0]] = parts[1]
        return cls(mapping)


def _strip_suffix_once(token: str) -> str:
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    if token.endswith("sses") and len(token) >= 4:
        return token[:-2]
    if token.endswith("es") and len(token) > 3:
        stem = token[:-2]
        if stem and (stem[-1] in "sxz" or stem.endswith("ch") or stem.endswith("sh")):
            return stem  # boxes -> box, taxes -> tax
        return token[:-1]  # rates -> rate
    if token.endswith("s") and not token.endswith("ss") and len(token) > 3:
        return token[:-1]
    return token


def lemmatize_token(token: str, table: LemmaTable | None = None) -> str:
    """Map one token to its lemma: table lookup first, then suffix rules.

    The suffix rules iterate to a fixed point, which makes the whole map
    idempotent (each application strictly shortens the token).
    """
    if table is not None:
        hit = table.mapping.get(token)
        if hit is not None:
            return hit
    while True:
        stripped = _strip_suffix_once(token)
        if stripped == token:
            return token
        token = stripped


def lemmatize(tokens: list[str], table: LemmaTable | None = None) -> list[str]:
    return [lemmatize_token(t, table) for t in tokens]


def preprocess(text: str, table: LemmaTable | None = None) -> list[str]:
    """tokenize followed by lemmatize; the pipeline's only text entrance."""
    return lemmatize(tokenize(text), table)
