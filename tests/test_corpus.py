import json
import math
import os
import random
import statistics
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import ORACLE_TOKENS, ntriples_text, random_thesaurus
from semannot.corpus import (
    FIELDS,
    Concept,
    CorpusFormatError,
    CorpusLoadResult,
    Document,
    Thesaurus,
    ThesaurusFormatError,
    dump_corpus_jsonl,
    dump_thesaurus_tsv,
    load_corpus,
    load_thesaurus,
    mean_sd,
    read_corpus,
)
from semannot.cli import main
from semannot.preprocess import LemmaTable, LemmaTableError
from semannot.synthetic import generate_corpus


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


class TestLoadCorpus:
    def test_three_wellformed_lines_in_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "title": "one", "labels": ["x"]},
                {"id": "b", "title": "two", "labels": ["y"]},
                {"id": "c", "title": "three", "labels": ["x", "y"]},
            ],
        )
        result = load_corpus(path, "title")
        assert [d.doc_id for d in result.documents] == ["a", "b", "c"]
        assert result.documents[2].gold_labels == {"x", "y"}

    def test_empty_labels_excluded_with_warning(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "title": "one", "labels": []},
                {"id": "b", "title": "two", "labels": ["y"]},
            ],
        )
        result = load_corpus(path, "title")
        assert [d.doc_id for d in result.documents] == ["b"]
        assert result.n_empty_labels == 1

    def test_missing_field_dropped_only_for_that_field(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "title": "only title", "labels": ["x"]},
                {"id": "b", "title": "both", "fulltext": "text", "labels": ["y"]},
            ],
        )
        by_fulltext = load_corpus(path, "fulltext")
        assert [d.doc_id for d in by_fulltext.documents] == ["b"]
        assert by_fulltext.n_missing_field == 1
        by_title = load_corpus(path, "title")
        assert [d.doc_id for d in by_title.documents] == ["a", "b"]
        assert by_title.n_missing_field == 0

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "title": "t", "labels": ["x"]}\n{oops\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2"):
            load_corpus(path, "title")

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "title": "one", "labels": ["x"]},
                {"id": "a", "title": "again", "labels": ["y"]},
            ],
        )
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(path, "title")

    def test_unknown_labels_dropped_against_thesaurus(self, tmp_path):
        thesaurus = Thesaurus({"x": Concept("x", "xx")})
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "title": "one", "labels": ["x", "ghost"]},
                {"id": "b", "title": "two", "labels": ["ghost"]},
            ],
        )
        result = load_corpus(path, "title", thesaurus=thesaurus)
        assert [d.doc_id for d in result.documents] == ["a"]
        assert result.documents[0].gold_labels == {"x"}
        assert result.n_unknown_labels == 2
        assert result.n_empty_labels == 1  # doc b lost all its labels

    def test_unlabeled_corpus_for_annotation(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "a", "title": "one"}])
        result = load_corpus(path, "title", require_labels=False)
        assert result.documents[0].gold_labels == frozenset()

    def test_unlabeled_load_reads_no_labels(self, tmp_path):
        # annotation input: a malformed labels field is not read, and no
        # document carries the labels its record holds
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "title": "sigb kuba", "labels": "x"},
                {"id": "b", "title": "two", "labels": ["y"]},
            ],
        )
        result = load_corpus(path, "title", require_labels=False)
        assert [d.doc_id for d in result.documents] == ["a", "b"]
        assert [d.gold_labels for d in result.documents] == [frozenset(), frozenset()]

    def test_deterministic(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path, [{"id": f"d{i}", "title": f"t {i}", "labels": ["x"]} for i in range(20)]
        )
        first = load_corpus(path, "title")
        second = load_corpus(path, "title")
        assert [d.doc_id for d in first.documents] == [d.doc_id for d in second.documents]


    def test_unknown_field_refused_before_reading(self, tmp_path):
        with pytest.raises(ValueError, match="unknown field 'abstract'"):
            load_corpus(tmp_path / "never-read.jsonl", "abstract")


def _record(rng: random.Random, i: int) -> dict:
    """A corpus record that may lack a field, hold no label or hold labels
    the thesaurus {x, y} does not know."""
    labels = rng.choice([[], ["x"], ["y", "x"], ["ghost"], ["x", "ghost"]])
    record = {"id": f"d{i}", "labels": labels}
    for field in FIELDS:
        if rng.random() < 0.75:
            record[field] = rng.choice(["rate", "interest rates", ""])
    return record


# what replaces the drawn line, and the error load_corpus gives for it
CORRUPTIONS = {
    "malformed": ("{oops", "malformed JSON"),
    "duplicate-id": ('{"id": "d0", "title": "t", "labels": ["x"]}', "duplicate doc_id 'd0'"),
    "missing-id": ('{"title": "t", "labels": ["x"]}', "missing or invalid 'id'"),
}


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from(FIELDS),
    st.booleans(),
    st.booleans(),
    st.one_of(st.none(), st.tuples(st.sampled_from(sorted(CORRUPTIONS)), st.integers(0, 11))),
)
def test_reader_equals_load_corpus(
    tmp_path, n, seed, field, with_thesaurus, require_labels, corruption
):
    """The lazy reader gives load_corpus's documents and drop counters; with
    one line corrupted at a drawn place, both refuse it with the same
    `path:line` error, the reader after yielding every document before it."""
    rng = random.Random(seed)
    lines = [json.dumps(_record(rng, i)) for i in range(n)]
    bad_line = None
    if corruption is not None:
        kind, at = corruption
        at = at % n
        if kind != "duplicate-id" or at > 0:
            lines[at] = CORRUPTIONS[kind][0]
            bad_line = at + 1
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    thesaurus = Thesaurus({c: Concept(c, c + c) for c in ("x", "y")}) if with_thesaurus else None
    args = (path, field, thesaurus, require_labels)

    counted = CorpusLoadResult()
    reader = read_corpus(*args, result=counted)
    if bad_line is None:
        counted.documents = list(reader)
        assert counted == load_corpus(*args)
        return
    with pytest.raises(CorpusFormatError) as whole:
        load_corpus(*args)
    assert str(whole.value).startswith(f"{path}:{bad_line}: {CORRUPTIONS[kind][1]}")
    prefix = tmp_path / "prefix.jsonl"
    prefix.write_text("".join(line + "\n" for line in lines[: bad_line - 1]), encoding="utf-8")
    yielded = []
    with pytest.raises(CorpusFormatError) as lazy:
        for doc in reader:
            yielded.append(doc)
    assert str(lazy.value) == str(whole.value)
    assert yielded == load_corpus(prefix, field, thesaurus, require_labels).documents


class TestLoadThesaurus:
    def test_ntriples_pref_and_alt(self, tmp_path):
        path = tmp_path / "thesaurus.nt"
        path.write_text(
            '<c1> <http://www.w3.org/2004/02/skos/core#prefLabel> "interest rate"@en .\n'
            '<c1> <http://www.w3.org/2004/02/skos/core#altLabel> "interest rates"@en .\n',
            encoding="utf-8",
        )
        thesaurus = load_thesaurus(path, "ntriples")
        concept = thesaurus.get("c1")
        assert concept.pref_label == "interest rate"
        assert concept.alt_labels == ("interest rates",)

    def test_ntriples_ignores_unknown_predicates(self, tmp_path):
        path = tmp_path / "thesaurus.nt"
        path.write_text(
            '<c1> <http://www.w3.org/2004/02/skos/core#prefLabel> "rate" .\n'
            "<c1> <http://www.w3.org/2004/02/skos/core#broader> <c9> .\n",
            encoding="utf-8",
        )
        thesaurus = load_thesaurus(path, "ntriples")
        assert list(thesaurus.concepts) == ["c1"]

    def test_ntriples_two_pref_labels_error_names_subject(self, tmp_path):
        path = tmp_path / "thesaurus.nt"
        path.write_text(
            '<c1> <http://x/prefLabel> "rate" .\n<c1> <http://x/prefLabel> "other" .\n',
            encoding="utf-8",
        )
        with pytest.raises(ThesaurusFormatError, match="c1"):
            load_thesaurus(path, "ntriples")

    def test_ntriples_missing_pref_label(self, tmp_path):
        path = tmp_path / "thesaurus.nt"
        path.write_text('<c1> <http://x/altLabel> "rate" .\n', encoding="utf-8")
        with pytest.raises(ThesaurusFormatError, match="no preferred label"):
            load_thesaurus(path, "ntriples")

    @pytest.mark.parametrize(
        "lexical, decoded",
        [
            (r"say \"rate\"", 'say "rate"'),
            (r"a\\b", "a\\b"),
            (r"a\nb", "a\nb"),
            (r"a\tb", "a\tb"),
            (r"a\rb", "a\rb"),
            (r"a\bb", "a\bb"),
            (r"a\fb", "a\fb"),
            (r"it\'s", "it's"),
            # UCHAR, in either case of hex digit and outside the BMP
            (r"\u0041", "A"),
            (r"caf\u00e9 cr\U000000E8me", "café crème"),
            (r"\U0001F600", "\U0001F600"),
            # an escaped backslash, then a plain n
            (r"\\n", "\\n"),
        ],
    )
    def test_ntriples_escapes(self, tmp_path, lexical, decoded):
        path = tmp_path / "thesaurus.nt"
        path.write_text(f'<c1> <http://x/prefLabel> "{lexical}"@en .\n', encoding="utf-8")
        assert load_thesaurus(path, "ntriples").get("c1").pref_label == decoded

    @pytest.mark.parametrize(
        "lexical, message",
        [
            (r"a\qb", r"invalid escape \q"),
            (r"a\u00Gb", r"invalid escape \u"),
            (r"a\U0010FFF", r"invalid escape \U"),
            (r"\uD800", r"escape \uD800 is not a character"),
            (r"\U0000DFFF", r"escape \U0000DFFF is not a character"),
            (r"\U00110000", r"escape \U00110000 is not a character"),
        ],
    )
    def test_ntriples_bad_escape_refused_by_line(self, tmp_path, lexical, message):
        path = tmp_path / "thesaurus.nt"
        path.write_text(
            f'<c0> <http://x/prefLabel> "ok" .\n<c1> <http://x/prefLabel> "{lexical}" .\n',
            encoding="utf-8",
        )
        with pytest.raises(ThesaurusFormatError) as refused:
            load_thesaurus(path, "ntriples")
        assert str(refused.value) == f"{path}:2: {message}"

    def test_ntriples_subject_uchar_names_one_concept(self, tmp_path):
        """A UCHAR in a subject IRI is decoded, so <c\\u0031> and <c1> are
        one subject: its prefLabel and the other's altLabel make one concept."""
        skos = "http://www.w3.org/2004/02/skos/core#"
        path = tmp_path / "thesaurus.nt"
        path.write_text(
            f'<c\\u0031> <{skos}prefLabel> "rate" .\n<c1> <{skos}altLabel> "rates" .\n'
            f'<\\U0001F600> <{skos}prefLabel> "smile" .\n',
            encoding="utf-8",
        )
        thesaurus = load_thesaurus(path, "ntriples")
        assert thesaurus.concepts == {
            "c1": Concept("c1", "rate", ("rates",)),
            "\U0001F600": Concept("\U0001F600", "smile"),
        }

    @pytest.mark.parametrize(
        "subject, message",
        [
            (r"c\n1", r"invalid escape \n"),
            (r"c\\1", r"invalid escape \\"),
            ("c1\\", "invalid escape \\"),
            (r"c\u00G1", r"invalid escape \u"),
            (r"c\uDC00", r"escape \uDC00 is not a character"),
        ],
    )
    def test_ntriples_subject_escape_other_than_uchar_refused_by_line(
        self, tmp_path, subject, message
    ):
        """IRIREF allows a backslash only as the start of a UCHAR."""
        path = tmp_path / "thesaurus.nt"
        path.write_text(
            f'<c0> <http://x/prefLabel> "ok" .\n<{subject}> <http://x/prefLabel> "rate" .\n',
            encoding="utf-8",
        )
        with pytest.raises(ThesaurusFormatError) as refused:
            load_thesaurus(path, "ntriples")
        assert str(refused.value) == f"{path}:2: {message}"

    def test_ntriples_pref_label_per_language(self, tmp_path):
        subject = "http://zbw.eu/stw/descriptor/10001-6"
        path = tmp_path / "thesaurus.nt"
        path.write_text(
            "".join(
                f'<{subject}> <http://www.w3.org/2004/02/skos/core#{predicate}> {literal} .\n'
                for predicate, literal in [
                    ("prefLabel", '"Interest rate"@en'),
                    ("altLabel", '"Interest rates"@en'),
                    ("prefLabel", '"Zins"@de'),
                    # the same label again, with the tag in another case
                    ("prefLabel", '"Zins"@DE'),
                    ("prefLabel", '"taux"'),
                    ("altLabel", '"Zinssatz"@de'),
                ]
            ),
            encoding="utf-8",
        )
        concept = load_thesaurus(path, "ntriples").get(subject)
        assert concept.pref_label == "Interest rate"
        assert concept.alt_labels == ("Interest rates", "Zins", "taux", "Zinssatz")

    @pytest.mark.parametrize(
        "first, second", [('"rate"@en', '"other"@EN'), ('"rate"', '"other"^^<http://x/string>')]
    )
    def test_ntriples_two_pref_labels_in_one_language_refused(self, tmp_path, first, second):
        path = tmp_path / "thesaurus.nt"
        path.write_text(
            f'<c1> <http://x/prefLabel> {first} .\n<c1> <http://x/prefLabel> "Zins"@de .\n'
            f"<c1> <http://x/prefLabel> {second} .\n",
            encoding="utf-8",
        )
        with pytest.raises(ThesaurusFormatError, match=r":3: .* for subject <c1>"):
            load_thesaurus(path, "ntriples")

    def test_ntriples_blank_node_subject_and_trailing_comment(self, tmp_path):
        path = tmp_path / "thesaurus.nt"
        path.write_text(
            '_:b0 <http://x/prefLabel> "blank" .\n'
            "_:b0 <http://x/broader> <c1> .\n"
            '<c1> <http://x/prefLabel> "rate"@en . # the preferred label\n'
            '<c1> <http://x/altLabel> "rates"^^<http://x/string> .# no space\n',
            encoding="utf-8",
        )
        concepts = load_thesaurus(path, "ntriples").concepts
        assert concepts == {"c1": Concept("c1", "rate", ("rates",))}

    def test_ntriples_alt_labels_first_seen_without_repeats_or_pref(self, tmp_path):
        path = tmp_path / "thesaurus.nt"
        path.write_text(
            "".join(
                f'<c1> <http://x/{predicate}> "{value}" .\n'
                for predicate, value in [
                    ("altLabel", "rates"), ("prefLabel", "rate"), ("altLabel", "rate"),
                    ("altLabel", ""), ("altLabel", "rates"), ("altLabel", "yield"),
                ]
            ),
            encoding="utf-8",
        )
        # an empty literal is dropped, as an empty TSV segment is
        assert load_thesaurus(path, "ntriples").get("c1").alt_labels == ("rates", "yield")

    def test_tsv_alt_labels_first_seen_without_repeats_pref_or_empties(self, tmp_path):
        path = tmp_path / "thesaurus.tsv"
        path.write_text("c1\trate\trates|rate||rates|yield|\n", encoding="utf-8")
        assert load_thesaurus(path, "tsv").get("c1").alt_labels == ("rates", "yield")

    def test_tsv_minimal_row(self, tmp_path):
        path = tmp_path / "thesaurus.tsv"
        path.write_text("c2\tinflation\t\n", encoding="utf-8")
        thesaurus = load_thesaurus(path, "tsv")
        assert thesaurus.get("c2") == Concept("c2", "inflation", ())

    def test_tsv_alt_labels_split_on_pipe(self, tmp_path):
        path = tmp_path / "thesaurus.tsv"
        path.write_text("c1\trate\trates|rate of interest\n", encoding="utf-8")
        concept = load_thesaurus(path, "tsv").get("c1")
        assert concept.alt_labels == ("rates", "rate of interest")

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "thesaurus.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ThesaurusFormatError, match="no concepts"):
            load_thesaurus(path, "tsv")

    def test_tsv_round_trip_random_thesauri(self, tmp_path):
        rng = random.Random(7)
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        for trial in range(25):
            concepts = {}
            for c in range(rng.randint(1, 8)):
                cid = f"c{trial}_{c}"
                pref = " ".join(rng.sample(words, rng.randint(1, 3)))
                alts = []
                for _ in range(rng.randint(0, 3)):
                    alt = " ".join(rng.sample(words, rng.randint(1, 3)))
                    if alt != pref and alt not in alts:
                        alts.append(alt)
                concepts[cid] = Concept(cid, pref, tuple(alts))
            original = Thesaurus(concepts)
            path = tmp_path / f"round{trial}.tsv"
            dump_thesaurus_tsv(original, path)
            reloaded = load_thesaurus(path, "tsv")
            assert reloaded.concepts == original.concepts

    def test_tsv_refusing_a_phrase_leaves_no_file(self, tmp_path):
        """Refused after the rows before it were written: no file, whole or half."""
        thesaurus = Thesaurus({"A": Concept("A", "ok"), "B": Concept("B", "b", ("x\ty",))})
        with pytest.raises(ThesaurusFormatError, match="of 'B' cannot be written as TSV"):
            dump_thesaurus_tsv(thesaurus, tmp_path / "t.tsv")
        assert not list(tmp_path.iterdir())


# quotes, backslashes, letters outside ASCII and one outside the BMP
PROPERTY_TOKENS = [*ORACLE_TOKENS, "café", "Zürich", "crème", 'say"', "a\\b", "\U0001D518x"]
ASCII_IN_TOKENS = sorted({c for c in "".join(PROPERTY_TOKENS) + " " if c.isascii()})


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.integers(0, 2**32 - 1),
    st.frozensets(st.sampled_from(ASCII_IN_TOKENS)),
    st.booleans(),
)
def test_tsv_and_escaped_ntriples_load_equal(tmp_path, seed, escaped, wide):
    """One thesaurus written as TSV and as N-Triples, with UCHAR escapes for
    every non-ASCII character and a drawn set of ASCII ones, loads the same."""
    thesaurus = random_thesaurus(np.random.default_rng(seed), tokens=PROPERTY_TOKENS)
    dump_thesaurus_tsv(thesaurus, tmp_path / "t.tsv")
    (tmp_path / "t.nt").write_text(ntriples_text(thesaurus, escaped, wide), encoding="utf-8")
    assert load_thesaurus(tmp_path / "t.nt", "ntriples") == load_thesaurus(tmp_path / "t.tsv")


def stats_stdout(capsys, corpus, thesaurus) -> str:
    """What `semannot stats` prints on the corpus and TSV thesaurus files."""
    argv = ["stats", "--corpus", str(corpus), "--thesaurus", str(thesaurus)]
    assert main(argv + ["--thesaurus-format", "tsv"]) == 0
    return capsys.readouterr().out


SKOS = "http://www.w3.org/2004/02/skos/core#"


def write_thesaurus(path, concept_ids) -> None:
    """One concept per id, its preferred label the id written twice."""
    dump_thesaurus_tsv(Thesaurus({c: Concept(c, c + c) for c in concept_ids}), path)


CORPUS_LINES = ("documents", "concepts in thesaurus", "labels used", "labels per doc")


def corpus_lines(stdout: str) -> dict[str, str]:
    """The first value on each corpus line of `stats` stdout, by the line's
    name, past a leading `loaded N of M documents` line."""
    lines = stdout.splitlines()
    if lines and lines[0].startswith("loaded "):
        lines = lines[1:]
    assert len(lines) >= len(CORPUS_LINES)
    for name, line in zip(CORPUS_LINES, lines):
        assert line.startswith(name + " "), line
    return {name: line[len(name):].split()[0] for name, line in zip(CORPUS_LINES, lines)}


class TestCorpusStats:
    def test_two_doc_hand_case(self, tmp_path, capsys):
        write_thesaurus(tmp_path / "t.tsv", ("a", "b"))
        write_jsonl(
            tmp_path / "c.jsonl",
            [
                {"id": "1", "title": "aa one two three", "labels": ["a", "b"]},
                {"id": "2", "title": "four five six seven", "labels": ["b"]},
            ],
        )
        assert stats_stdout(capsys, tmp_path / "c.jsonl", tmp_path / "t.tsv") == (
            "documents                 2\n"
            "concepts in thesaurus     2\n"
            "labels used               2\n"
            # the population SD; the sample SD of (2, 1) is 0.71
            "labels per doc            1.50 (sd 0.50)\n"
            "-- titles --\n"
            "vocabulary size           8\n"
            "words per doc             4.00\n"
            "concepts per doc          0.50\n"
        )

    def test_single_doc(self, tmp_path, capsys):
        write_thesaurus(tmp_path / "t.tsv", ("a",))
        write_jsonl(tmp_path / "c.jsonl", [{"id": "1", "title": "aa", "labels": ["a"]}])
        out = stats_stdout(capsys, tmp_path / "c.jsonl", tmp_path / "t.tsv")
        assert out.splitlines()[3] == "labels per doc            1.00 (sd 0.00)"

    def test_empty_corpus_error(self, tmp_path, capsys):
        write_thesaurus(tmp_path / "t.tsv", ("a",))
        (tmp_path / "c.jsonl").write_text("")
        assert main(["stats", "--corpus", str(tmp_path / "c.jsonl"),
                     "--thesaurus", str(tmp_path / "t.tsv")]) == 1
        assert capsys.readouterr() == ("", "stats failed: no usable documents\n")

    @pytest.mark.parametrize(
        "refused, text, line, message",
        [
            ("corpus", '{"id": "1", "title": "t", "labels": ["a"]}\n\n["2"]\n', 3,
             "expected a JSON object"),
            ("corpus", '\n{"id": "1", "title": "t", "labels": "a"}\n', 2,
             "'labels' must be an array of strings"),
            ("corpus", '{"id": "1", "title": "t", "labels": ["a", 5]}\n', 1,
             "'labels' must be an array of strings"),
            ("tsv", "# concepts\n\na\taa\nb\n", 4, "expected 'id<TAB>pref<TAB>alt|alt' row"),
            ("tsv", "a\taa\n# again\na\tbb\n", 3, "duplicate concept 'a'"),
            ("ntriples", f"# skos\n\n<a> <{SKOS}prefLabel> \"aa\" .\nnot a triple\n", 4,
             "not a triple"),
            ("ntriples", f"<a> <{SKOS}prefLabel> \"aa\" .\n<a> <{SKOS}altLabel> <b> .\n", 2,
             "altLabel object must be a literal"),
        ],
        ids=[
            "corpus-line-array",
            "corpus-labels-string",
            "corpus-labels-number",
            "tsv-malformed-row",
            "tsv-duplicate-concept",
            "ntriples-not-a-triple",
            "ntriples-label-not-literal",
        ],
    )
    def test_refused_line_named_by_place(self, tmp_path, capsys, refused, text, line, message):
        """A loader refuses a line by its file and number, counting the blank
        and comment lines it skips; `stats` exits 1 and prints nothing else."""
        corpus, thesaurus = tmp_path / "c.jsonl", tmp_path / "t"
        write_jsonl(corpus, [{"id": "1", "title": "t", "labels": ["a"]}])
        write_thesaurus(thesaurus, ("a",))
        path = corpus if refused == "corpus" else thesaurus
        path.write_text(text, encoding="utf-8")
        fmt = "ntriples" if refused == "ntriples" else "tsv"
        argv = ["stats", "--corpus", str(corpus), "--thesaurus", str(thesaurus)]
        assert main(argv + ["--thesaurus-format", fmt]) == 1
        assert capsys.readouterr() == ("", f"stats failed: {path}:{line}: {message}\n")

    def test_labels_used_matches_brute_force_union(self, tmp_path, capsys):
        rng = random.Random(3)
        ids = [f"c{letter}" for letter in "abcdefghijkl"]
        write_thesaurus(tmp_path / "t.tsv", ids)
        for trial in range(20):
            records = []
            for d in range(rng.randint(1, 15)):
                labels = rng.sample(ids, rng.randint(1, 4))
                records.append({"id": f"d{d}", "title": "some title", "labels": labels})
            path = tmp_path / f"s{trial}.jsonl"
            write_jsonl(path, records)
            stats = corpus_lines(stats_stdout(capsys, path, tmp_path / "t.tsv"))
            union = set()
            for record in records:
                union |= set(record["labels"])
            assert int(stats["labels used"]) == len(union)
            assert int(stats["labels used"]) <= int(stats["concepts in thesaurus"])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_mean_sd_is_mean_and_population_sd(values):
    """Equal to the exactly summed mean and population SD to within the
    rounding of summing the values and their squared deviations in order."""
    mean, sd = mean_sd(values)
    tolerance = 2 * len(values) ** 2 * sys.float_info.epsilon * max(1.0, *map(abs, values))
    assert math.isclose(mean, statistics.fmean(values), rel_tol=0, abs_tol=tolerance)
    assert math.isclose(sd, statistics.pstdev(values), rel_tol=0, abs_tol=tolerance)


@given(st.integers(-10**6, 10**6), st.integers(1, 50))
def test_mean_sd_of_one_repeated_integer(value, n):
    assert mean_sd([float(value)] * n) == (value, 0.0)


def test_corpus_jsonl_round_trip(tmp_path, tiny_corpus):
    path = tmp_path / "dump.jsonl"
    dump_corpus_jsonl(tiny_corpus, path)
    reloaded = load_corpus(path, "title").documents
    assert reloaded == tiny_corpus


ECON_DIR = os.environ.get("SEMANNOT_ECONOMICS_DIR")


def reference_statistics(capsys, directory) -> dict[str, str]:
    """The corpus lines `stats` prints on corpus.jsonl and thesaurus.tsv
    in ``directory``."""
    return corpus_lines(
        stats_stdout(
            capsys, os.path.join(directory, "corpus.jsonl"), os.path.join(directory, "thesaurus.tsv")
        )
    )


@pytest.mark.skipif(
    not ECON_DIR,
    reason="licensed economics corpus not available; set SEMANNOT_ECONOMICS_DIR "
    "to a directory holding corpus.jsonl and thesaurus.tsv to enable",
)
def test_economics_reference_statistics(capsys):
    """Published reference statistics of the licensed economics corpus."""
    stats = reference_statistics(capsys, ECON_DIR)
    assert int(stats["documents"]) == 62_924
    assert int(stats["concepts in thesaurus"]) == 6_217
    assert int(stats["labels used"]) == 4_682
    assert float(stats["labels per doc"]) == pytest.approx(5.26, abs=0.005)


def test_reference_statistics_on_a_generated_corpus(tmp_path, capsys):
    """The economics test's reader on a generated corpus under the same file
    names, its first record untitled so that a load line comes first."""
    made = generate_corpus(n_labels=6, docs_per_label=5, seed=4)
    dump_thesaurus_tsv(made.thesaurus, tmp_path / "thesaurus.tsv")
    dump_corpus_jsonl(made.documents, tmp_path / "corpus.jsonl")
    records = [json.loads(line) for line in open(tmp_path / "corpus.jsonl")]
    del records[0]["title"]
    write_jsonl(tmp_path / "corpus.jsonl", records)
    kept = made.documents[1:]
    stats = reference_statistics(capsys, tmp_path)
    assert stats == {
        "documents": str(len(kept)),
        "concepts in thesaurus": str(len(made.thesaurus)),
        "labels used": str(len(set().union(*(doc.gold_labels for doc in kept)))),
        "labels per doc": f"{statistics.fmean(len(doc.gold_labels) for doc in kept):.2f}",
    }
    assert main(["stats", "--corpus", str(tmp_path / "corpus.jsonl"),
                 "--thesaurus", str(tmp_path / "thesaurus.tsv")]) == 0
    assert capsys.readouterr().out.startswith(f"loaded {len(kept)} of {len(records)} documents")


# reader -> (two well-formed lines, the second not ASCII, loader, the loader's format error)
READERS = {
    "corpus": (
        '{"id": "d1", "title": "rate", "labels": ["c1"]}\n'
        '{"id": "d2", "title": "taux d\'intérêt", "labels": ["c2"]}\n',
        load_corpus,
        CorpusFormatError,
    ),
    "tsv": (
        "c1\trate\trates\nc2\tintérêt\t\n", lambda p: load_thesaurus(p, "tsv"), ThesaurusFormatError
    ),
    "ntriples": (
        '<c1> <http://www.w3.org/2004/02/skos/core#prefLabel> "rate"@en .\n'
        '<c2> <http://www.w3.org/2004/02/skos/core#prefLabel> "intérêt"@fr .\n',
        lambda p: load_thesaurus(p, "ntriples"),
        ThesaurusFormatError,
    ),
    "lemma-table": ("mice\tmouse\nintérêts\tintérêt\n", LemmaTable.load, LemmaTableError),
}


@pytest.mark.parametrize("reader", READERS)
def test_leading_byte_order_mark_ignored(tmp_path, reader):
    """A BOM does not become part of the first record's id, the first
    concept or the first lemma table surface, which still maps."""
    text, load, _ = READERS[reader]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load(marked) == load(plain)


@pytest.mark.parametrize("reader", READERS)
def test_undecodable_line_refused_by_place(tmp_path, reader):
    """Each reader names the file and line that is not UTF-8, with its own error."""
    text, load, error = READERS[reader]
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8"))
    load(path)
    path.write_bytes(text.encode("utf-8") + b"caf\xff\trate\n")
    with pytest.raises(error) as refused:
        load(path)
    assert str(refused.value) == f"{path}:3: not UTF-8 text"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Document("d1", "t", None, frozenset({"a"})).text("abstract"), ValueError,
         "unknown field 'abstract'"),
        (lambda: Document("d1", "t", None, frozenset({"a"})).text("fulltext"), ValueError,
         "document d1 has no fulltext"),
        (lambda: load_thesaurus("t.xml", "xml"), ValueError, "unknown thesaurus format 'xml'"),
    ],
    ids=["text-of-unknown-field", "text-of-missing-fulltext", "unknown-thesaurus-format"],
)
def test_corpus_guards_refuse_with_their_message(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == message
