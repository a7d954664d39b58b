import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collections import Counter

from semannot.corpus import Concept, Thesaurus, ThesaurusFormatError, load_thesaurus
from semannot.features import (
    ConceptMatcher,
    TextVectorizer,
    WeightingModel,
    apply_weighting,
    concat,
    count_corpus,
    count_terms,
    dump_vectors,
    fit_weighting,
)
from semannot.preprocess import preprocess
from semannot.sparse import l2_normalize, row_norms, vstack

from oracles import (
    brute_force_idf,
    concept_rows,
    extract_concepts,
    naive_longest_match,
    ORACLE_TOKENS,
    random_count_vectors,
    random_thesaurus,
    random_token_stream,
    thesaurus_patterns,
)


def sv(entries: dict[int, float], dim: int):
    """One document as a 1-row CSR matrix."""
    return vstack([entries], dim)


def to_dict(x) -> dict[int, float]:
    """Index -> weight map of a 1-row CSR matrix."""
    return dict(zip(x.indices.tolist(), x.data.tolist()))


def assert_valid_rows(X) -> None:
    """Every row: indices strictly increasing and in range, no stored zeros."""
    assert len(X.indices) == len(X.data)
    for start, end in zip(X.indptr[:-1], X.indptr[1:]):
        idx = X.indices[start:end]
        assert np.all(np.diff(idx) > 0)
        assert np.all((idx >= 0) & (idx < X.shape[1]))
        assert np.all(X.data[start:end] != 0.0)


class TestCountTerms:
    def test_direct_count(self):
        assert dict(count_terms(["a", "b", "a"], {"a": 0, "b": 1})) == {0: 2.0, 1: 1.0}

    def test_oov_only(self):
        # a term new to the index takes the next column
        index = {"a": 0}
        assert dict(count_terms(["c"], index)) == {1: 1.0}
        assert index == {"a": 0, "c": 1}

    def test_empty(self):
        index = {"a": 0}
        assert dict(count_terms([], index)) == {}
        assert index == {"a": 0}


class TestExtractConcepts:
    def test_longest_phrase_wins(self, rate_thesaurus):
        matcher = ConceptMatcher(rate_thesaurus)
        v = extract_concepts(["interest", "rate", "hike"], matcher)
        assert v == {matcher.concept_index["c1"]: 1.0}

    def test_shorter_phrase_counts_when_alone(self, rate_thesaurus):
        matcher = ConceptMatcher(rate_thesaurus)
        v = extract_concepts(["rate", "rate"], matcher)
        assert v == {matcher.concept_index["c2"]: 2.0}

    def test_empty_tokens(self, rate_thesaurus):
        matcher = ConceptMatcher(rate_thesaurus)
        assert extract_concepts([], matcher) == {}

    def test_alt_label_unifies_with_pref(self, rate_thesaurus):
        # "interest rates" lemmatizes onto the same pattern as the pref label
        matcher = ConceptMatcher(rate_thesaurus)
        v = extract_concepts(preprocess("interest rates"), matcher)
        assert v == {matcher.concept_index["c1"]: 1.0}

    def test_shared_phrase_counts_both_owners(self):
        thesaurus = Thesaurus(
            {"x": Concept("x", "gold"), "y": Concept("y", "silver", ("gold",))}
        )
        matcher = ConceptMatcher(thesaurus)
        v = extract_concepts(["gold"], matcher)
        assert v == {
            matcher.concept_index["x"]: 1.0,
            matcher.concept_index["y"]: 1.0,
        }

    def test_lemma_table_unifies_text_and_phrases(self):
        from semannot.preprocess import LemmaTable

        thesaurus = Thesaurus({"m": Concept("m", "mouse")})
        table = LemmaTable({"mice": "mouse"})
        matcher = ConceptMatcher(thesaurus, table)
        v = extract_concepts(preprocess("mice everywhere", table), matcher)
        assert v == {matcher.concept_index["m"]: 1.0}

    def test_concept_with_one_label_with_a_token_is_kept(self):
        thesaurus = Thesaurus({"c1": Concept("c1", "-", ("", "rates"))})
        matcher = ConceptMatcher(thesaurus)
        assert extract_concepts(["rate"], matcher) == {matcher.concept_index["c1"]: 1.0}

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("ntriples", '<c1> <http://x/prefLabel> "rate" .\n<c2> <http://x/prefLabel> "-" .\n'),
            ("ntriples", '<c2> <http://x/prefLabel> "" .\n<c2> <http://x/altLabel> "..." .\n'),
            ("tsv", "c1\trate\t\nc2\t \t\n"),
            ("tsv", "c2\t-\t—| \n"),
        ],
    )
    def test_concept_without_a_token_refused_by_id(self, tmp_path, fmt, text):
        """A concept that no text can ever match is refused when the
        matcher is built, not left to count nothing."""
        path = tmp_path / "thesaurus"
        path.write_text(text, encoding="utf-8")
        thesaurus = load_thesaurus(path, fmt)
        with pytest.raises(ThesaurusFormatError) as refused:
            ConceptMatcher(thesaurus)
        assert str(refused.value) == "concept 'c2' has no label with a token"


class TestWeighting:
    def test_idf_appears_everywhere(self):
        vectors = vstack([{0: 1.0}, {0: 2.0}], 1)
        model = fit_weighting(vectors, "idf")
        assert model.idf[0] == 1.0  # 1 + ln(3/3)

    def test_idf_half_df(self):
        vectors = vstack([{0: 1.0}, {}], 1)
        model = fit_weighting(vectors, "idf")
        assert model.idf[0] == pytest.approx(1.0 + math.log(3 / 2), abs=1e-12)

    def test_idf_absent_feature(self):
        vectors = vstack([{}, {}], 1)
        model = fit_weighting(vectors, "idf")
        assert model.idf[0] == pytest.approx(1.0 + math.log(3.0), abs=1e-12)

    def test_empty_training_set_error(self):
        with pytest.raises(ValueError, match="empty"):
            fit_weighting(vstack([], 1), "idf")

    def test_apply_idf_product(self):
        model = WeightingModel("idf", np.array([2.0]), mean_doc_len=1.0)
        assert to_dict(apply_weighting(sv({0: 3.0}, 1), model)) == {0: 6.0}

    def test_bm25_short_document_okapi_value(self):
        # k = 1.6, b = 0.75, len / mean_len = 1 / 5:
        # 1 * 1 * 2.6 / (1 + 1.6 * (0.25 + 0.75 * 0.2)) = 2.6 / 1.64
        model = WeightingModel("bm25", np.array([1.0]), mean_doc_len=5.0)
        out = apply_weighting(sv({0: 1.0}, 1), model)
        assert to_dict(out)[0] == pytest.approx(2.6 / 1.64, abs=1e-12)

    def test_bm25_at_mean_length_is_neutral(self):
        model = WeightingModel("bm25", np.array([1.0]), mean_doc_len=1.0)
        out = apply_weighting(sv({0: 1.0}, 1), model)
        assert to_dict(out)[0] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        model = WeightingModel("idf", np.array([1.0]), mean_doc_len=1.0)
        with pytest.raises(ValueError, match="dimension"):
            apply_weighting(sv({1: 1.0}, 3), model)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            fit_weighting(sv({0: 1.0}, 1), "tfidf-ish")

    def test_bm25_padding_lowers_okapi_value(self):
        # same TF at feature 0 but very different document lengths; feature 0
        # is in both training rows (idf 1) and the mean length is 54 / 2 = 27
        model = fit_weighting(vstack([{0: 2.0}, {0: 2.0, 1: 50.0}], 2), "bm25")
        short = apply_weighting(sv({0: 2.0}, 2), model)
        padded = apply_weighting(sv({0: 2.0, 1: 50.0}, 2), model)
        # 2 * 2.6 / (2 + 1.6 * (0.25 + 0.75 * len / 27)) at len 2 and len 52
        assert to_dict(short)[0] == pytest.approx(2 * 2.6 * 27 / 67.2, abs=1e-12)
        assert to_dict(padded)[0] == pytest.approx(2 * 2.6 * 27 / 127.2, abs=1e-12)

    def test_idf_strictly_decreasing_in_df(self):
        n = 10
        vectors = vstack(
            [{w: 1.0 for w in range(d + 1)} for d in range(n)], n
        )  # feature w has df = n - w
        model = fit_weighting(vectors, "idf")
        assert np.all(np.diff(model.idf) > 0)  # df decreasing -> idf increasing
        assert np.all(model.idf >= 1.0)


class TestNormalizeConcat:
    def test_three_four_five(self):
        out = l2_normalize(sv({0: 3.0, 1: 4.0}, 2))
        assert to_dict(out) == pytest.approx({0: 0.6, 1: 0.8})

    def test_zero_vector_passthrough(self):
        assert to_dict(l2_normalize(sv({}, 3))) == {}

    def test_single_component(self):
        assert to_dict(l2_normalize(sv({5: 7.0}, 6))) == {5: 1.0}

    def test_norm_within_tolerance_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            out = l2_normalize(random_count_vectors(rng))
            for norm, nnz in zip(row_norms(out), np.diff(out.indptr)):
                if nnz:
                    assert abs(norm - 1.0) < 1e-9

    def test_concat_shifts_indices(self):
        out = concat(sv({0: 1.0}, 2), sv({0: 1.0}, 3))
        assert out.shape[1] == 5
        assert to_dict(out) == {0: 1.0, 2: 1.0}

    def test_concat_zero_term_block(self):
        out = concat(sv({}, 2), sv({1: 0.5}, 3))
        assert to_dict(out) == {3: 0.5}

    def test_concat_unit_blocks_norm_sqrt2(self):
        term = l2_normalize(sv({0: 2.0, 1: 1.0}, 4))
        concept = l2_normalize(sv({2: 5.0}, 3))
        assert row_norms(concat(term, concept))[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_idf_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(40):
        vectors = random_count_vectors(rng)
        model = fit_weighting(vectors, "idf")
        expected = brute_force_idf(vectors, vectors.shape[1])
        assert np.allclose(model.idf, expected, atol=1e-12, rtol=0.0)


def test_longest_match_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        thesaurus = random_thesaurus(rng)
        matcher = ConceptMatcher(thesaurus)
        stream = random_token_stream(rng)
        assert matcher.match_counts(stream) == naive_longest_match(
            stream, thesaurus_patterns(thesaurus)
        )


@st.composite
def thesaurus_and_documents(draw):
    """Up to six concepts over the oracle tokens, phrases possibly shared
    between concepts, and up to twelve documents over the same tokens."""
    phrase = st.lists(st.sampled_from(ORACLE_TOKENS), min_size=1, max_size=3).map(" ".join)
    n_concepts = draw(st.integers(1, 6))
    concepts = {}
    for c in range(n_concepts):
        pref, *alts = draw(st.lists(phrase, min_size=1, max_size=3))
        concepts[f"c{c}"] = Concept(f"c{c}", pref, tuple(alt for alt in alts if alt != pref))
    docs = draw(st.lists(st.lists(st.sampled_from(ORACLE_TOKENS), max_size=10), max_size=12))
    return Thesaurus(concepts), docs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(thesaurus_and_documents())
def test_concept_block_equals_per_document_stack(case):
    """count_corpus builds the concept block from arrays in one pass; it is
    bit for bit the block that stacks one document's concept map at a time."""
    thesaurus, docs = case
    matcher = ConceptMatcher(thesaurus)
    got = count_corpus(docs, matcher).concept_counts
    expected = concept_rows(docs, matcher)
    assert got.shape == expected.shape
    assert got.has_sorted_indices
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(expected, part)
        assert a.dtype == b.dtype, part
        assert a.tobytes() == b.tobytes(), part


def fitted(variant, token_seqs, thesaurus):
    return TextVectorizer(variant).fit(count_corpus(token_seqs, ConceptMatcher(thesaurus)))


class TestTextVectorizer:
    @pytest.fixture
    def corpus_tokens(self):
        return [
            ["interest", "rate", "hike"],
            ["rate", "rate", "cut"],
            ["inflation", "outlook"],
        ]

    def test_tf_idf_matches_manual_composition(self, corpus_tokens, rate_thesaurus):
        vec = fitted("tf-idf", corpus_tokens, rate_thesaurus)
        counts = vstack(
            [{vec.vocab[t]: c for t, c in Counter(seq).items()} for seq in corpus_tokens],
            len(vec.vocab),
        )
        model = fit_weighting(counts, "idf")
        for i, seq in enumerate(corpus_tokens):
            expected = l2_normalize(apply_weighting(counts[i], model))
            got = vec.transform_one(seq)
            assert to_dict(got) == to_dict(expected)

    def test_ctf_idf_is_concat_of_blocks(self, corpus_tokens, rate_thesaurus):
        both = fitted("ctf-idf", corpus_tokens, rate_thesaurus)
        matcher = ConceptMatcher(rate_thesaurus)
        terms = fitted("tf-idf", corpus_tokens, rate_thesaurus)
        concepts = fitted("cf-idf", corpus_tokens, rate_thesaurus)
        for seq in corpus_tokens:
            expected = concat(terms.transform_one(seq), concepts.transform_one(seq, matcher))
            assert to_dict(both.transform_one(seq, matcher)) == to_dict(expected)

    def test_unseen_tokens_transform_to_zero_vector(self, corpus_tokens, rate_thesaurus):
        vec = fitted("tf-idf", corpus_tokens, rate_thesaurus)
        assert vec.transform_one(["unseen", "words"]).nnz == 0

    def test_unknown_variant_rejected(self):
        # variant names are exact: no case folding
        for variant in ("tfidf2", "TF-IDF"):
            with pytest.raises(ValueError, match=f"unknown vectorization '{variant}'"):
                TextVectorizer(variant)

    def test_concept_variant_requires_thesaurus(self):
        # counts taken without a concept matcher cannot feed a concept block
        with pytest.raises(ValueError, match="thesaurus"):
            TextVectorizer("cf-idf").fit(count_corpus([["rate"]]))

    @pytest.mark.parametrize("method", ["transform", "transform_counts"])
    @pytest.mark.parametrize("variant", ["cf-idf", "bm25c", "ctf-idf", "bm25ct"])
    def test_fitted_concept_variant_refuses_rows_without_concepts(
        self, corpus_tokens, rate_thesaurus, variant, method
    ):
        # unchecked, transform failed inside the weighting and transform_counts
        # returned the term block alone, narrower than the fitted dimension
        vec = fitted(variant, corpus_tokens, rate_thesaurus)
        with pytest.raises(ValueError, match=f"^vectorization '{variant}' needs a thesaurus$"):
            getattr(vec, method)(count_corpus(corpus_tokens))

    def test_transform_deterministic_bitwise(self, corpus_tokens, rate_thesaurus):
        first = fitted("bm25ct", corpus_tokens, rate_thesaurus)
        matcher = ConceptMatcher(rate_thesaurus)
        second = fitted("bm25ct", corpus_tokens, rate_thesaurus)
        for seq in corpus_tokens:
            a, b = first.transform_one(seq, matcher), second.transform_one(seq, matcher)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    def test_transform_counts_are_raw(self, corpus_tokens, rate_thesaurus):
        vec = fitted("ctf-idf", corpus_tokens, rate_thesaurus)
        matcher = ConceptMatcher(rate_thesaurus)
        counts = vec.counts_one(["rate", "rate", "cut"], matcher)
        term_dim = len(vec.vocab)
        assert to_dict(counts)[vec.vocab["rate"]] == 2.0
        assert to_dict(counts)[term_dim + matcher.concept_index["c2"]] == 2.0

    def test_all_six_variants_run(self, corpus_tokens, rate_thesaurus):
        counts = count_corpus(corpus_tokens, ConceptMatcher(rate_thesaurus))
        for variant in ("tf-idf", "bm25", "cf-idf", "bm25c", "ctf-idf", "bm25ct"):
            out = TextVectorizer(variant).fit(counts).transform(counts)
            assert out.shape[0] == len(corpus_tokens)
            assert_valid_rows(out)


def test_dump_vectors_jsonl(tmp_path):
    path = tmp_path / "vectors.jsonl"
    dump_vectors(path, ["d1", "d2"], vstack([{0: 1.5}, {}], 3))
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0] == {"id": "d1", "indices": [0], "weights": [1.5]}
    assert lines[1] == {"id": "d2", "indices": [], "weights": []}


def test_vstack_round_trip():
    rng = np.random.default_rng(5)
    expected = random_count_vectors(rng).toarray()
    rows = [{j: w for j, w in enumerate(row) if w} for row in expected]
    matrix = vstack(rows, expected.shape[1])
    assert matrix.shape == expected.shape
    dense = matrix.toarray()
    for i in range(len(rows)):
        assert np.array_equal(dense[i], expected[i])


def test_unfitted_vectorizer_refuses_with_its_message():
    with pytest.raises(RuntimeError) as refused:
        TextVectorizer("tf-idf").dimension
    assert str(refused.value) == "vectorizer is not fitted"
