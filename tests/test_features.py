import json
import math

import numpy as np
import pytest

from collections import Counter

from semannot.corpus import Concept, Thesaurus
from semannot.features import (
    ConceptMatcher,
    TextVectorizer,
    WeightingModel,
    apply_weighting,
    concat,
    count_corpus,
    count_terms,
    dump_vectors,
    extract_concepts,
    fit_weighting,
    l2_normalize,
)
from semannot.preprocess import preprocess
from semannot.sparse import row_norms, vstack

from oracles import (
    brute_force_idf,
    naive_longest_match,
    random_count_vectors,
    random_thesaurus,
    random_token_stream,
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
        model = WeightingModel("idf", np.array([2.0]), n_docs=4, mean_doc_len=1.0)
        assert to_dict(apply_weighting(sv({0: 3.0}, 1), model)) == {0: 6.0}

    def test_bm25_b_zero_removes_length(self):
        model = WeightingModel(
            "bm25", np.array([1.0]), n_docs=2, mean_doc_len=5.0, k=1.6, b=0.0
        )
        out = apply_weighting(sv({0: 1.0}, 1), model)
        assert to_dict(out)[0] == pytest.approx(2.6 / 2.6, abs=1e-12)

    def test_bm25_at_mean_length_is_neutral(self):
        model = WeightingModel(
            "bm25", np.array([1.0]), n_docs=2, mean_doc_len=1.0, k=1.6, b=0.75
        )
        out = apply_weighting(sv({0: 1.0}, 1), model)
        assert to_dict(out)[0] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        model = WeightingModel("idf", np.array([1.0]), n_docs=1, mean_doc_len=1.0)
        with pytest.raises(ValueError, match="dimension"):
            apply_weighting(sv({1: 1.0}, 3), model)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            fit_weighting(sv({0: 1.0}, 1), "tfidf-ish")

    def test_bm25_b_zero_ignores_padding(self):
        # same TF at feature 0 but very different document lengths
        model = fit_weighting(vstack([{0: 2.0}, {0: 2.0, 1: 50.0}], 2), "bm25", b=0.0)
        short = apply_weighting(sv({0: 2.0}, 2), model)
        padded = apply_weighting(sv({0: 2.0, 1: 50.0}, 2), model)
        assert to_dict(short)[0] == to_dict(padded)[0]

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
        patterns: dict[tuple[str, ...], set[str]] = {}
        for cid in thesaurus.sorted_ids():
            for phrase in thesaurus.get(cid).phrases():
                tokens = tuple(preprocess(phrase))
                if tokens:
                    patterns.setdefault(tokens, set()).add(cid)
        stream = random_token_stream(rng)
        assert matcher.match_counts(stream) == naive_longest_match(stream, patterns)


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
            [{vec.vocab.index[t]: c for t, c in Counter(seq).items()} for seq in corpus_tokens],
            len(vec.vocab),
        )
        model = fit_weighting(counts, "idf")
        for i, seq in enumerate(corpus_tokens):
            expected = l2_normalize(apply_weighting(counts[i], model))
            got = vec.transform_one(seq)
            assert to_dict(got) == to_dict(expected)

    def test_ctf_idf_is_concat_of_blocks(self, corpus_tokens, rate_thesaurus):
        both = fitted("ctf-idf", corpus_tokens, rate_thesaurus)
        terms = fitted("tf-idf", corpus_tokens, rate_thesaurus)
        concepts = fitted("cf-idf", corpus_tokens, rate_thesaurus)
        for seq in corpus_tokens:
            expected = concat(terms.transform_one(seq), concepts.transform_one(seq))
            assert to_dict(both.transform_one(seq)) == to_dict(expected)

    def test_unseen_tokens_transform_to_zero_vector(self, corpus_tokens, rate_thesaurus):
        vec = fitted("tf-idf", corpus_tokens, rate_thesaurus)
        assert vec.transform_one(["unseen", "words"]).nnz == 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="tfidf2"):
            TextVectorizer("tfidf2")

    def test_concept_variant_requires_thesaurus(self):
        # counts taken without a concept matcher cannot feed a concept block
        with pytest.raises(ValueError, match="thesaurus"):
            TextVectorizer("cf-idf").fit(count_corpus([["rate"]]))

    def test_transform_deterministic_bitwise(self, corpus_tokens, rate_thesaurus):
        first = fitted("bm25ct", corpus_tokens, rate_thesaurus)
        second = fitted("bm25ct", corpus_tokens, rate_thesaurus)
        for seq in corpus_tokens:
            a, b = first.transform_one(seq), second.transform_one(seq)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    def test_transform_counts_are_raw(self, corpus_tokens, rate_thesaurus):
        vec = fitted("ctf-idf", corpus_tokens, rate_thesaurus)
        counts = vec.counts_one(["rate", "rate", "cut"])
        term_dim = len(vec.vocab)
        assert to_dict(counts)[vec.vocab.index["rate"]] == 2.0
        assert to_dict(counts)[term_dim + vec.matcher.concept_index["c2"]] == 2.0

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
