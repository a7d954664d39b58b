import hashlib

import pytest

from semannot.corpus import dump_corpus_jsonl, dump_thesaurus_tsv
from semannot.preprocess import lemmatize, tokenize
from semannot.synthetic import PRESETS, SettingError, generate_corpus


def test_document_count_and_nonempty_gold():
    made = generate_corpus(n_labels=7, docs_per_label=9, seed=2)
    assert len(made.documents) == 63
    assert len(made.thesaurus) == 7
    for doc in made.documents:
        assert doc.gold_labels
        assert all(cid in made.thesaurus for cid in doc.gold_labels)


def test_labels_per_doc_respects_range():
    made = generate_corpus(n_labels=10, docs_per_label=10, labels_per_doc=(2, 4), seed=5)
    for doc in made.documents:
        assert 2 <= len(doc.gold_labels) <= 4


def test_same_seed_reproduces_corpus():
    a = generate_corpus(n_labels=4, docs_per_label=6, seed=9)
    b = generate_corpus(n_labels=4, docs_per_label=6, seed=9)
    assert a.documents == b.documents
    assert a.thesaurus.concepts == b.thesaurus.concepts


def test_generated_words_survive_preprocessing_unchanged():
    # titles must tokenize to themselves so the signal design is exact
    made = generate_corpus(n_labels=6, docs_per_label=5, synonyms_per_concept=2, seed=4)
    for doc in made.documents[:20]:
        tokens = doc.title.split()
        assert lemmatize(tokenize(doc.title)) == tokens


def test_synonym_corpus_uses_alternative_phrases():
    made = generate_corpus(**PRESETS["synonym"], seed=5)
    alt_forms = {
        alt for concept in made.thesaurus.concepts.values() for alt in concept.alt_labels
    }
    assert alt_forms
    used = set()
    for doc in made.documents:
        used.update(doc.title.split())
    assert used & alt_forms  # some titles mention a synonym form


def test_presets_have_expected_shapes():
    assert len(generate_corpus(**PRESETS["separable"], seed=0).documents) == 1000
    assert len(generate_corpus(**PRESETS["noisy"], seed=0).documents) == 800
    assert len(generate_corpus(**PRESETS["synonym"], seed=0).documents) == 480


# sha256 of each preset's corpus and thesaurus files at seed 0, as written
# when the presets were three functions
PRESET_DIGESTS = {
    "separable": (
        "6cd51383e158026037b76c60a725ba6f6954472daa76508d1418c117483c753d",
        "95c3c8f5f6c0bd49b12c3de70a749eb1f6ebe06ff487b4570133c9f861133ccd",
    ),
    "noisy": (
        "e48596ad22b91ed4e20f81c321f5e7139c9c0cf3139dd8de825f3bee8c4e556b",
        "95c3c8f5f6c0bd49b12c3de70a749eb1f6ebe06ff487b4570133c9f861133ccd",
    ),
    "synonym": (
        "0d53d9ee9504efd3f933d0bd73d788736f8818a1b00290600b9fad45b9e125f9",
        "954ff2bb50f54c0933ef57224cb4f1baa45bc0c07509738005c56283c66898c4",
    ),
}


@pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
def test_preset_output_is_pinned(tmp_path, preset):
    made = generate_corpus(**PRESETS[preset], seed=0)
    corpus, thesaurus = tmp_path / "c.jsonl", tmp_path / "t.tsv"
    dump_corpus_jsonl(made.documents, corpus)
    dump_thesaurus_tsv(made.thesaurus, thesaurus)
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (corpus, thesaurus))
    assert digests == PRESET_DIGESTS[preset]


def test_default_labels_per_doc_narrows_to_few_labels():
    made = generate_corpus(n_labels=2, docs_per_label=2)
    assert len(made.documents) == 4
    assert all(1 <= len(doc.gold_labels) <= 2 for doc in made.documents)


def test_invalid_label_range_rejected():
    with pytest.raises(ValueError, match="labels_per_doc"):
        generate_corpus(n_labels=3, labels_per_doc=(1, 5))


@pytest.mark.parametrize("labels_per_doc", [(2, 1), (0, 2)], ids=["reversed", "low-zero"])
def test_label_range_out_of_order_or_below_one_refused(labels_per_doc):
    with pytest.raises(ValueError) as refused:
        generate_corpus(n_labels=3, labels_per_doc=labels_per_doc)
    assert str(refused.value) == (
        f"labels_per_doc must be a range 1 <= low <= high, got {labels_per_doc}"
    )


@pytest.mark.parametrize(
    "settings, name",
    [
        (dict(n_labels=0), "n_labels"),
        (dict(docs_per_label=-1), "docs_per_label"),
        (dict(keywords_per_label=-1), "keywords_per_label"),
        (dict(keyword_overlap=1.5), "keyword_overlap"),
        (dict(keyword_overlap=float("nan")), "keyword_overlap"),
        (dict(synonyms_per_concept=-2), "synonyms_per_concept"),
        (dict(synonym_rate=-0.5), "synonym_rate"),
        (dict(title_keywords=-1), "title_keywords"),
        (dict(noise_words=-4), "noise_words"),
        (dict(noise_vocab=0), "noise_vocab"),
        (dict(fulltext_factor=-1), "fulltext_factor"),
        (dict(seed=-1), "seed"),
    ],
)
def test_out_of_range_setting_is_refused_by_name(settings, name):
    with pytest.raises(SettingError) as refused:
        generate_corpus(**settings)
    assert refused.value.name == name
    assert str(refused.value).startswith(f"{name} must be ")
