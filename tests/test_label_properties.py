"""Properties of the label currency: the docs x labels indicator built by
LabelMatrix.from_gold and its row subsets (take), and the block ranking
of rank_labels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import sorted_ranking
from semannot.learners import LabelMatrix
from semannot.multilabel import rank_labels
from semannot.serialize import _dec_labels, _enc_labels

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# few distinct values, so that most blocks hold ties, 0.0/-0.0 among them
TIE_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, math.inf, -math.inf]),
    st.floats(allow_nan=False),
)


@st.composite
def score_blocks(draw):
    # ids in any order, not only sorted
    label_ids = draw(st.lists(st.text("abz", min_size=1, max_size=3), unique=True, max_size=8))
    n_rows = draw(st.integers(1, 6))
    flat = draw(st.lists(TIE_SCORES, min_size=n_rows * len(label_ids), max_size=n_rows * len(label_ids)))
    return label_ids, np.array(flat, dtype=np.float64).reshape(n_rows, len(label_ids))


@PROPERTY
@given(score_blocks())
def test_block_ranking_equals_per_row_sort(block):
    label_ids, scores = block
    rankings = rank_labels(label_ids, scores)
    assert rankings.shape == scores.shape and rankings.dtype == np.int64
    for ranking, row in zip(rankings, scores):
        # unranked (-inf) labels hold rank 0
        expected = [0] * len(label_ids)
        for cid, _, rank in sorted_ranking(label_ids, row):
            expected[label_ids.index(cid)] = rank
        assert ranking.tolist() == expected
        assert rank_labels(tuple(label_ids), row[None, :]).tolist() == [expected]


GOLD_SETS = st.lists(
    st.frozensets(st.sampled_from([f"c{i}" for i in range(10)]), min_size=1), max_size=30
)


@PROPERTY
@given(GOLD_SETS)
def test_from_gold_round_trips_and_counts(gold_sets):
    labels = LabelMatrix.from_gold(gold_sets)
    n = len(gold_sets)
    assert labels.label_ids == tuple(sorted(set().union(*gold_sets)))
    assert labels.Y.shape == (n, labels.n_labels) and labels.n_docs == n
    assert [labels.row_set(i) for i in range(n)] == gold_sets
    expected = [sum(cid in gold for gold in gold_sets) / max(1, n) for cid in labels.label_ids]
    assert labels.priors().tolist() == expected
    assert labels.mean_labels_per_doc() == sum(len(gold) for gold in gold_sets) / max(1, n)
    # the model-file form decodes to the same indicator
    decoded = _dec_labels(_enc_labels(labels))
    assert decoded.label_ids == labels.label_ids
    assert (decoded.Y != labels.Y).nnz == 0 and decoded.Y.shape == labels.Y.shape


@PROPERTY
@given(GOLD_SETS.filter(bool), st.data())
def test_take_equals_from_gold_of_the_subset(gold_sets, data):
    rows = np.array(
        sorted(data.draw(st.sets(st.integers(0, len(gold_sets) - 1), min_size=1))), dtype=np.int64
    )
    got = LabelMatrix.from_gold(gold_sets).take(rows)
    expected = LabelMatrix.from_gold([gold_sets[i] for i in rows])
    assert got.label_ids == expected.label_ids
    assert got.Y.shape == expected.Y.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got.Y, part), getattr(expected.Y, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def test_empty_gold_set_refused_with_its_document():
    with pytest.raises(ValueError) as refused:
        LabelMatrix.from_gold([{"a"}, set()])
    assert str(refused.value) == "document 1 has an empty gold label set"
