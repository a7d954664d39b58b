import numpy as np
import pytest

from semannot.sparse import row_norms, vstack


def test_from_dict_sorts_and_drops_zeros():
    X = vstack([{5: 1.0, 2: 0.0, 1: 3.0}], 6)
    assert X.indices.tolist() == [1, 5]
    assert X.data.tolist() == [3.0, 1.0]
    assert X.shape == (1, 6)


def test_norm_scale_sum():
    X = vstack([{0: 3.0, 1: 4.0}], 2)
    assert row_norms(X).tolist() == [5.0]
    assert row_norms(X * 2.0).tolist() == [10.0]
    assert X.sum() == 7.0


def test_row_norms_ignore_neighbouring_rows():
    rng = np.random.default_rng(3)
    rows = [{int(j): float(rng.random()) for j in rng.choice(9, 4, replace=False)} for _ in range(6)]
    X = vstack(rows, 9)
    for i in range(X.shape[0]):
        assert row_norms(X[i:i + 1])[0] == row_norms(X)[i]
    assert row_norms(vstack([{}], 3)).tolist() == [0.0]


def test_vstack_dimension_checks():
    with pytest.raises(ValueError, match="dimension"):
        vstack([{0: 1.0}, {3: 1.0}], 3)
    # the dimension is always given, so an empty list is a valid 0-row matrix
    assert vstack([], 3).shape == (0, 3)


def test_vstack_rows_round_trip():
    rows = [{0: 1.0}, {1: 2.0, 2: 0.5}, {}]
    matrix = vstack(rows, 3)
    for i, row in enumerate(rows):
        start, end = matrix.indptr[i], matrix.indptr[i + 1]
        back = dict(zip(matrix.indices[start:end].tolist(), matrix.data[start:end].tolist()))
        assert back == row
    assert matrix.shape == (3, 3)
