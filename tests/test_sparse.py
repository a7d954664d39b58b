import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp

from oracles import scatter_columns, sequential_row_norms, stack_rows
from semannot.sparse import remap_columns, row_norms, vstack


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


# negative and subnormal weights among them, whose squares vanish; each
# square stays finite, as every weight the vectorizers and learners make is
LIMIT = 1e150
NORM_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, LIMIT, -LIMIT]),
    st.floats(-LIMIT, LIMIT),
)


@st.composite
def csr_blocks(draw, weights):
    """A CSR block of up to 5 rows, some empty, each storing its columns in
    any order, with its weights drawn from ``weights``."""
    n_cols = draw(st.integers(0, 8))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        order = draw(st.permutations(range(n_cols)))
        rows.append(order[:draw(st.integers(0, n_cols))])
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([j for row in rows for j in row], dtype=np.int64)
    values = draw(st.lists(weights, min_size=len(indices), max_size=len(indices)))
    data = np.array(values, dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(rows), n_cols))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(csr_blocks(NORM_WEIGHTS))
def test_row_norms_ignore_neighbouring_rows(X):
    """Bit for bit the sequential sum of each row's squares, so a row's
    norm is the same alone as in any block."""
    norms = row_norms(X)
    assert norms.dtype == np.float64
    assert norms.tobytes() == sequential_row_norms(X).tobytes()
    for i in range(X.shape[0]):
        assert row_norms(X[i:i + 1]).tobytes() == norms[i:i + 1].tobytes()


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


# zero weights of both signs and NaN, which is not a zero weight
WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, 1.0]), st.floats())


@st.composite
def weight_maps(draw):
    """(rows, dimension); in half the cases one row also holds a stray key,
    below 0 or at or past the dimension.  Keys stay within int32: past it,
    a zero-weight key that vstack drops still widens its index arrays to
    int64, where the loop's stay int32."""
    dimension = draw(st.integers(0, 8))
    keys = st.integers(0, max(dimension - 1, 0))
    rows = draw(st.lists(st.dictionaries(keys, WEIGHTS, max_size=dimension), max_size=5))
    if rows and draw(st.booleans()):
        stray = st.integers(-3, -1) | st.integers(dimension, dimension + 3) | st.integers(
            -(2**31), 2**31 - 1
        )
        draw(st.sampled_from(rows))[draw(stray)] = draw(WEIGHTS)
    return rows, dimension


def stacked(build, rows, dimension):
    """Everything vstack promises of its result, data by bits; or its error."""
    try:
        X = build(rows, dimension)
    except ValueError as exc:
        return str(exc)
    return (
        X.shape, X.indptr.dtype, X.indptr.tolist(), X.indices.dtype, X.indices.tolist(),
        X.data.dtype, X.data.view(np.uint64).tolist(),
    )


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(weight_maps())
def test_vstack_equals_entry_by_entry_oracle(case):
    rows, dimension = case
    assert stacked(vstack, rows, dimension) == stacked(stack_rows, rows, dimension)


@st.composite
def remaps(draw):
    """(X, lookup, n_columns): X's rows store their columns in any order,
    and lookup sends some of X's columns, one to one, anywhere in
    range(n_columns) and the rest to -1."""
    X = draw(csr_blocks(st.integers(1, 9)))
    n_cols = X.shape[1]
    n_kept = draw(st.integers(0, n_cols))
    n_columns = n_kept + draw(st.integers(0, 3))
    lookup = np.full(n_cols, -1, dtype=np.int64)
    kept = draw(st.permutations(range(n_cols)))[:n_kept]
    lookup[kept] = draw(st.permutations(range(n_columns)))[:n_kept]
    return X, lookup, n_columns


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(remaps())
def test_remap_columns_equals_dense_scatter(case):
    X, lookup, n_columns = case
    Y = remap_columns(X, lookup, n_columns)
    dense = scatter_columns(X, lookup, n_columns)
    assert Y.shape == dense.shape
    # every stored weight is nonzero: a row stores exactly its nonzero
    # columns of the scatter, in increasing order
    for i, row in enumerate(dense):
        start, end = Y.indptr[i], Y.indptr[i + 1]
        assert Y.indices[start:end].tolist() == np.flatnonzero(row).tolist()
        assert Y.data[start:end].tolist() == row[row != 0].tolist()
