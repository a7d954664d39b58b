import base64
import contextlib
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semannot
from semannot import cli, corpus as corpus_module
from semannot.cli import main
from semannot.corpus import (
    CorpusFormatError, dump_corpus_jsonl, dump_thesaurus_tsv, load_corpus, load_thesaurus,
)
from semannot.serialize import load_pipeline
from semannot.sparse import ROW_BLOCK
from semannot.synthetic import generate_corpus


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    made = generate_corpus(n_labels=5, docs_per_label=10, seed=13)
    corpus = root / "corpus.jsonl"
    thesaurus = root / "thesaurus.tsv"
    dump_corpus_jsonl(made.documents, corpus)
    dump_thesaurus_tsv(made.thesaurus, thesaurus)
    return str(corpus), str(thesaurus)


def eval_args(corpus, thesaurus, out_json, out_csv, **extra):
    args = [
        "evaluate",
        "--corpus", corpus,
        "--thesaurus", thesaurus,
        "--field", "title",
        "--vec", extra.pop("vec", "tf-idf"),
        "--clf", extra.pop("clf", "knn"),
        "--folds", str(extra.pop("folds", 5)),
        "--seed", str(extra.pop("seed", 3)),
        "--out-json", out_json,
        "--out-csv", out_csv,
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


def test_evaluate_smoke_writes_reports(data_files, tmp_path, capsys):
    corpus, thesaurus = data_files
    out_json = str(tmp_path / "report.json")
    out_csv = str(tmp_path / "report.csv")
    code = main(eval_args(corpus, thesaurus, out_json, out_csv))
    assert code == 0
    assert "mean sample F1" in capsys.readouterr().out
    report = json.loads(open(out_json).read())
    assert 0.0 <= report["mean_f1"] <= 1.0
    lines = open(out_csv).read().splitlines()
    assert lines[0].startswith("input,vectorization,classifier")
    assert len(lines) == 2


def test_unknown_vectorization_exits_2(data_files, tmp_path, capsys):
    corpus, thesaurus = data_files
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "evaluate",
                "--corpus", corpus,
                "--thesaurus", thesaurus,
                "--vec", "tfidf2",
            ]
        )
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "tf-idf" in err and "bm25ct" in err  # lists the valid variants


def test_grid_vectorizations_has_six_rows(data_files, tmp_path):
    corpus, thesaurus = data_files
    out_json = str(tmp_path / "grid.json")
    out_csv = str(tmp_path / "grid.csv")
    code = main(
        eval_args(corpus, thesaurus, out_json, out_csv, clf="knn", folds=4)
        + ["--grid", "vectorizations"]
    )
    assert code == 0
    lines = open(out_csv).read().splitlines()
    assert len(lines) == 7  # header + one row per variant
    variants = [line.split(",")[1] for line in lines[1:]]
    assert variants == ["tf-idf", "bm25", "cf-idf", "bm25c", "ctf-idf", "bm25ct"]


def test_byte_identical_csv_for_same_seed(data_files, tmp_path):
    corpus, thesaurus = data_files
    outs = []
    for run in ("one", "two"):
        out_json = str(tmp_path / f"{run}.json")
        out_csv = str(tmp_path / f"{run}.csv")
        assert main(eval_args(corpus, thesaurus, out_json, out_csv, clf="lr", epochs="3")) == 0
        outs.append(open(out_csv, "rb").read())
    assert outs[0] == outs[1]


def test_train_annotate_self_retrieval(data_files, tmp_path):
    corpus, thesaurus = data_files
    model = str(tmp_path / "model.json")
    code = main(
        [
            "train",
            "--corpus", corpus,
            "--thesaurus", thesaurus,
            "--vec", "tf-idf",
            "--clf", "knn",
            "--out", model,
            "--dump-vectors", str(tmp_path / "vectors.jsonl"),
        ]
    )
    assert code == 0
    out = str(tmp_path / "annotated.jsonl")
    assert main(["annotate", "--model", model, "--corpus", corpus, "--out", out]) == 0
    gold = {
        doc.doc_id: set(doc.gold_labels)
        for doc in load_corpus(corpus, "title").documents
    }
    predictions = [json.loads(line) for line in open(out)]
    assert len(predictions) == len(gold)
    for record in predictions:
        assert set(record["labels"]) == gold[record["id"]]
    # the vector dump holds the rows the model's pipeline makes of the corpus
    dump = [json.loads(line) for line in open(tmp_path / "vectors.jsonl")]
    docs = load_corpus(corpus, "title").documents
    pipeline = load_pipeline(model)
    X = pipeline.vectorize(pipeline.count(docs))
    assert [row["id"] for row in dump] == [doc.doc_id for doc in docs]
    for i, row in enumerate(dump):
        assert row["indices"] == X.indices[X.indptr[i]:X.indptr[i + 1]].tolist()
        assert row["weights"] == X.data[X.indptr[i]:X.indptr[i + 1]].tolist()


def test_annotate_with_tampered_model_exits_1(data_files, tmp_path, capsys):
    corpus, thesaurus = data_files
    model = str(tmp_path / "model.json")
    assert main(
        ["train", "--corpus", corpus, "--thesaurus", thesaurus,
         "--vec", "tf-idf", "--clf", "knn", "--out", model]
    ) == 0
    container = json.loads(open(model).read())
    container["format_version"] = 99
    open(model, "w").write(json.dumps(container))
    code = main(["annotate", "--model", model, "--corpus", corpus, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "annotation failed" in capsys.readouterr().err


@pytest.mark.parametrize("bad_index", ["-1", "L"])
def test_annotate_with_out_of_range_label_index_exits_1(data_files, tmp_path, capsys, bad_index):
    corpus, thesaurus = data_files
    model = str(tmp_path / "model.json")
    assert main(
        ["train", "--corpus", corpus, "--thesaurus", thesaurus,
         "--vec", "tf-idf", "--clf", "knn", "--out", model]
    ) == 0
    container = json.loads(open(model).read())
    labels = container["classifier"]["labels"]
    labels["rows"][0] = [-1 if bad_index == "-1" else len(labels["label_ids"])]
    open(model, "w").write(json.dumps(container))
    capsys.readouterr()
    code = main(["annotate", "--model", model, "--corpus", corpus, "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("annotation failed: label index out of range")


KNN = ("knn", "tf-idf")
KNN_KEYS = "config builds KnnClassifier with state keys ['labels', 'matrix'], model holds"
MLP = ("mlp", "tf-idf", "--mlp-hidden", "8", "--epochs", "2")


def cut(array: dict, n: int) -> None:
    """Keep the first n entries of a stored one-dimensional array."""
    size = n * np.dtype(array["dtype"]).itemsize
    data = base64.b64decode(array["data"])[:size]
    array.update(shape=[n], data=base64.b64encode(data).decode("ascii"))


def widen(array: dict, n: int) -> None:
    """Append n zero columns to a stored two-dimensional array."""
    entries = np.frombuffer(base64.b64decode(array["data"]), dtype=array["dtype"])
    entries = entries.reshape(array["shape"])
    wider = np.hstack([entries, np.zeros((entries.shape[0], n), dtype=entries.dtype)])
    array.update(shape=list(wider.shape), data=base64.b64encode(wider.tobytes()).decode("ascii"))


def declare_wider(matrix: dict, n: int) -> None:
    """Declare a stored sparse matrix n columns wider than its entries need."""
    matrix["shape"][1] += n


def rewrite(array: dict, positions: list[int], values: list[int]) -> None:
    """Set entries of a stored one-dimensional array."""
    entries = np.frombuffer(base64.b64decode(array["data"]), dtype=array["dtype"]).copy()
    entries[positions] = values
    array["data"] = base64.b64encode(entries.tobytes()).decode("ascii")


def swap(array: dict, i: int, j: int) -> None:
    """Exchange two entries of a stored one-dimensional array."""
    entries = np.frombuffer(base64.b64decode(array["data"]), dtype=array["dtype"])
    rewrite(array, [i, j], [entries[j], entries[i]])


def repeat_first_indices(labels: dict) -> None:
    """Store the first label index of every training row twice."""
    for row in labels["rows"]:
        row.insert(0, row[0])


def copy_first_id(label_ids: list) -> None:
    """Overwrite the second stored label id with the first."""
    label_ids[1] = label_ids[0]


def swap_first_ids(label_ids: list) -> None:
    label_ids[0], label_ids[1] = label_ids[1], label_ids[0]


def python_in_subprocess(args: list[str], **run) -> subprocess.CompletedProcess:
    """Run Python with this source tree's package in its own process."""
    src = str(Path(semannot.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path}, **run)


def cli_in_subprocess(argv: list[str], **run) -> subprocess.CompletedProcess:
    """Run the CLI from this source tree in its own process."""
    return python_in_subprocess(["-m", "semannot.cli", *argv], **run)


def annotate_in_subprocess(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in its own process, so a crash in native code is an exit
    status rather than the end of the test run."""
    done = cli_in_subprocess(argv, capture_output=True, text=True)
    return done.returncode, done.stderr


CTF = ("knn", "ctf-idf")
CONTAINER_KEYS = (
    "['classifier', 'config', 'format_version', 'lemma_table', 'thesaurus', 'vectorizer']"
)
NO_THESAURUS = "vectorization 'ctf-idf' needs a thesaurus {concept_id: [pref, alt, ...]}"
NOT_A_LEMMA_TABLE = "lemma_table must be null or a {surface: lemma} map of strings"
STACKED = ("lr-dt", "tf-idf")
MALFORMED_TREE = "stacking tree 'C0000' is malformed or too deep"
L2R = ("l2r", "tf-idf")
NON_FINITE = "array of dtype <f8 holds NaN or infinity"
BAD_BIAS = "bias must be a finite number, got"
REFUSED = "config refused:"
NOT_TREES = "stacking trees must be a {label_id: tree} map, got"
NOT_A_CONTAINER = "model container must be a JSON object, got"
ARRAY_W_KEYS = "array W has keys ['data', 'dtype', 'shape'], model holds"
BAD_ROW = "training label row"
MUST_INCREASE = "is empty or not strictly increasing"
UNSORTED_IDS = "label_ids must be sorted and unique"


class Whole:
    """What a tamper returns to replace the whole container with `value`."""

    def __init__(self, value):
        self.value = value


def tree(container: dict) -> dict:
    """The stored meta-tree of label C0000 in a stacked model; on the test
    corpus its root is a split on the score with two leaf children."""
    return container["classifier"]["model"]["trees"]["C0000"]


@pytest.mark.parametrize(
    "train, tamper, message",  # train: (classifier, vectorization, *extra flags)
    [
        (KNN, lambda c: c["config"].update(jobs=1), "unknown config key 'jobs'"),
        (KNN, lambda c: c["config"].pop("classifier"), "missing config key 'classifier'"),
        (KNN, lambda c: c.update(format_version=1), "unsupported model format version 1"),
        (KNN, lambda c: c.update(format_version=2), "unsupported model format version 2"),
        (KNN, lambda c: c["classifier"].update(k=1), f"{KNN_KEYS} ['k', 'labels', 'matrix']"),
        (KNN, lambda c: c["classifier"].pop("matrix"), f"{KNN_KEYS} ['labels']"),
        (
            CTF,
            lambda c: c["config"].update(vectorization="tf-idf"),
            "config builds TextVectorizer with state keys ['term_weighting', 'vocab'], "
            "model holds ['concept_weighting', 'term_weighting', 'vocab']",
        ),
        # reinterpreting the float weights as integers would change decisions silently
        (
            ("lr", "tf-idf"),
            lambda c: c["classifier"]["W"].update(dtype="<i8"),
            "array of dtype <i8 where <f8 is required",
        ),
        (KNN, lambda c: c.update(format_version=3), "unsupported model format version 3"),
        # broadcasting would apply the one bias left to every label
        (
            ("lr", "tf-idf"),
            lambda c: cut(c["classifier"]["b"], 1),
            "array b of shape [1] where [5] is required",
        ),
        (
            MLP,
            lambda c: cut(c["classifier"]["params"]["b1"], 7),
            "array b1 of shape [7] where [8] is required",
        ),
        (
            MLP,
            lambda c: c["classifier"]["params"].pop("W1"),
            "MLP parameters ['W2', 'b1', 'b2'] where ['W1', 'W2', 'b1', 'b2'] are required",
        ),
        (
            ("l2r", "tf-idf"),
            lambda c: cut(c["classifier"]["weights"], 3),
            "array weights of shape [3] where [4] is required",
        ),
        (KNN, lambda c: c.update(format_version=4), "unsupported model format version 4"),
        (
            CTF,
            lambda c: c.pop("thesaurus"),
            f"format version 5 has top-level keys {CONTAINER_KEYS}, model holds "
            "['classifier', 'config', 'format_version', 'lemma_table', 'vectorizer']",
        ),
        (CTF, lambda c: c.update(thesaurus=None), NO_THESAURUS),
        (CTF, lambda c: c["thesaurus"].update({next(iter(c["thesaurus"])): []}), NO_THESAURUS),
        # a format-5 model trained on a concept whose only label has no token
        (
            CTF,
            lambda c: c["thesaurus"].update(C0000=["-"]),
            "model thesaurus: concept 'C0000' has no label with a token",
        ),
        (
            KNN,
            lambda c: c.update(thesaurus={"C1": ["interest rate"]}),
            "vectorization 'tf-idf' uses no thesaurus, model holds one",
        ),
        # unchecked, the sparse product reads far out of bounds: the process dies (SIGSEGV)
        pytest.param(
            CTF,
            lambda c: rewrite(c["classifier"]["matrix"]["indices"], [0], [2**31 - 1]),
            "sparse matrix is malformed: indices must be < 129",
            marks=pytest.mark.subprocess,
        ),
        # a decreasing indptr shifts rows onto other documents' labels
        (
            KNN,
            lambda c: swap(c["classifier"]["matrix"]["indptr"], 1, 2),
            "sparse matrix is malformed: indptr must be a non-decreasing sequence",
        ),
        (
            KNN,
            lambda c: c["vectorizer"]["term_weighting"].update(mean_doc_len=3.0),
            "config builds idf weighting with state keys ['idf'], "
            "model holds ['idf', 'mean_doc_len']",
        ),
        (
            ("knn", "bm25"),
            lambda c: c["vectorizer"]["term_weighting"].pop("mean_doc_len"),
            "config builds bm25 weighting with state keys ['idf', 'mean_doc_len'], "
            "model holds ['idf']",
        ),
        # an integer lemma matches no token: the model annotated as if untabled
        (CTF, lambda c: c.update(lemma_table={"siga": 3}), NOT_A_LEMMA_TABLE),
        (CTF, lambda c: c.update(lemma_table=["siga"]), NOT_A_LEMMA_TABLE),
        (
            CTF,
            lambda c: c.update(lemma_table={"sigas": "siga", "siga": "kuab"}),
            "lemma_table is malformed: lemma 'siga' (for surface 'sigas') "
            "is not a fixed point of the table",
        ),
        # the feature axis is checked against the vectorizer's dimension at load,
        # not by the prediction code
        (
            ("lr", "tf-idf"),
            lambda c: widen(c["classifier"]["W"], 1),
            "array W of shape [5, 125] where [5, 124] is required",
        ),
        (
            KNN,
            lambda c: cut(c["vectorizer"]["term_weighting"]["idf"], 123),
            "array term idf of shape [123] where [124] is required",
        ),
        (
            CTF,
            lambda c: cut(c["vectorizer"]["concept_weighting"]["idf"], 4),
            "concept idf of length 4 for 5 thesaurus concepts",
        ),
        (
            KNN,
            lambda c: declare_wider(c["classifier"]["matrix"], 5),
            "array matrix of shape [50, 129] where [50, 124] is required",
        ),
        (
            ("rocchio-dt", "ctf-idf"),
            lambda c: declare_wider(c["classifier"]["base"]["centroids"], 1),
            "array centroids of shape [5, 130] where [5, 129] is required",
        ),
        (
            ("l2r", "tf-idf"),
            lambda c: declare_wider(c["classifier"]["knn"]["matrix"], 1),
            "array matrix of shape [50, 125] where [50, 124] is required",
        ),
        (
            ("bayes-multinomial", "tf-idf"),
            lambda c: widen(c["classifier"]["_coef"], 2),
            "array _coef of shape [5, 126] where [5, 124] is required",
        ),
        (
            MLP,
            lambda c: widen(c["classifier"]["params"]["W1"], 1),
            "array W1 of shape [8, 125] where [8, 124] is required",
        ),
        # the config check the flags get runs on a stored config too: each
        # of these annotated every document with no label
        (
            MLP,
            lambda c: c["config"].update(mlp_threshold=float("nan")),
            "config refused: mlp_threshold must be in (0, 1), got nan",
        ),
        (
            MLP,
            lambda c: c["config"].update(mlp_threshold=1.5),
            "config refused: mlp_threshold must be in (0, 1), got 1.5",
        ),
        # unchecked, the first two changed decisions silently and the next
        # two failed inside prediction
        (STACKED, lambda c: tree(c).update(threshold=float("nan")), MALFORMED_TREE),
        (STACKED, lambda c: tree(c)["right"].update(value=5), MALFORMED_TREE),
        (STACKED, lambda c: tree(c).update(feature=7), MALFORMED_TREE),
        (STACKED, lambda c: tree(c).pop("left"), MALFORMED_TREE),
        # unchecked, all but the last annotated with exit 0 (an infinite alpha or
        # a NaN bias left every document without a label) and a string
        # mean_doc_len failed inside prediction
        (
            L2R,
            lambda c: c["config"].update(alpha=float("inf")),
            "config refused: alpha must be finite, got inf",
        ),
        (
            STACKED,
            lambda c: c["classifier"]["model"].update(fallback_cutoff="x"),
            "fallback_cutoff must be an integer >= 1, got 'x'",
        ),
        (
            STACKED,
            lambda c: c["classifier"]["model"].update(fallback_cutoff=-5),
            "fallback_cutoff must be an integer >= 1, got -5",
        ),
        (
            STACKED,
            lambda c: c["classifier"]["model"].update(fallback_cutoff=1.5),
            "fallback_cutoff must be an integer >= 1, got 1.5",
        ),
        (
            STACKED,
            lambda c: c["classifier"]["model"].update(fallback_cutoff=True),
            "fallback_cutoff must be an integer >= 1, got True",
        ),
        (
            STACKED,
            lambda c: c["classifier"]["model"]["trees"].update(ZZZ=tree(c)),
            "stacking tree 'ZZZ' is for a label the base does not rank",
        ),
        (
            STACKED,
            lambda c: c["classifier"]["model"].update(top_m=3),
            "a stacking model has keys ['fallback_cutoff', 'trees'], "
            "model holds ['fallback_cutoff', 'top_m', 'trees']",
        ),
        (
            ("lr", "tf-idf"),
            lambda c: rewrite(c["classifier"]["b"], list(range(5)), [float("nan")] * 5),
            NON_FINITE,
        ),
        (
            MLP,
            lambda c: rewrite(c["classifier"]["params"]["W1"], [3], [float("inf")]),
            NON_FINITE,
        ),
        (L2R, lambda c: c["classifier"].update(bias="nan"), f"{BAD_BIAS} 'nan'"),
        (L2R, lambda c: c["classifier"].update(bias=float("inf")), f"{BAD_BIAS} inf"),
        (L2R, lambda c: c["classifier"].update(bias=True), f"{BAD_BIAS} True"),
        (L2R, lambda c: c["classifier"].update(bias="7"), f"{BAD_BIAS} '7'"),
        (
            ("knn", "bm25"),
            lambda c: c["vectorizer"]["term_weighting"].update(mean_doc_len=-1.0),
            "mean_doc_len must be a finite number >= 0, got -1.0",
        ),
        (
            ("knn", "bm25"),
            lambda c: c["vectorizer"]["term_weighting"].update(mean_doc_len=float("nan")),
            "mean_doc_len must be a finite number >= 0, got nan",
        ),
        (
            ("knn", "bm25"),
            lambda c: c["vectorizer"]["term_weighting"].update(mean_doc_len="13.2"),
            "mean_doc_len must be a finite number >= 0, got '13.2'",
        ),
        # unchecked, the first two failed inside prediction, the next four
        # failed without being reported as a refused config, and the rest
        # annotated with exit 0
        (
            KNN,
            lambda c: c["config"].update(knn_k=1.5),
            f"{REFUSED} knn_k must be an integer, got 1.5",
        ),
        (
            KNN,
            lambda c: c["config"].update(knn_k=True),
            f"{REFUSED} knn_k must be an integer, got True",
        ),
        (
            KNN,
            lambda c: c["config"].update(folds="10"),
            f"{REFUSED} folds must be an integer, got '10'",
        ),
        (
            MLP,
            lambda c: c["config"].update(mlp_activation="sigmoid"),
            f"{REFUSED} unknown mlp_activation 'sigmoid'; valid: relu, tanh",
        ),
        (
            MLP,
            lambda c: c["config"].update(mlp_threshold="0.5"),
            f"{REFUSED} mlp_threshold must be a number, got '0.5'",
        ),
        (
            KNN,
            lambda c: c["config"].update(vectorization=5),
            f"{REFUSED} unknown vectorization 5; valid: tf-idf, bm25, cf-idf, bm25c, ctf-idf, bm25ct",
        ),
        (
            KNN,
            lambda c: c["config"].update(seed="x"),
            f"{REFUSED} seed must be an integer, got 'x'",
        ),
        (
            KNN,
            lambda c: c["config"].update(seed=-1),
            f"{REFUSED} seed must be >= 0, got -1",
        ),
        (
            KNN,
            lambda c: c["config"].update(thesaurus_format="xml"),
            f"{REFUSED} unknown thesaurus_format 'xml'; valid: tsv, ntriples",
        ),
        (
            MLP,
            lambda c: c["config"].update(mlp_hidden=8.0),
            f"{REFUSED} mlp_hidden must be an integer, got 8.0",
        ),
        (
            ("lr", "tf-idf"),
            lambda c: c["config"].update(epochs=2.5),
            f"{REFUSED} epochs must be an integer, got 2.5",
        ),
        (
            L2R,
            lambda c: c["config"].update(alpha=True),
            f"{REFUSED} alpha must be a number, got True",
        ),
        (L2R, lambda c: c["config"].update(alpha=1.0), f"{REFUSED} alpha must be < 1, got 1.0"),
        # unchecked, each failed inside load with a message naming no slot
        (STACKED, lambda c: c["classifier"]["model"].update(trees=[]), f"{NOT_TREES} list"),
        (STACKED, lambda c: c["classifier"]["model"].update(trees="x"), f"{NOT_TREES} str"),
        (STACKED, lambda c: c["classifier"]["model"].update(trees=None), f"{NOT_TREES} NoneType"),
        # unchecked, each failed with a message that named no block, or read a
        # string block as its characters
        (KNN, lambda c: Whole([]), f"{NOT_A_CONTAINER} list"),
        (KNN, lambda c: Whole(5), f"{NOT_A_CONTAINER} int"),
        (KNN, lambda c: Whole("x"), f"{NOT_A_CONTAINER} str"),
        (KNN, lambda c: c.update(config=5), "config must be a {field: value} map, got int"),
        (
            ("lr", "tf-idf"),
            lambda c: c["classifier"]["W"].pop("data"),
            f"{ARRAY_W_KEYS} ['dtype', 'shape']",
        ),
        (("lr", "tf-idf"), lambda c: c["classifier"].update(W=[1.0]), f"{ARRAY_W_KEYS} a list"),
        (
            KNN,
            lambda c: c["classifier"]["matrix"].pop("data"),
            "sparse matrix has keys ['data', 'indices', 'indptr', 'shape'], "
            "model holds ['indices', 'indptr', 'shape']",
        ),
        (KNN, lambda c: c.update(classifier="x"), f"{KNN_KEYS} a str"),
        (
            KNN,
            lambda c: c["classifier"]["labels"].pop("rows"),
            "training labels have keys ['label_ids', 'rows'], model holds ['label_ids']",
        ),
        (
            MLP,
            lambda c: c["classifier"].update(params=[]),
            "MLP parameters must be a {name: array} map, got list",
        ),
        # unchecked, each failed inside load with a message that named no block
        (
            KNN,
            lambda c: c["classifier"]["labels"].update(label_ids=5),
            "training label_ids must be a list of strings, got int",
        ),
        (
            KNN,
            lambda c: c["classifier"]["labels"].update(rows="x"),
            "training label rows must be a list of lists of integers",
        ),
        (
            ("lr", "tf-idf"),
            lambda c: c["classifier"]["W"].update(shape="x"),
            "array W shape must be a list of integers >= 0, got 'x'",
        ),
        (
            ("lr", "tf-idf"),
            lambda c: c["classifier"]["W"].update(dtype="zz"),
            "array W has dtype 'zz', which is not a numpy dtype",
        ),
        (KNN, lambda c: c["vectorizer"].update(vocab=5), "vocab must be a list of strings, got int"),
        (
            KNN,
            lambda c: c["classifier"]["labels"]["label_ids"].insert(0, 5),
            "training label_ids must be a list of strings, holds 5",
        ),
        (
            KNN,
            lambda c: c["vectorizer"]["vocab"].insert(0, None),
            "vocab must be a list of strings, holds None",
        ),
        (
            ("lr", "tf-idf"),
            lambda c: c["classifier"]["b"].update(shape=[6]),
            "array b data is malformed: cannot reshape array of size 5 into shape (6,)",
        ),
        # unchecked, each annotated with exit 0; on the noisy preset the first
        # three changed 85, 64 and 72 of 800 output lines, the empty row 2 and
        # the reversed row none
        (
            L2R,
            lambda c: repeat_first_indices(c["classifier"]["knn"]["labels"]),
            f"{BAD_ROW} 0 {MUST_INCREASE}",
        ),
        (
            L2R,
            lambda c: copy_first_id(c["classifier"]["knn"]["labels"]["label_ids"]),
            f"training {UNSORTED_IDS}",
        ),
        (
            ("lr", "tf-idf"),
            lambda c: copy_first_id(c["classifier"]["label_ids"]),
            UNSORTED_IDS,
        ),
        (
            L2R,
            lambda c: c["classifier"]["knn"]["labels"]["rows"][7].clear(),
            f"{BAD_ROW} 7 {MUST_INCREASE}",
        ),
        (
            L2R,
            lambda c: c["classifier"]["knn"]["labels"]["rows"][0].reverse(),
            f"{BAD_ROW} 0 {MUST_INCREASE}",
        ),
        (
            KNN,
            lambda c: swap_first_ids(c["classifier"]["labels"]["label_ids"]),
            f"training {UNSORTED_IDS}",
        ),
        (
            ("rocchio-dt", "tf-idf"),
            lambda c: swap_first_ids(c["classifier"]["base"]["label_ids"]),
            UNSORTED_IDS,
        ),
        (
            ("bayes-multinomial", "tf-idf"),
            lambda c: copy_first_id(c["classifier"]["label_ids"]),
            UNSORTED_IDS,
        ),
        (
            MLP,
            lambda c: swap_first_ids(c["classifier"]["label_ids"]),
            UNSORTED_IDS,
        ),
        # annotated with exit 0: the name was case-folded
        (
            CTF,
            lambda c: c["config"].update(vectorization="CTF-IDF"),
            f"{REFUSED} unknown vectorization 'CTF-IDF'; "
            "valid: tf-idf, bm25, cf-idf, bm25c, ctf-idf, bm25ct",
        ),
        # refused without the value it got
        (KNN, lambda c: c["config"].update(folds=1), f"{REFUSED} folds must be >= 2, got 1"),
        # array data is decoded from the JSON string itself, so anything else is
        # refused by name before decoding; a character outside ASCII is no base64
        (
            ("lr", "tf-idf"),
            lambda c: c["classifier"]["b"].update(data=5),
            "array b data must be a base64 string, got int",
        ),
        (
            ("lr", "tf-idf"),
            lambda c: c["classifier"]["b"].update(data=None),
            "array b data must be a base64 string, got NoneType",
        ),
        (
            ("lr", "tf-idf"),
            lambda c: c["classifier"]["b"].update(data="AAAAéAAA"),
            "array b data is malformed: string argument should contain only ASCII characters",
        ),
        (
            ("lr", "tf-idf"),
            lambda c: c["classifier"]["b"].update(data="AAAAAA"),
            "array b data is malformed: Incorrect padding",
        ),
        # loaded into a shorter dict, then refused in words that blamed the
        # idf array: array term idf of shape [124] where [123] is required
        (KNN, lambda c: copy_first_id(c["vectorizer"]["vocab"]), "vocab repeats 'siga'"),
        # the stored arrays no other row tampers with
        (
            ("bayes-multinomial", "tf-idf"),
            lambda c: cut(c["classifier"]["_const"], 1),
            "array _const of shape [1] where [5] is required",
        ),
        (
            MLP,
            lambda c: widen(c["classifier"]["params"]["W2"], 1),
            "array W2 of shape [5, 9] where [5, 8] is required",
        ),
        (
            MLP,
            lambda c: cut(c["classifier"]["params"]["b2"], 1),
            "array b2 of shape [1] where [5] is required",
        ),
    ],
    ids=[
        "extra-config-key",
        "missing-config-key",
        "format-version-1",
        "format-version-2",
        "extra-classifier-key",
        "missing-classifier-key",
        "ctf-idf-model-config-says-tf-idf",
        "lr-W-dtype-rewritten-i8",
        "format-version-3",
        "lr-b-cut-to-one-entry",
        "mlp-b1-cut-short",
        "mlp-W1-missing",
        "l2r-weights-three-entries",
        "format-version-4",
        "thesaurus-key-missing",
        "ctf-idf-thesaurus-null",
        "ctf-idf-concept-entry-empty",
        "ctf-idf-concept-label-tokenless",
        "tf-idf-model-carries-thesaurus",
        "knn-matrix-index-out-of-range",
        "knn-matrix-indptr-decreasing",
        "idf-block-holds-mean-doc-len",
        "bm25-block-without-mean-doc-len",
        "lemma-table-integer-lemma",
        "lemma-table-list",
        "lemma-table-not-fixed-point",
        "lr-W-extra-column",
        "term-idf-cut-by-one",
        "concept-idf-cut-by-one",
        "knn-matrix-declared-wider",
        "rocchio-centroids-declared-wider",
        "l2r-matrix-declared-wider",
        "bayes-coef-extra-columns",
        "mlp-W1-extra-column",
        "mlp-threshold-nan",
        "mlp-threshold-above-1",
        "stacking-threshold-nan",
        "stacking-leaf-value-5",
        "stacking-feature-7",
        "stacking-split-without-left",
        "l2r-alpha-infinity",
        "stacking-fallback-cutoff-string",
        "stacking-fallback-cutoff-negative",
        "stacking-fallback-cutoff-fraction",
        "stacking-fallback-cutoff-bool",
        "stacking-tree-for-unknown-label",
        "stacking-model-stores-top-m",
        "lr-b-all-nan",
        "mlp-W1-infinity",
        "l2r-bias-string-nan",
        "l2r-bias-infinity",
        "l2r-bias-bool",
        "l2r-bias-string-number",
        "bm25-mean-doc-len-negative",
        "bm25-mean-doc-len-nan",
        "bm25-mean-doc-len-string",
        "config-knn-k-fraction",
        "config-knn-k-bool",
        "config-folds-string",
        "config-mlp-activation-sigmoid",
        "config-mlp-threshold-string",
        "config-vectorization-number",
        "config-seed-string",
        "config-seed-negative",
        "config-thesaurus-format-xml",
        "config-mlp-hidden-float",
        "config-epochs-fraction",
        "config-alpha-bool",
        "config-alpha-1",
        "stacking-trees-list",
        "stacking-trees-string",
        "stacking-trees-null",
        "container-list",
        "container-number",
        "container-string",
        "config-number",
        "lr-W-without-data",
        "lr-W-list",
        "knn-matrix-without-data",
        "classifier-string",
        "knn-labels-without-rows",
        "mlp-params-list",
        "knn-label-ids-number",
        "knn-label-rows-string",
        "lr-W-shape-string",
        "lr-W-dtype-unknown",
        "vocab-number",
        "knn-label-ids-holding-number",
        "vocab-holding-null",
        "lr-b-shape-longer-than-data",
        "l2r-label-rows-first-index-repeated",
        "l2r-label-ids-first-repeated",
        "lr-label-ids-first-repeated",
        "l2r-label-row-empty",
        "l2r-label-row-reversed",
        "knn-label-ids-swapped",
        "rocchio-label-ids-swapped",
        "bayes-label-ids-first-repeated",
        "mlp-label-ids-swapped",
        "config-vectorization-upper-case",
        "config-folds-1",
        "lr-b-data-number",
        "lr-b-data-null",
        "lr-b-data-not-ascii",
        "lr-b-data-unpadded",
        "vocab-token-repeated",
        "bayes-const-cut-to-one-entry",
        "mlp-W2-extra-column",
        "mlp-b2-cut-to-one-entry",
    ],
)
def test_annotate_refuses_container_in_one_line(
    data_files, tmp_path, capsys, request, train, tamper, message
):
    corpus, thesaurus = data_files
    model = str(tmp_path / "model.json")
    clf, vec, *extra = train
    assert main(
        ["train", "--corpus", corpus, "--thesaurus", thesaurus,
         "--vec", vec, "--clf", clf, "--out", model, *extra]
    ) == 0
    container = json.loads(open(model).read())
    tampered = tamper(container)
    if isinstance(tampered, Whole):
        container = tampered.value
    open(model, "w").write(json.dumps(container))
    capsys.readouterr()
    argv = ["annotate", "--model", model, "--corpus", corpus, "--out", str(tmp_path / "x")]
    if request.node.get_closest_marker("subprocess"):
        code, err = annotate_in_subprocess(argv)
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 1
    assert err == f"annotation failed: {message}\n"


@pytest.mark.parametrize(
    "field, drop, note",
    [
        ("title", {1: None, 3: 5}, " (2 documents without a title skipped)"),
        ("fulltext", {2: None}, " (1 document without a fulltext skipped)"),
        ("title", {}, ""),
    ],
    ids=["title-two-skipped", "fulltext-one-skipped", "none-skipped"],
)
def test_annotate_counts_records_without_the_models_field(
    data_files, tmp_path, capsys, field, drop, note
):
    """A record without a string in the model's field gets no output line;
    stdout says how many there were, and is unchanged when there are none."""
    corpus, thesaurus = data_files
    model = str(tmp_path / "model.json")
    assert main(
        ["train", "--corpus", corpus, "--thesaurus", thesaurus, "--field", field,
         "--vec", "tf-idf", "--clf", "knn", "--out", model]
    ) == 0
    records = [json.loads(line) for line in open(corpus)][:5]
    for i, value in drop.items():
        if value is None:
            del records[i][field]
        else:
            records[i][field] = value
    inputs = tmp_path / "input.jsonl"
    inputs.write_text("".join(json.dumps(record) + "\n" for record in records))
    out = str(tmp_path / "annotated.jsonl")
    capsys.readouterr()
    assert main(["annotate", "--model", model, "--corpus", str(inputs), "--out", out]) == 0
    assert capsys.readouterr().out == f"annotations written to {out}{note}\n"
    kept = [record["id"] for i, record in enumerate(records) if i not in drop]
    assert [json.loads(line)["id"] for line in open(out)] == kept


def _knn_model(corpus: str, thesaurus: str, path) -> str:
    assert main(
        ["train", "--corpus", corpus, "--thesaurus", thesaurus,
         "--vec", "tf-idf", "--clf", "knn", "--out", str(path)]
    ) == 0
    return str(path)


def _annotation_input(corpus: str, path, n: int) -> list[str]:
    """Write `n` unlabeled records that cycle through the corpus's titles;
    returns their lines."""
    titles = [json.loads(line)["title"] for line in open(corpus)]
    lines = [json.dumps({"id": f"a{i}", "title": titles[i % len(titles)]}) for i in range(n)]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return lines


class _RecordingFile:
    """A text file that logs each write in a shared event list."""

    def __init__(self, fh, events: list):
        self.fh, self.events = fh, events

    def write(self, text: str) -> int:
        self.events.append("write")
        return self.fh.write(text)


def test_annotate_writes_each_block_before_reading_the_next(
    data_files, tmp_path, monkeypatch
):
    """annotate is a stream: a corpus reader that records how far it has
    read shows the first block's output lines written before the last input
    line is read, and no more than one block read ahead of what is written."""
    corpus, thesaurus = data_files
    model = _knn_model(corpus, thesaurus, tmp_path / "model.json")
    inputs = tmp_path / "input.jsonl"
    n = 2 * ROW_BLOCK + 17
    _annotation_input(corpus, inputs, n)

    events = []
    text_lines = corpus_module.text_lines

    def recording_lines(path, error):
        for lineno, line in text_lines(path, error):
            events.append("read")
            yield lineno, line

    replacing = corpus_module.replacing

    @contextlib.contextmanager
    def recording_out(path):
        with replacing(path) as fh:
            yield _RecordingFile(fh, events)

    monkeypatch.setattr(corpus_module, "text_lines", recording_lines)
    monkeypatch.setattr(cli, "replacing", recording_out)
    out = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--model", model, "--corpus", str(inputs), "--out", str(out)]) == 0

    assert events.count("read") == n and events.count("write") == n
    reads_before_write = [events[:at].count("read") for at, e in enumerate(events) if e == "write"]
    assert reads_before_write == [min(n, (k // ROW_BLOCK + 1) * ROW_BLOCK) for k in range(n)]
    assert reads_before_write[ROW_BLOCK - 1] < n
    assert [json.loads(line)["id"] for line in open(out)] == [f"a{i}" for i in range(n)]


# what replaces the last input line, and the error it gives
BAD_LAST_LINES = {
    "malformed-json": ('{"id": "a9", "title": ', "malformed JSON (Expecting value)"),
    "duplicate-id": ('{"id": "a0", "title": "rate"}', "duplicate doc_id 'a0'"),
    "missing-id": ('{"title": "rate"}', "missing or invalid 'id'"),
    "not-utf-8": ("caf\udcff", "not UTF-8 text"),
}


@pytest.mark.parametrize("existing", [False, True], ids=["no-out", "out-exists"])
@pytest.mark.parametrize("bad", BAD_LAST_LINES)
def test_annotate_failing_on_last_line_leaves_out_as_it_was(
    data_files, tmp_path, capsys, bad, existing
):
    """A corpus refused on its last line, after more than one block was
    written, exits 1 with the one line load_corpus's error gives, creates no
    --out and leaves an existing one byte-identical, with nothing left
    beside it."""
    corpus, thesaurus = data_files
    model = _knn_model(corpus, thesaurus, tmp_path / "model.json")
    inputs = tmp_path / "input.jsonl"
    lines = _annotation_input(corpus, inputs, ROW_BLOCK + 5)
    last, message = BAD_LAST_LINES[bad]
    lines[-1] = last
    inputs.write_bytes(
        "".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape")
    )
    with pytest.raises(CorpusFormatError) as loading:
        load_corpus(inputs, require_labels=False)
    assert str(loading.value) == f"{inputs}:{len(lines)}: {message}"

    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "annotated.jsonl"
    if existing:
        out.write_bytes(b"earlier output\n")
    capsys.readouterr()
    code = main(["annotate", "--model", model, "--corpus", str(inputs), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"annotation failed: {loading.value}\n"
    assert sorted(os.listdir(out_dir)) == (["annotated.jsonl"] if existing else [])
    if existing:
        assert out.read_bytes() == b"earlier output\n"


def test_annotate_replaces_out_through_a_symlink_and_writes_devices_in_place(
    data_files, tmp_path
):
    """The finished output replaces the file a symlinked --out names, and
    keeps the link; an --out that is no regular file is written in place."""
    corpus, thesaurus = data_files
    model = _knn_model(corpus, thesaurus, tmp_path / "model.json")
    direct = tmp_path / "direct.jsonl"
    assert main(["annotate", "--model", model, "--corpus", corpus, "--out", str(direct)]) == 0
    target = tmp_path / "target.jsonl"
    target.write_text("old\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    assert main(["annotate", "--model", model, "--corpus", corpus, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == direct.read_bytes()
    assert main(["annotate", "--model", model, "--corpus", corpus, "--out", os.devnull]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["model.json", "direct.jsonl", "target.jsonl", "link.jsonl"]
    )


@pytest.mark.parametrize("redirect", ["pipe", "truncate", "append"])
def test_annotate_to_dev_stdout_goes_where_stdout_goes(data_files, tmp_path, redirect):
    """`--out /dev/stdout` writes through the process's stdout: into a pipe,
    or into a file the shell opened with `>` or `>>`, the annotations
    followed by the closing message, an appended file keeping what it held."""
    corpus, thesaurus = data_files
    model = _knn_model(corpus, thesaurus, tmp_path / "model.json")
    direct = tmp_path / "direct.jsonl"
    assert main(["annotate", "--model", model, "--corpus", corpus, "--out", str(direct)]) == 0
    argv = ["annotate", "--model", model, "--corpus", corpus, "--out", "/dev/stdout"]
    earlier = b"earlier output\n" if redirect == "append" else b""
    if redirect == "pipe":
        done = cli_in_subprocess(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        written = done.stdout
    else:
        shell_out = tmp_path / "shell.out"
        shell_out.write_bytes(b"text the shell's > truncates\n" if redirect == "truncate" else earlier)
        with open(shell_out, "ab" if redirect == "append" else "wb") as fh:
            done = cli_in_subprocess(argv, stdout=fh, stderr=subprocess.PIPE)
        written = shell_out.read_bytes()
    assert (done.returncode, done.stderr) == (0, b"")
    assert written == earlier + direct.read_bytes() + b"annotations written to /dev/stdout\n"


def test_dev_stdout_follows_fd_1_when_sys_stdout_is_replaced(tmp_path):
    """`/dev/stdout` is classed by descriptor 1, not by `sys.stdout`: with
    `sys.stdout` redirected to a StringIO, the text goes there and the file
    the shell opened for fd 1 keeps what it held, not replaced by a rename."""
    script = (
        "import contextlib, io, sys\n"
        "from semannot.corpus import replacing\n"
        "with contextlib.redirect_stdout(io.StringIO()) as buffer:\n"
        "    with replacing('/dev/stdout') as fh:\n"
        "        fh.write('report\\n')\n"
        "sys.stderr.write(buffer.getvalue())\n"
    )
    shell_out = tmp_path / "shell.out"
    shell_out.write_bytes(b"earlier line\n")
    with open(shell_out, "ab") as fh:
        done = python_in_subprocess(["-c", script], stdout=fh, stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, b"report\n")
    assert shell_out.read_bytes() == b"earlier line\n"
    assert os.listdir(tmp_path) == ["shell.out"]


@pytest.mark.parametrize(
    "cut",
    [lambda raw: raw[:300], lambda raw: b"", lambda raw: raw.decode().encode("utf-16")],
    ids=["truncated", "empty", "not-utf-8"],
)
def test_annotate_refuses_model_that_is_not_json(data_files, tmp_path, capsys, cut):
    """Named as a model file, not left to read like an error in the corpus."""
    corpus, thesaurus = data_files
    model = tmp_path / "model.json"
    assert main(["train", "--corpus", corpus, "--thesaurus", thesaurus, "--out", str(model)]) == 0
    model.write_bytes(cut(model.read_bytes()))
    capsys.readouterr()
    argv = ["annotate", "--model", str(model), "--corpus", corpus, "--out", str(tmp_path / "x")]
    code, err = main(argv), capsys.readouterr().err
    assert code == 1
    assert err.startswith("annotation failed: model file is not JSON: ") and err.count("\n") == 1


def test_thesaurus_with_byte_order_mark_gives_plain_report(data_files, tmp_path):
    corpus, thesaurus = data_files
    marked = tmp_path / "marked.tsv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(thesaurus).read_bytes())
    reports = []
    for name, path in (("plain", thesaurus), ("marked", str(marked))):
        out_json, out_csv = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        assert main(eval_args(corpus, path, str(out_json), str(out_csv), vec="ctf-idf")) == 0
        report = json.loads(out_json.read_text())
        del report["config"]["thesaurus"]
        reports.append((report, out_csv.read_bytes()))
    assert reports[0] == reports[1]


def _drop_title(records):
    del records[0]["title"]


def _no_labels(records):
    records[1]["labels"] = []


def _one_unknown(records):
    records[2]["labels"].append("NOPE")


def _all_three(records):
    """The first has no title, the second only an unknown label, the third
    one unknown label beside its own."""
    _drop_title(records)
    records[1]["labels"] = ["NOPE"]
    records[2]["labels"].append("NOPE2")


@pytest.mark.parametrize("command", ["evaluate", "train", "stats"])
@pytest.mark.parametrize(
    "edit, line",
    [
        (_drop_title, "loaded 49 of 50 documents (1 without a title skipped)\n"),
        (_no_labels, "loaded 49 of 50 documents (1 with no thesaurus label skipped)\n"),
        (_one_unknown, "loaded 50 of 50 documents (1 unknown label removed)\n"),
        (
            _all_three,
            "loaded 48 of 50 documents (1 without a title, 1 with no thesaurus label skipped; "
            "2 unknown labels removed)\n",
        ),
        (lambda records: None, ""),
    ],
    ids=["no-title", "no-known-label", "unknown-label", "all-three", "none-dropped"],
)
def test_load_line_says_what_was_dropped(data_files, tmp_path, capsys, command, edit, line):
    """evaluate, train and stats print one line saying what loading dropped
    before their usual output, which is what they print for a corpus of only
    what was kept; with nothing dropped there is no such line."""
    corpus, thesaurus = data_files
    known = load_thesaurus(thesaurus).concepts
    records = [json.loads(line) for line in open(corpus)]
    edit(records)
    kept = []
    for record in records:
        labels = [label for label in record["labels"] if label in known]
        if "title" in record and labels:
            kept.append({**record, "labels": labels})
    outputs = []
    for name, chosen in (("edited", records), ("kept", kept)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in chosen))
        argv = [command, "--corpus", str(path), "--thesaurus", thesaurus]
        if command == "evaluate":
            reports = str(tmp_path / "r.json"), str(tmp_path / "r.csv")
            argv = eval_args(str(path), thesaurus, *reports)
        elif command == "train":
            argv += ["--out", str(tmp_path / "model.json")]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == line + outputs[1]


def test_annotate_ignores_labels(data_files, tmp_path, capsys):
    """annotate reads no labels, so a record whose labels field is not an
    array of strings is annotated like any other."""
    corpus, thesaurus = data_files
    model = str(tmp_path / "model.json")
    assert main(
        ["train", "--corpus", corpus, "--thesaurus", thesaurus,
         "--vec", "tf-idf", "--clf", "knn", "--out", model]
    ) == 0
    clean = json.loads(open(corpus).readline())
    inputs = tmp_path / "bad.jsonl"
    records = [{"id": "a", "title": "sigb kuba", "labels": "x"}, clean]
    inputs.write_text("".join(json.dumps(record) + "\n" for record in records))
    out = str(tmp_path / "annotated.jsonl")
    capsys.readouterr()
    assert main(["annotate", "--model", model, "--corpus", str(inputs), "--out", out]) == 0
    assert capsys.readouterr() == (f"annotations written to {out}\n", "")
    assert [json.loads(line)["id"] for line in open(out)] == ["a", clean["id"]]


def test_annotate_refuses_classifier_other_than_config_names(data_files, tmp_path, capsys):
    """A multinomial Naive Bayes model whose config says knn would annotate
    from weighted vectors instead of the raw counts it was trained on."""
    corpus, thesaurus = data_files
    model = str(tmp_path / "model.json")
    assert main(
        ["train", "--corpus", corpus, "--thesaurus", thesaurus,
         "--vec", "tf-idf", "--clf", "bayes-multinomial", "--out", model]
    ) == 0
    container = json.loads(open(model).read())
    container["config"]["classifier"] = "knn"
    open(model, "w").write(json.dumps(container))
    capsys.readouterr()
    code = main(["annotate", "--model", model, "--corpus", corpus, "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"annotation failed: {KNN_KEYS} ['_coef', '_const', 'label_ids']\n"
    )


@pytest.mark.parametrize("command", ["evaluate", "train"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--knn-k", "0"], "knn_k must be >= 1, got 0"),
        (["--epochs", "0", "--clf", "lr"], "epochs must be >= 1, got 0"),
        (["--l2r-k", "0", "--clf", "l2r"], "l2r_k must be >= 1, got 0"),
        (["--alpha", "0", "--clf", "lr"], "alpha must be > 0, got 0.0"),
        (["--alpha", "inf", "--clf", "lr"], "alpha must be finite, got inf"),
        (["--alpha", "1", "--clf", "lr"], "alpha must be < 1, got 1.0"),
        (["--alpha", "1.5", "--clf", "l2r"], "alpha must be < 1, got 1.5"),
        (["--mlp-hidden", "0", "--clf", "mlp"], "mlp_hidden must be >= 1, got 0"),
        (["--mlp-threshold", "nan", "--clf", "mlp"], "mlp_threshold must be in (0, 1), got nan"),
        (["--mlp-threshold", "1.5", "--clf", "mlp"], "mlp_threshold must be in (0, 1), got 1.5"),
        # used to exit 1 with numpy's "expected non-negative integer"
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=[
        "knn-k-0", "epochs-0", "l2r-k-0", "alpha-0", "alpha-inf", "alpha-1", "l2r-alpha-1.5",
        "mlp-hidden-0",
        "mlp-threshold-nan", "mlp-threshold-1.5", "seed-negative",
    ],
)
def test_out_of_range_learner_value_exits_2(data_files, tmp_path, capsys, command, flags, message):
    corpus, thesaurus = data_files
    outputs = (
        ["--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv")]
        if command == "evaluate"
        else ["--out", str(tmp_path / "model.json")]
    )
    code = main([command, "--corpus", corpus, "--thesaurus", thesaurus, *flags, *outputs])
    assert code == 2
    assert capsys.readouterr().err == f"invalid configuration: {message}\n"
    assert not list(tmp_path.iterdir())


def test_stats_prints_table(data_files, capsys):
    corpus, thesaurus = data_files
    assert main(["stats", "--corpus", corpus, "--thesaurus", thesaurus]) == 0
    assert capsys.readouterr().out == (
        "documents                 50\n"
        "concepts in thesaurus     5\n"
        "labels used               5\n"
        "labels per doc            2.24 (sd 0.79)\n"
        "-- titles --\n"
        "vocabulary size           124\n"
        "words per doc             13.20\n"
        "concepts per doc          2.24\n"
        "-- fulltext (50 docs) --\n"
        "vocabulary size           220\n"
        "words per doc             52.80\n"
        "concepts per doc          8.96\n"
    )


def _stats(capsys, corpus, thesaurus) -> tuple[int, str, str]:
    code = main(["stats", "--corpus", str(corpus), "--thesaurus", str(thesaurus)])
    return (code, *capsys.readouterr())


def test_stats_without_a_usable_document_exits_1(data_files, tmp_path, capsys):
    corpus, thesaurus = data_files
    records = [json.loads(line) for line in open(corpus)]
    for record in records:
        del record["title"]
    (tmp_path / "untitled.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert _stats(capsys, tmp_path / "untitled.jsonl", thesaurus) == (
        1,
        "loaded 0 of 50 documents (50 without a title skipped)\n",
        "stats failed: no usable documents\n",
    )


def test_stats_without_fulltext_prints_the_corpus_lines_and_titles_only(
    data_files, tmp_path, capsys
):
    corpus, thesaurus = data_files
    records = [json.loads(line) for line in open(corpus)]
    for record in records:
        del record["fulltext"]
    (tmp_path / "titles.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    code, table, _ = _stats(capsys, corpus, thesaurus)
    assert code == 0
    assert _stats(capsys, tmp_path / "titles.jsonl", thesaurus) == (
        0, table[:table.index("-- fulltext")], ""
    )


def test_stats_refuses_a_concept_without_a_token_before_printing(data_files, tmp_path, capsys):
    """The matcher is built before the first line, so a thesaurus it refuses
    prints no part of the table."""
    corpus, thesaurus = data_files
    rows = open(thesaurus).read().splitlines()
    concept_id = rows[0].split("\t")[0]
    rows[0] = f"{concept_id}\t-\t"
    (tmp_path / "dash.tsv").write_text("\n".join(rows) + "\n")
    assert _stats(capsys, corpus, tmp_path / "dash.tsv") == (
        1, "", f"stats failed: concept {concept_id!r} has no label with a token\n"
    )


def test_generate_round_trips_through_loaders(tmp_path):
    out_corpus = str(tmp_path / "gen.jsonl")
    out_thesaurus = str(tmp_path / "gen.tsv")
    code = main(
        [
            "generate",
            "--preset", "synonym",
            "--seed", "9",
            "--out-corpus", out_corpus,
            "--out-thesaurus", out_thesaurus,
        ]
    )
    assert code == 0
    thesaurus = load_thesaurus(out_thesaurus, "tsv")
    docs = load_corpus(out_corpus, "title", thesaurus=thesaurus).documents
    assert len(docs) == 12 * 40
    assert all(doc.gold_labels for doc in docs)


def test_generate_flag_overrides_preset(tmp_path, capsys):
    out_corpus = str(tmp_path / "gen.jsonl")
    out_thesaurus = str(tmp_path / "gen.tsv")
    code = main(
        [
            "generate",
            "--preset", "noisy",
            "--labels", "5",
            "--out-corpus", out_corpus,
            "--out-thesaurus", out_thesaurus,
        ]
    )
    assert code == 0
    # five labels of the preset's 40 documents each
    assert capsys.readouterr().out.startswith("wrote 200 documents to ")
    assert len(load_corpus(out_corpus, "title").documents) == 200
    assert len(load_thesaurus(out_thesaurus, "tsv")) == 5


def test_generate_with_two_labels_narrows_labels_per_doc(tmp_path):
    out_corpus = str(tmp_path / "gen.jsonl")
    out_thesaurus = str(tmp_path / "gen.tsv")
    code = main(
        [
            "generate",
            "--labels", "2",
            "--docs-per-label", "2",
            "--out-corpus", out_corpus,
            "--out-thesaurus", out_thesaurus,
        ]
    )
    assert code == 0
    docs = load_corpus(out_corpus, "title").documents
    assert len(docs) == 4
    assert all(1 <= len(doc.gold_labels) <= 2 for doc in docs)


@pytest.mark.parametrize(
    "flags, message",
    [
        # used to fail inside rng.choice, drawing more shared keywords than exist
        (["--overlap", "2"], "--overlap must be within [0, 1], got 2.0"),
        # used to fail with "negative dimensions are not allowed"
        (["--title-keywords", "-3"], "--title-keywords must be >= 0, got -3"),
        # used to report a labels_per_doc range no flag sets
        (["--labels", "0"], "--labels must be >= 1, got 0"),
        # used to behave as a rate of 0
        (["--synonym-rate", "-1"], "--synonym-rate must be within [0, 1], got -1.0"),
        # used to exit 1 naming the preset's labels_per_doc range, not the flag
        (
            ["--preset", "synonym", "--labels", "1"],
            "--labels must be >= 2 for labels_per_doc (1, 2), got 1",
        ),
        # used to exit 1 with numpy's "expected non-negative integer"
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
    ],
)
def test_generate_out_of_range_flag_exits_2(tmp_path, capsys, flags, message):
    out_corpus = tmp_path / "gen.jsonl"
    code = main(
        [
            "generate", "--labels", "3", "--docs-per-label", "2", *flags,
            "--out-corpus", str(out_corpus), "--out-thesaurus", str(tmp_path / "gen.tsv"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"invalid configuration: {message}\n"
    assert not out_corpus.exists()


def test_grid_classifiers_one_row_each(tmp_path):
    made = generate_corpus(n_labels=4, docs_per_label=8, seed=6)
    corpus = tmp_path / "c.jsonl"
    thesaurus = tmp_path / "t.tsv"
    dump_corpus_jsonl(made.documents, corpus)
    dump_thesaurus_tsv(made.thesaurus, thesaurus)
    out_csv = str(tmp_path / "clf_grid.csv")
    code = main(
        eval_args(
            str(corpus), str(thesaurus), str(tmp_path / "clf_grid.json"), out_csv,
            vec="ctf-idf", folds=3, epochs=2, mlp_hidden=8, l2r_k=5,
        )
        + ["--grid", "classifiers"]
    )
    assert code == 0
    lines = open(out_csv).read().splitlines()
    assert len(lines) == 12  # header + one row per classifier
    kinds = [line.split(",")[2] for line in lines[1:]]
    assert kinds == [
        "knn", "rocchio-dt", "bayes-bernoulli", "bayes-multinomial", "svm",
        "lr", "lr-dt", "l2r", "l2r-dt", "mlp", "mlp-dt",
    ]


def test_l2r_dt_with_one_neighbour_evaluates(tmp_path):
    """With k = 1 every candidate's neighbour count is 1, so that feature
    column copies the bias column, and only the small alpha keeps the
    ranker's Hessian from being singular."""
    made = generate_corpus(n_labels=4, docs_per_label=5, seed=0)
    corpus = tmp_path / "c.jsonl"
    thesaurus = tmp_path / "t.tsv"
    dump_corpus_jsonl(made.documents, corpus)
    dump_thesaurus_tsv(made.thesaurus, thesaurus)
    code = main(
        eval_args(
            str(corpus), str(thesaurus), str(tmp_path / "r.json"), str(tmp_path / "r.csv"),
            vec="ctf-idf", clf="l2r-dt", l2r_k=1,
        )
    )
    assert code == 0


def test_ntriples_thesaurus_via_cli(tmp_path, capsys):
    made = generate_corpus(n_labels=3, docs_per_label=6, seed=2)
    corpus = tmp_path / "c.jsonl"
    dump_corpus_jsonl(made.documents, corpus)
    nt = tmp_path / "t.nt"
    with open(nt, "w") as fh:
        for cid, concept in made.thesaurus.concepts.items():
            fh.write(
                f'<{cid}> <http://www.w3.org/2004/02/skos/core#prefLabel> '
                f'"{concept.pref_label}"@en .\n'
            )
    code = main(
        [
            "evaluate",
            "--corpus", str(corpus),
            "--thesaurus", str(nt),
            "--thesaurus-format", "ntriples",
            "--vec", "cf-idf",
            "--clf", "knn",
            "--folds", "3",
            "--out-json", str(tmp_path / "r.json"),
            "--out-csv", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 0
    assert "mean sample F1" in capsys.readouterr().out


def test_missing_corpus_file_exits_1(tmp_path, capsys):
    code = main(
        [
            "evaluate",
            "--corpus", str(tmp_path / "nope.jsonl"),
            "--thesaurus", str(tmp_path / "nope.tsv"),
        ]
    )
    assert code == 1
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_evaluate_refuses_jobs_below_one_before_reading_input(tmp_path, capsys, jobs):
    """The corpus does not exist: reading it would exit 1, not 2."""
    code = main(
        [
            "evaluate",
            "--corpus", str(tmp_path / "nope.jsonl"),
            "--thesaurus", str(tmp_path / "nope.tsv"),
            "--jobs", jobs,
            "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"invalid configuration: --jobs must be >= 1, got {jobs}\n"
    assert not list(tmp_path.iterdir())


def test_unwritable_report_path_exits_1(data_files, tmp_path, capsys):
    corpus, thesaurus = data_files
    out_json = str(tmp_path / "missing_dir" / "report.json")
    out_csv = str(tmp_path / "report.csv")
    code = main(eval_args(corpus, thesaurus, out_json, out_csv, folds=2))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("evaluation failed: ")


@pytest.mark.parametrize(
    "command, existing, unwritable",
    [
        ("evaluate", ["r.json"], "r.csv"),
        ("evaluate", ["r.csv"], "r.json"),
        ("train", ["model.json"], "v.jsonl"),
        ("annotate", [], None),
        ("generate", ["t.tsv"], "c.jsonl"),
        ("train", ["v.jsonl"], "model.json"),
        ("generate", ["c.jsonl"], "t.tsv"),
    ],
    ids=[
        "evaluate-csv", "evaluate-json", "train-dump", "annotate-last-line", "generate-corpus",
        "train-model", "generate-thesaurus",
    ],
)
def test_failed_run_leaves_outputs_as_they_were(
    data_files, tmp_path, capsys, command, existing, unwritable
):
    """A run that fails, with one output in a missing directory (annotate:
    on its corpus's last line, more than one block in), exits 1 in one
    stderr line and writes no output: the outputs that existed stay
    byte-identical, none is created and no partial file is left."""
    corpus, thesaurus = data_files
    out = tmp_path / "out"
    out.mkdir()
    for name in existing:
        (out / name).write_bytes(b"earlier output\n")

    def path(name):
        return str(out / "missing" / name if name == unwritable else out / name)

    if unwritable:
        message = f"[Errno 2] No such file or directory: {path(unwritable)!r}"
    if command == "evaluate":
        argv = eval_args(corpus, thesaurus, path("r.json"), path("r.csv"), folds=2)
    elif command == "train":
        argv = ["train", "--corpus", corpus, "--thesaurus", thesaurus,
                "--out", path("model.json"), "--dump-vectors", path("v.jsonl")]
    elif command == "annotate":
        inputs = tmp_path / "input.jsonl"
        lines = _annotation_input(corpus, inputs, ROW_BLOCK + 5)
        with open(inputs, "a") as fh:
            fh.write('{"id": "late", "title": \n')
        message = f"{inputs}:{len(lines) + 1}: malformed JSON (Expecting value)"
        model = _knn_model(corpus, thesaurus, tmp_path / "model.json")
        argv = ["annotate", "--model", model, "--corpus", str(inputs), "--out", path("a.jsonl")]
    else:
        argv = ["generate", "--labels", "2", "--docs-per-label", "2",
                "--out-corpus", path("c.jsonl"), "--out-thesaurus", path("t.tsv")]
    capsys.readouterr()
    assert main(argv) == 1
    failure = {"evaluate": "evaluation", "train": "training", "annotate": "annotation",
               "generate": "generation"}[command]
    assert capsys.readouterr().err == f"{failure} failed: {message}\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(existing)
    for name in existing:
        assert (out / name).read_bytes() == b"earlier output\n"


@pytest.mark.parametrize(
    "command, writer",
    [
        ("generate", "dump_thesaurus_tsv"),
        ("generate", "dump_corpus_jsonl"),
        ("train", "dump_vectors"),
        ("train", "save_pipeline"),
    ],
)
def test_writer_failure_leaves_both_outputs_as_they_were(
    data_files, tmp_path, monkeypatch, capsys, command, writer
):
    """A run whose writer fails (here: on a full disk) exits 1 in one stderr
    line, and both outputs keep what they held: the file held open is
    filled before the other one is committed."""
    corpus, thesaurus = data_files
    names = {"generate": ("c.jsonl", "t.tsv"), "train": ("model.json", "v.jsonl")}[command]
    for name in names:
        (tmp_path / name).write_bytes(b"earlier output\n")

    def full_disk(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, writer, full_disk)
    first, second = (str(tmp_path / name) for name in names)
    if command == "generate":
        argv = ["generate", "--labels", "2", "--docs-per-label", "2",
                "--out-corpus", first, "--out-thesaurus", second]
    else:
        argv = ["train", "--corpus", corpus, "--thesaurus", thesaurus,
                "--out", first, "--dump-vectors", second]
    capsys.readouterr()
    assert main(argv) == 1
    failure = {"generate": "generation", "train": "training"}[command]
    assert capsys.readouterr().err == f"{failure} failed: [Errno 28] No space left on device\n"
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == b"earlier output\n"


def test_train_refuses_one_path_for_model_and_dump(tmp_path, capsys):
    """The dump is committed after the model, so it would replace it; the
    run is refused before reading input (which does not exist: reading it
    would exit 1) and writes nothing."""
    out = tmp_path / "out"
    out.mkdir()
    argv = ["train", "--corpus", str(tmp_path / "nope.jsonl"),
            "--thesaurus", str(tmp_path / "nope.tsv"),
            "--out", str(out / "m.json"), "--dump-vectors", str(out / "." / "m.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "invalid configuration: --dump-vectors and --out name one file\n"
    )
    assert not list(out.iterdir())


ONE_FILE_ARGS = {
    "evaluate": lambda first, second: [
        "evaluate", "--corpus", "nope.jsonl", "--thesaurus", "nope.tsv",
        "--out-json", first, "--out-csv", second,
    ],
    "generate": lambda first, second: [
        "generate", "--labels", "2", "--docs-per-label", "2",
        "--out-corpus", first, "--out-thesaurus", second,
    ],
    "train": lambda first, second: [
        "train", "--corpus", "nope.jsonl", "--thesaurus", "nope.tsv",
        "--dump-vectors", first, "--out", second,
    ],
}


@pytest.mark.parametrize(
    "command, flags",
    [("evaluate", "--out-json and --out-csv"), ("generate", "--out-corpus and --out-thesaurus")],
    ids=["evaluate", "generate"],
)
@pytest.mark.parametrize("second", ["./r", "link"], ids=["dot-path", "symlink"])
def test_two_outputs_naming_one_file_are_refused_before_reading_input(
    tmp_path, capsys, monkeypatch, command, flags, second
):
    """The output committed last would replace the other, so the run is
    refused before reading input (which does not exist: reading it would
    exit 1), through another spelling of the path or a symlink to it, and
    writes nothing."""
    monkeypatch.chdir(tmp_path)
    os.symlink("r", "link")
    assert main(ONE_FILE_ARGS[command]("r", second)) == 2
    assert capsys.readouterr().err == f"invalid configuration: {flags} name one file\n"
    assert sorted(os.listdir()) == ["link"]


@pytest.mark.parametrize("command", ["evaluate", "generate", "train"])
def test_two_outputs_to_dev_null_are_written_in_place(data_files, capsys, command):
    """/dev/null is written in place, not replaced by a rename, so it takes
    both outputs and the run succeeds."""
    argv = ONE_FILE_ARGS[command]("/dev/null", "/dev/null")
    if command != "generate":
        corpus, thesaurus = data_files
        argv[argv.index("nope.jsonl")] = corpus
        argv[argv.index("nope.tsv")] = thesaurus
    assert main(argv + (["--folds", "2"] if command == "evaluate" else [])) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, failure",
    [
        ("evaluate", "evaluation"),
        ("train", "training"),
        ("annotate", "annotation"),
        ("stats", "stats"),
        ("generate", "generation"),
    ],
)
def test_failing_command_exits_1_in_one_line(data_files, tmp_path, capsys, command, failure):
    """Every command reports a runtime failure the same way: exit 1 and one
    stderr line prefixed with the command's own failure noun."""
    corpus, thesaurus = data_files
    missing = str(tmp_path / "missing.jsonl")
    unwritable = str(tmp_path / "no-dir" / "out")
    flags = {
        "evaluate": ["--corpus", missing, "--thesaurus", thesaurus],
        "train": ["--corpus", missing, "--thesaurus", thesaurus, "--out", unwritable],
        "annotate": ["--model", missing, "--corpus", corpus, "--out", unwritable],
        "stats": ["--corpus", missing, "--thesaurus", thesaurus],
        "generate": [
            "--labels", "2", "--docs-per-label", "2",
            "--out-corpus", str(tmp_path / "no-dir" / "c.jsonl"), "--out-thesaurus", unwritable,
        ],
    }[command]
    code = main([command, *flags])
    assert code == 1
    path = unwritable if command == "generate" else missing
    assert capsys.readouterr().err == (
        f"{failure} failed: [Errno 2] No such file or directory: {path!r}\n"
    )
