import json

import pytest

from semannot.cli import main
from semannot.corpus import dump_corpus_jsonl, dump_thesaurus_tsv, load_corpus, load_thesaurus
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
    # vector dump is valid JSONL aligned with the corpus
    dump = [json.loads(line) for line in open(tmp_path / "vectors.jsonl")]
    assert len(dump) == len(gold)


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


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda c: c["config"].update(jobs=1), "unknown config key 'jobs'"),
        (lambda c: c["config"].pop("classifier"), "missing config key 'classifier'"),
        (lambda c: c.update(format_version=1), "unsupported model format version 1"),
    ],
    ids=["extra-config-key", "missing-config-key", "format-version-1"],
)
def test_annotate_refuses_container_in_one_line(data_files, tmp_path, capsys, tamper, message):
    corpus, thesaurus = data_files
    model = str(tmp_path / "model.json")
    assert main(
        ["train", "--corpus", corpus, "--thesaurus", thesaurus,
         "--vec", "tf-idf", "--clf", "knn", "--out", model]
    ) == 0
    container = json.loads(open(model).read())
    tamper(container)
    open(model, "w").write(json.dumps(container))
    capsys.readouterr()
    code = main(["annotate", "--model", model, "--corpus", corpus, "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == f"annotation failed: {message}\n"


def test_stats_prints_table(data_files, capsys):
    corpus, thesaurus = data_files
    assert main(["stats", "--corpus", corpus, "--thesaurus", thesaurus]) == 0
    out = capsys.readouterr().out
    assert "documents                 50" in out
    assert "concepts in thesaurus     5" in out
    assert "-- fulltext" in out


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


def test_unwritable_report_path_exits_1(data_files, tmp_path, capsys):
    corpus, thesaurus = data_files
    out_json = str(tmp_path / "missing_dir" / "report.json")
    out_csv = str(tmp_path / "report.csv")
    code = main(eval_args(corpus, thesaurus, out_json, out_csv, folds=2))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("evaluation failed: ")
