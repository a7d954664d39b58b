"""Command-line front end: evaluate pipeline configurations, train and
apply annotation models, inspect corpora, generate synthetic data.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import synthetic
from .corpus import (
    dump_corpus_jsonl,
    dump_thesaurus_tsv,
    corpus_stats,
    load_corpus,
    load_thesaurus,
)
from .evaluate import CSV_HEADER, csv_line, evaluate_run
from .features import VARIANTS, ConceptMatcher, count_corpus, dump_vectors
from .pipeline import CLASSIFIERS, FIELDS, RunConfig, count_documents, fit_pipeline
from .preprocess import LemmaTable, preprocess
from .serialize import load_pipeline, save_pipeline
from .sparse import ROW_BLOCK


def _config_flags() -> argparse.ArgumentParser:
    """Flags that set RunConfig fields, each stored under its field's name.
    They have no defaults of their own: a flag left out keeps the field's
    RunConfig default."""
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    p.add_argument("--corpus", required=True, help="JSON-lines corpus path")
    p.add_argument("--thesaurus", required=True, help="thesaurus path")
    p.add_argument("--thesaurus-format", choices=("tsv", "ntriples"))
    p.add_argument("--field", choices=FIELDS)
    p.add_argument("--vec", dest="vectorization", choices=VARIANTS, help="vectorization variant")
    p.add_argument("--clf", dest="classifier", choices=CLASSIFIERS, help="classifier")
    p.add_argument("--seed", type=int)
    p.add_argument("--lemma-table", help="optional surface<TAB>lemma file")
    p.add_argument("--knn-k", type=int)
    p.add_argument("--l2r-k", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mlp-hidden", type=int)
    p.add_argument("--mlp-threshold", type=float)
    p.add_argument("--mlp-activation", choices=("relu", "tanh"))
    return p


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _config_from_args(args) -> RunConfig:
    return RunConfig(**{name: val for name, val in vars(args).items() if name in _CONFIG_FIELDS})


def _load_inputs(config: RunConfig):
    thesaurus = load_thesaurus(config.thesaurus, config.thesaurus_format)
    loaded = load_corpus(config.corpus, config.field, thesaurus=thesaurus)
    lemma_table = LemmaTable.load(config.lemma_table) if config.lemma_table else None
    return loaded.documents, thesaurus, lemma_table


def cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    try:
        config.validate()
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        docs, thesaurus, lemma_table = _load_inputs(config)
        if args.grid == "vectorizations":
            configs = [dataclasses.replace(config, vectorization=v) for v in VARIANTS]
        elif args.grid == "classifiers":
            configs = [dataclasses.replace(config, classifier=c) for c in CLASSIFIERS]
        else:
            configs = [config]
        counts = count_documents(configs, docs, thesaurus, lemma_table)
        reports = []
        for cfg in configs:
            report = evaluate_run(cfg, docs, thesaurus, lemma_table, counts=counts, jobs=args.jobs)
            reports.append(report)
            print(
                f"{cfg.field} {cfg.vectorization} {cfg.classifier} "
                f"mean sample F1: {report.mean_f1:.4f}"
            )
        payload = (
            reports[0].to_dict()
            if len(reports) == 1
            else {"reports": [r.to_dict() for r in reports]}
        )
        with open(args.out_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for report in reports:
                fh.write(csv_line(report) + "\n")
    except Exception as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args)
    try:
        config.validate()
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        docs, thesaurus, lemma_table = _load_inputs(config)
        pipeline = fit_pipeline(config, docs, thesaurus, lemma_table)
        save_pipeline(pipeline, args.out)
        if args.dump_vectors:
            seqs = [preprocess(doc.text(config.field), lemma_table) for doc in docs]
            X = pipeline.vectorize(pipeline.count(seqs))
            dump_vectors(args.dump_vectors, [d.doc_id for d in docs], X)
    except Exception as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 1
    print(f"model written to {args.out}")
    return 0


def cmd_annotate(args) -> int:
    try:
        pipeline = load_pipeline(args.model)
        field = pipeline.config.field
        docs = load_corpus(args.corpus, field, require_labels=False).documents
        with open(args.out, "w", encoding="utf-8") as fh:
            for start in range(0, len(docs), ROW_BLOCK):
                block = docs[start:start + ROW_BLOCK]
                counts = pipeline.count(
                    [preprocess(doc.text(field), pipeline.lemma_table) for doc in block]
                )
                predictions = [p for _, rows in pipeline.predict_blocks(counts) for p in rows]
                for doc, predicted in zip(block, predictions):
                    fh.write(json.dumps({"id": doc.doc_id, "labels": sorted(predicted)}) + "\n")
    except Exception as exc:
        print(f"annotation failed: {exc}", file=sys.stderr)
        return 1
    print(f"annotations written to {args.out}")
    return 0


def _row_sums(counts) -> list[int]:
    """Per-document totals of a count matrix (whole numbers)."""
    return [int(total) for total in counts.sum(axis=1).A1]


def cmd_stats(args) -> int:
    try:
        thesaurus = load_thesaurus(args.thesaurus, args.thesaurus_format)
        loaded = load_corpus(args.corpus, "title", thesaurus=thesaurus)
        docs = loaded.documents
        if not docs:
            raise ValueError("no usable documents")
        lemma_table = LemmaTable.load(args.lemma_table) if args.lemma_table else None
        matcher = ConceptMatcher(thesaurus, lemma_table)

        title = count_corpus([preprocess(doc.title, lemma_table) for doc in docs], matcher)
        title_vocab = title.term_counts.shape[1]
        stats = corpus_stats(
            docs,
            thesaurus,
            _row_sums(title.term_counts),
            _row_sums(title.concept_counts),
            vocabulary_size_title=title_vocab,
        )
        print(f"documents                 {stats.n_docs}")
        print(f"concepts in thesaurus     {stats.n_concepts_in_thesaurus}")
        print(f"labels used               {stats.n_labels_used}")
        print(
            f"labels per doc            {stats.mean_labels_per_doc:.2f} "
            f"(sd {stats.sd_labels_per_doc:.2f})"
        )
        print("-- titles --")
        print(f"vocabulary size           {title_vocab}")
        print(f"words per doc             {stats.mean_words_per_doc:.2f}")
        print(f"concepts per doc          {stats.mean_concepts_per_doc:.2f}")

        with_ft = [doc for doc in docs if doc.fulltext is not None]
        if with_ft:
            ft = count_corpus([preprocess(doc.fulltext, lemma_table) for doc in with_ft], matcher)
            ft_vocab = ft.term_counts.shape[1]
            ft_stats = corpus_stats(
                with_ft,
                thesaurus,
                _row_sums(ft.term_counts),
                _row_sums(ft.concept_counts),
                vocabulary_size_fulltext=ft_vocab,
            )
            print(f"-- fulltext ({len(with_ft)} docs) --")
            print(f"vocabulary size           {ft_vocab}")
            print(f"words per doc             {ft_stats.mean_words_per_doc:.2f}")
            print(f"concepts per doc          {ft_stats.mean_concepts_per_doc:.2f}")
    except Exception as exc:
        print(f"stats failed: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_generate(args) -> int:
    try:
        if args.preset:
            made = getattr(synthetic, f"{args.preset}_corpus")(seed=args.seed)
        else:
            made = synthetic.generate_corpus(
                n_labels=args.labels,
                docs_per_label=args.docs_per_label,
                keywords_per_label=args.keywords_per_label,
                keyword_overlap=args.overlap,
                synonyms_per_concept=args.synonyms,
                synonym_rate=args.synonym_rate,
                title_keywords=args.title_keywords,
                noise_words=args.noise_words,
                seed=args.seed,
            )
        dump_corpus_jsonl(made.documents, args.out_corpus)
        dump_thesaurus_tsv(made.thesaurus, args.out_thesaurus)
    except Exception as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {len(made.documents)} documents to {args.out_corpus} and "
        f"{len(made.thesaurus)} concepts to {args.out_thesaurus}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semannot",
        description="Multi-label semantic annotation against a controlled vocabulary",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_flags = _config_flags()

    p_eval = sub.add_parser(
        "evaluate", parents=[config_flags], help="cross-validated evaluation of one configuration"
    )
    p_eval.add_argument("--folds", type=int, default=argparse.SUPPRESS)
    p_eval.add_argument("--jobs", type=int, default=1, help="parallel fold workers")
    p_eval.add_argument("--grid", choices=("vectorizations", "classifiers"), default=None)
    p_eval.add_argument("--out-json", default="eval_report.json")
    p_eval.add_argument("--out-csv", default="eval_report.csv")
    p_eval.set_defaults(func=cmd_evaluate)

    p_train = sub.add_parser(
        "train", parents=[config_flags], help="fit a pipeline on a full corpus and save it"
    )
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.add_argument("--dump-vectors", default=None, help="debug JSONL of training vectors")
    p_train.set_defaults(func=cmd_train)

    p_ann = sub.add_parser("annotate", help="apply a trained model to an unlabeled corpus")
    p_ann.add_argument("--model", required=True)
    p_ann.add_argument("--corpus", required=True)
    p_ann.add_argument("--out", required=True, help="JSONL of (id, labels) to write")
    p_ann.set_defaults(func=cmd_annotate)

    p_stats = sub.add_parser("stats", help="corpus statistics table")
    p_stats.add_argument("--corpus", required=True)
    p_stats.add_argument("--thesaurus", required=True)
    p_stats.add_argument("--thesaurus-format", choices=("tsv", "ntriples"), default="tsv")
    p_stats.add_argument("--lemma-table", default=None)
    p_stats.set_defaults(func=cmd_stats)

    p_gen = sub.add_parser("generate", help="write a synthetic corpus and thesaurus")
    p_gen.add_argument("--out-corpus", required=True)
    p_gen.add_argument("--out-thesaurus", required=True)
    p_gen.add_argument("--preset", choices=("separable", "noisy", "synonym"), default=None)
    p_gen.add_argument("--labels", type=int, default=20)
    p_gen.add_argument("--docs-per-label", type=int, default=50)
    p_gen.add_argument("--keywords-per-label", type=int, default=8)
    p_gen.add_argument("--overlap", type=float, default=0.0)
    p_gen.add_argument("--synonyms", type=int, default=0)
    p_gen.add_argument("--synonym-rate", type=float, default=0.0)
    p_gen.add_argument("--title-keywords", type=int, default=4)
    p_gen.add_argument("--noise-words", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
