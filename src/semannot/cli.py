"""Command-line front end: evaluate pipeline configurations, train and
apply annotation models, inspect corpora, generate synthetic data.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from . import synthetic
from .corpus import (
    FIELDS, THESAURUS_FORMATS, CorpusLoadResult, dump_corpus_jsonl, dump_thesaurus_tsv,
    load_corpus, load_thesaurus, mean_sd, read_corpus, replacing, write_mode,
)
from .evaluate import CSV_HEADER, GRIDS, csv_line, evaluate_grid
from .features import VARIANTS, ConceptMatcher, dump_vectors
from .learners.mlp import ACTIVATIONS
from .pipeline import CLASSIFIERS, ConfigError, RunConfig, count_documents, fit_pipeline
from .preprocess import LemmaTable
from .serialize import load_pipeline, save_pipeline


def _config_flags(inputs_only: bool = False) -> argparse.ArgumentParser:
    """Flags that set RunConfig fields, each stored under its field's name;
    with `inputs_only`, just the four that name a run's input files.  They
    have no defaults of their own: a flag left out keeps the field's
    RunConfig default."""
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    add_input = p.add_argument
    add_setting = (lambda *args, **kwargs: None) if inputs_only else p.add_argument
    add_input("--corpus", required=True, help="JSON-lines corpus path")
    add_input("--thesaurus", required=True, help="thesaurus path")
    add_input("--thesaurus-format", choices=THESAURUS_FORMATS)
    add_setting("--field", choices=FIELDS)
    add_setting("--vec", dest="vectorization", choices=VARIANTS, help="vectorization variant")
    add_setting("--clf", dest="classifier", choices=CLASSIFIERS, help="classifier")
    add_setting("--seed", type=int)
    add_input("--lemma-table", help="optional surface<TAB>lemma file")
    add_setting("--knn-k", type=int)
    add_setting("--l2r-k", type=int)
    add_setting("--epochs", type=int)
    add_setting("--alpha", type=float)
    add_setting("--mlp-hidden", type=int)
    add_setting("--mlp-threshold", type=float)
    add_setting("--mlp-activation", choices=tuple(ACTIVATIONS))
    return p


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _config_from_args(args) -> RunConfig:
    """The RunConfig the flags set; ConfigError if validate refuses it."""
    config = RunConfig(**{name: val for name, val in vars(args).items() if name in _CONFIG_FIELDS})
    config.validate()
    return config


def _load_inputs(config: RunConfig):
    """The run's documents, thesaurus and lemma table; says on stdout what
    loading the corpus dropped, if anything."""
    thesaurus = load_thesaurus(config.thesaurus, config.thesaurus_format)
    loaded = load_corpus(config.corpus, config.field, thesaurus=thesaurus)
    skipped = [
        f"{n} {what}"
        for n, what in (
            (loaded.n_missing_field, f"without a {config.field}"),
            (loaded.n_empty_labels, "with no thesaurus label"),
        )
        if n
    ]
    notes = [", ".join(skipped) + " skipped"] if skipped else []
    if loaded.n_unknown_labels:
        plural = "" if loaded.n_unknown_labels == 1 else "s"
        notes.append(f"{loaded.n_unknown_labels} unknown label{plural} removed")
    if notes:
        kept = len(loaded.documents)
        total = kept + loaded.n_missing_field + loaded.n_empty_labels
        print(f"loaded {kept} of {total} documents ({'; '.join(notes)})")
    lemma_table = LemmaTable.load(config.lemma_table) if config.lemma_table else None
    return loaded.documents, thesaurus, lemma_table


def _refuse_one_file(first: tuple[str, str | None], second: tuple[str, str]) -> None:
    """Refuse two outputs, each a (flag, path) pair, that name one file
    `replacing` replaces by a rename: the one committed last would replace
    the other.  A file written in place (stdout's, a device) takes both."""
    (flag, path), (other_flag, other) = first, second
    if path and write_mode(path) == "rename" and os.path.realpath(path) == os.path.realpath(other):
        raise ConfigError(f"{flag} and {other_flag} name one file")


def cmd_evaluate(args) -> None:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    _refuse_one_file(("--out-json", args.out_json), ("--out-csv", args.out_csv))
    config = _config_from_args(args)
    docs, thesaurus, lemma_table = _load_inputs(config)
    configs = [config]
    if args.grid:
        name, values = GRIDS[args.grid]
        configs = [dataclasses.replace(config, **{name: value}) for value in values]
    reports = []
    for report in evaluate_grid(configs, docs, thesaurus, lemma_table, args.jobs):
        reports.append(report)
        cfg = report.config
        print(
            f"{cfg['field']} {cfg['vectorization']} {cfg['classifier']} "
            f"mean sample F1: {report.mean_f1:.4f}"
        )
    payload = (
        dataclasses.asdict(reports[0])
        if len(reports) == 1
        else {"reports": [dataclasses.asdict(r) for r in reports]}
    )
    # both reports appear or neither does
    with replacing(args.out_csv) as csv_fh, replacing(args.out_json) as json_fh:
        json.dump(payload, json_fh, indent=2)
        json_fh.write("\n")
        csv_fh.write(CSV_HEADER + "\n")
        for report in reports:
            csv_fh.write(csv_line(report) + "\n")


def cmd_train(args) -> None:
    _refuse_one_file(("--dump-vectors", args.dump_vectors), ("--out", args.out))
    config = _config_from_args(args)
    docs, thesaurus, lemma_table = _load_inputs(config)
    pipeline, X = fit_pipeline(config, docs, thesaurus, lemma_table)
    # both files appear or neither does: the dump is held open while the model is written
    with replacing(args.dump_vectors) if args.dump_vectors else contextlib.nullcontext() as dump:
        if dump:
            dump_vectors(dump, [d.doc_id for d in docs], X)
        save_pipeline(pipeline, args.out)
    print(f"model written to {args.out}")


def cmd_annotate(args) -> None:
    pipeline = load_pipeline(args.model)
    field = pipeline.config.field
    dropped = CorpusLoadResult()
    docs = read_corpus(args.corpus, field, require_labels=False, result=dropped)
    with replacing(args.out) as fh:
        for doc, predicted in pipeline.annotate(docs):
            fh.write(json.dumps({"id": doc.doc_id, "labels": sorted(predicted)}) + "\n")
    skipped = dropped.n_missing_field
    plural = "" if skipped == 1 else "s"
    note = f" ({skipped} document{plural} without a {field} skipped)" if skipped else ""
    print(f"annotations written to {args.out}{note}")


def cmd_stats(args) -> None:
    # loaded by title, the default field
    docs, thesaurus, lemma_table = _load_inputs(_config_from_args(args))
    if not docs:
        raise ValueError("no usable documents")
    # built before the first line, so a thesaurus it refuses prints no table
    matcher = ConceptMatcher(thesaurus, lemma_table)
    mean, sd = mean_sd([len(doc.gold_labels) for doc in docs])
    print(f"documents                 {len(docs)}")
    print(f"concepts in thesaurus     {len(thesaurus)}")
    print(f"labels used               {len(set().union(*(doc.gold_labels for doc in docs)))}")
    print(f"labels per doc            {mean:.2f} (sd {sd:.2f})")
    with_ft = [doc for doc in docs if doc.fulltext is not None]
    for field, field_docs in (("title", docs), ("fulltext", with_ft)):
        if not field_docs:
            continue
        counts = count_documents(field_docs, field, lemma_table, matcher)
        print("-- titles --" if field == "title" else f"-- fulltext ({len(field_docs)} docs) --")
        print(f"vocabulary size           {counts.term_counts.shape[1]}")
        print(f"words per doc             {counts.term_counts.sum() / len(field_docs):.2f}")
        print(f"concepts per doc          {counts.concept_counts.sum() / len(field_docs):.2f}")


# each generate_corpus parameter that a generate flag sets: the flag, its type
_GENERATOR_FLAGS = {
    "n_labels": ("--labels", int),
    "docs_per_label": ("--docs-per-label", int),
    "keywords_per_label": ("--keywords-per-label", int),
    "keyword_overlap": ("--overlap", float),
    "synonyms_per_concept": ("--synonyms", int),
    "synonym_rate": ("--synonym-rate", float),
    "title_keywords": ("--title-keywords", int),
    "noise_words": ("--noise-words", int),
    "seed": ("--seed", int),
}


def cmd_generate(args) -> None:
    _refuse_one_file(("--out-corpus", args.out_corpus), ("--out-thesaurus", args.out_thesaurus))
    flags = {name: val for name, val in vars(args).items() if name in _GENERATOR_FLAGS}
    try:
        made = synthetic.generate_corpus(**{**synthetic.PRESETS.get(args.preset, {}), **flags})
    except synthetic.SettingError as exc:
        raise ConfigError(f"{_GENERATOR_FLAGS[exc.name][0]} {exc.requirement}") from exc
    # both appear or neither: the thesaurus is filled, then held open while the corpus is written
    with replacing(args.out_thesaurus) as thesaurus_fh:
        dump_thesaurus_tsv(made.thesaurus, thesaurus_fh)
        dump_corpus_jsonl(made.documents, args.out_corpus)
    print(
        f"wrote {len(made.documents)} documents to {args.out_corpus} and "
        f"{len(made.thesaurus)} concepts to {args.out_thesaurus}"
    )


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
    p_eval.add_argument("--grid", choices=tuple(GRIDS), default=None)
    p_eval.add_argument("--out-json", default="eval_report.json")
    p_eval.add_argument("--out-csv", default="eval_report.csv")
    p_eval.set_defaults(func=cmd_evaluate, failure="evaluation")

    p_train = sub.add_parser(
        "train", parents=[config_flags], help="fit a pipeline on a full corpus and save it"
    )
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.add_argument("--dump-vectors", default=None, help="debug JSONL of training vectors")
    p_train.set_defaults(func=cmd_train, failure="training")

    p_ann = sub.add_parser("annotate", help="apply a trained model to an unlabeled corpus")
    p_ann.add_argument("--model", required=True)
    p_ann.add_argument("--corpus", required=True)
    p_ann.add_argument("--out", required=True, help="JSONL of (id, labels) to write")
    p_ann.set_defaults(func=cmd_annotate, failure="annotation")

    p_stats = sub.add_parser(
        "stats", parents=[_config_flags(inputs_only=True)], help="corpus statistics table"
    )
    p_stats.set_defaults(func=cmd_stats, failure="stats")

    # the generator flags have no defaults of their own: a flag left out keeps
    # the preset's value, or generate_corpus's default
    p_gen = sub.add_parser(
        "generate", help="write a synthetic corpus and thesaurus",
        argument_default=argparse.SUPPRESS,
    )
    p_gen.add_argument("--out-corpus", required=True)
    p_gen.add_argument("--out-thesaurus", required=True)
    p_gen.add_argument("--preset", choices=tuple(synthetic.PRESETS), default=None)
    for name, (flag, kind) in _GENERATOR_FLAGS.items():
        p_gen.add_argument(flag, dest=name, type=kind, metavar=flag[2:].upper().replace("-", "_"))
    p_gen.set_defaults(func=cmd_generate, failure="generation")

    return parser


def main(argv=None) -> int:
    """Run one command.  The one place that turns its outcome into an exit
    code: 0, or 2 and one `invalid configuration` line for a refused
    RunConfig, or 1 and one `<failure> failed` line for any other error."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"{args.failure} failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
