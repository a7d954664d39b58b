"""Span recorder for the benchmark's traced runs.

`install` replaces every name binding through which the semannot layers
call each other (module functions, wherever they were imported, and the
methods of the vectorizer, matcher and classifier classes) with a wrapper
that records one span: name, start, end and the enclosing span.  The
wrapper calls the original and returns its result untouched, so a traced
run computes exactly what an untraced one does.  Spans stay in memory
until `Recorder.dump` writes them out once, at the end of the process.

Some wrappers also update counters from the call's arguments and result
(token counts, candidate sets, SGD steps).  `summarize` turns the dumps of
one traced run into the per-layer metrics named in BENCHMARK.json.

Wrappers are installed only in the process that runs a traced command;
nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

MIB = 1024.0 * 1024.0


class Recorder:
    """In-memory span and counter store of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []  # id, parent, name, start, end
        self.attrs: dict[int, dict] = {}
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._next_id = 0

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def wrap(self, span_name: str, fn, after=None):
        """Wrap fn so each call records a span; `after(rec, span_id, args,
        kwargs, result)` runs once the call has returned."""
        if span_name not in self._name_index:
            self._name_index[span_name] = len(self.names)
            self.names.append(span_name)
        name_idx = self._name_index[span_name]
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = rec._next_id
            rec._next_id += 1
            parent = rec._stack[-1]
            rec._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec._stack.pop()
                rec.spans.append((span_id, parent, name_idx, start, end))
            if after is not None:
                after(rec, span_id, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run": self.run_id,
                    "names": self.names,
                    "spans": self.spans,
                    "attrs": {str(k): v for k, v in self.attrs.items()},
                    "counters": self.counters,
                },
                fh,
            )


# --- counters computed from call arguments and results -------------------


def _after_load_corpus(rec, sid, args, kwargs, result):
    rec.add("corpus.docs_dropped", result.n_missing_field + result.n_empty_labels)


def _after_preprocess(rec, sid, args, kwargs, result):
    rec.add("preprocess.tokens", len(result))


def _after_vectorizer_fit(rec, sid, args, kwargs, result):
    rec.add("features.dimension_sum", result.dimension)
    rec.add("features.fits", 1)


def _after_candidates(rec, sid, args, kwargs, result):
    rec.add("ranking.candidates", len(result.labels))


def _after_ranker_fit(rec, sid, args, kwargs, result):
    candidate_sets, gold_sets = args[0], args[1]
    for cs, gold in zip(candidate_sets, gold_sets):
        rec.add("ranking.ranker_rows", len(cs.labels))
        rec.add("ranking.recall_hits", len(gold.intersection(cs.labels)))
        rec.add("ranking.recall_gold", len(gold))


def _after_sgd(rec, sid, args, kwargs, result):
    from semannot.learners import linear

    bound = inspect.signature(linear.averaged_sgd_train).bind(*args, **kwargs)
    bound.apply_defaults()
    # computed, not measured: one step per training row per epoch
    rec.add("learners.sgd_steps", bound.arguments["epochs"] * bound.arguments["X"].shape[0])


def _state_bytes(clf) -> int:
    """Bytes of the fitted dense state, computed from array shapes."""
    kind = type(clf).__name__
    if kind == "LinearClassifier":
        arrays = [clf.W, clf.b]
    elif kind == "NaiveBayesClassifier":
        arrays = [clf._coef]
    elif kind == "MlpClassifier":
        # parameters plus the two Adam moment arrays per parameter
        arrays = list(clf.params.values()) * 3
    else:
        return 0
    return sum(int(a.size) * a.itemsize for a in arrays)


def _after_learner_fit(rec, sid, args, kwargs, result):
    rec.peak("learners.state_bytes", _state_bytes(result))


def _after_stacking_train(rec, sid, args, kwargs, result):
    rec.add("multilabel.meta_samples", sum(result.meta_sample_counts.values()))


def _after_stacking_decide(rec, sid, args, kwargs, result):
    model, ranking = args[0], args[1]
    top = ranking[: model.top_m]
    rec.add("multilabel.decided_labels", len(top))
    rec.add("multilabel.fallback_labels", sum(1 for cid, _, _ in top if cid not in model.trees))


def _after_save(rec, sid, args, kwargs, result):
    rec.peak("serialize.model_bytes", os.path.getsize(args[1]))


def _after_evaluate_run(rec, sid, args, kwargs, result):
    config = args[0]
    rec.attrs[sid] = {
        "config": f"{config.classifier}.{config.vectorization}",
        "f1": result.mean_f1,
    }


# (module, attribute or Class.method, span name, counter hook)
_LEARNERS = "semannot.learners"
TARGETS = [
    ("semannot.cli", "main", "cli.main", None),
    ("semannot.corpus", "load_corpus", "corpus.load_corpus", _after_load_corpus),
    ("semannot.corpus", "load_thesaurus", "corpus.load_thesaurus", None),
    ("semannot.preprocess", "preprocess", "preprocess.preprocess", _after_preprocess),
    ("semannot.features", "TextVectorizer.fit", "features.fit", _after_vectorizer_fit),
    ("semannot.features", "TextVectorizer.transform", "features.transform", None),
    ("semannot.features", "TextVectorizer.transform_counts", "features.transform", None),
    ("semannot.features", "TextVectorizer.transform_one", "features.transform_one", None),
    ("semannot.features", "TextVectorizer.counts_one", "features.transform_one", None),
    ("semannot.features", "ConceptMatcher.match_counts", "features.match_counts", None),
    ("semannot.features", "count_terms", "features.count_terms", None),
    ("semannot.sparse", "vstack", "sparse.vstack", None),
    (_LEARNERS, "KnnClassifier.fit", "learners.fit.knn", None),
    (_LEARNERS, "RocchioClassifier.fit", "learners.fit.rocchio", None),
    (_LEARNERS, "NaiveBayesClassifier.fit", "learners.fit.bayes", _after_learner_fit),
    (_LEARNERS, "LinearClassifier.fit", "learners.fit.linear", _after_learner_fit),
    (_LEARNERS, "MlpClassifier.fit", "learners.fit.mlp", _after_learner_fit),
    (_LEARNERS, "KnnClassifier.predict", "learners.predict", None),
    (_LEARNERS, "KnnClassifier.neighbors", "learners.predict", None),
    (_LEARNERS, "RocchioClassifier.rank", "learners.predict", None),
    (_LEARNERS, "NaiveBayesClassifier.predict", "learners.predict", None),
    (_LEARNERS, "NaiveBayesClassifier.rank", "learners.predict", None),
    (_LEARNERS, "LinearClassifier.predict", "learners.predict", None),
    (_LEARNERS, "LinearClassifier.rank", "learners.predict", None),
    (_LEARNERS, "MlpClassifier.predict", "learners.predict", None),
    (_LEARNERS, "MlpClassifier.rank", "learners.predict", None),
    ("semannot.learners.linear", "averaged_sgd_train", "learners.averaged_sgd_train", _after_sgd),
    ("semannot.ranking", "generate_candidates", "ranking.generate_candidates", _after_candidates),
    ("semannot.ranking", "ranker_fit", "ranking.ranker_fit", _after_ranker_fit),
    ("semannot.multilabel", "rank_labels", "multilabel.rank_labels", None),
    ("semannot.multilabel", "stacking_train", "multilabel.stacking_train", _after_stacking_train),
    ("semannot.multilabel", "stacking_decide", "multilabel.decide", _after_stacking_decide),
    ("semannot.multilabel", "threshold_decide", "multilabel.decide", None),
    ("semannot.multilabel", "binary_relevance_decide", "multilabel.decide", None),
    ("semannot.evaluate", "evaluate_run", "evaluate.evaluate_run", _after_evaluate_run),
    ("semannot.evaluate", "run_fold", "evaluate.run_fold", None),
    ("semannot.pipeline", "fit_pipeline", "pipeline.fit_pipeline", None),
    ("semannot.pipeline", "FittedPipeline.predict_document", "pipeline.predict_document", None),
    ("semannot.serialize", "save_pipeline", "serialize.save_pipeline", _after_save),
    ("semannot.serialize", "load_pipeline", "serialize.load_pipeline", None),
]


def install(rec: Recorder) -> None:
    """Wrap every TARGETS entry at each binding the package holds."""
    import semannot.cli  # noqa: F401  (imports every layer module)

    modules = [m for n, m in sys.modules.items() if n == "semannot" or n.startswith("semannot.")]
    for module_name, path, span_name, after in TARGETS:
        owner = sys.modules[module_name]
        if "." in path:
            cls_name, method = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, rec.wrap(span_name, cls.__dict__[method], after))
            continue
        original = getattr(owner, path)
        wrapped = rec.wrap(span_name, original, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


# --- aggregation ---------------------------------------------------------


class _Run:
    """One dumped process: spans indexed by id, with self times."""

    def __init__(self, dump: dict):
        names = dump["names"]
        self.attrs = {int(k): v for k, v in dump["attrs"].items()}
        self.counters = dump["counters"]
        self.parent: dict[int, int] = {}
        self.name: dict[int, str] = {}
        self.duration: dict[int, float] = {}
        self.by_name: dict[str, list[int]] = {}
        child_time: dict[int, float] = {}
        for span_id, parent, name_idx, start, end in dump["spans"]:
            self.parent[span_id] = parent
            self.name[span_id] = names[name_idx]
            self.duration[span_id] = end - start
            self.by_name.setdefault(names[name_idx], []).append(span_id)
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self.self_time = {sid: d - child_time.get(sid, 0.0) for sid, d in self.duration.items()}

    def spans(self, names: set[str]) -> list[int]:
        return [sid for name in names for sid in self.by_name.get(name, ())]

    def _under(self, sid: int, names: set[str]) -> bool:
        parent = self.parent[sid]
        while parent != -1:
            if self.name[parent] in names:
                return True
            parent = self.parent[parent]
        return False

    def busy(self, names: set[str], exclude_under: frozenset = frozenset()) -> float:
        """Time inside the named calls, counting nested calls of the same
        group once, and skipping calls made under `exclude_under`."""
        blocked = names | exclude_under
        return sum(self.duration[sid] for sid in self.spans(names) if not self._under(sid, blocked))


def summarize(dumps: list[dict], n_rounds: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced run.

    Times and counts are per round (one pass over the workload's commands);
    shares, means and percentiles are over the whole traced run.
    """
    runs = [_Run(d) for d in dumps]

    def per_round(value: float) -> float:
        return value / n_rounds

    def busy(*names, exclude_under=()) -> float:
        return per_round(sum(r.busy(set(names), frozenset(exclude_under)) for r in runs))

    def calls(*names) -> float:
        return per_round(sum(len(r.spans(set(names))) for r in runs))

    def self_time(*names) -> float:
        return per_round(sum(r.self_time[sid] for r in runs for sid in r.spans(set(names))))

    def counter(name: str) -> float:
        return sum(r.counters.get(name, 0.0) for r in runs)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    learner_predict = "learners.predict"
    metrics = {
        "corpus.load_s": busy("corpus.load_corpus", "corpus.load_thesaurus"),
        "corpus.docs_dropped": per_round(counter("corpus.docs_dropped")),
        "preprocess.busy_s": busy("preprocess.preprocess"),
        "preprocess.calls": calls("preprocess.preprocess"),
        "preprocess.tokens": per_round(counter("preprocess.tokens")),
        "features.fit_s": busy("features.fit"),
        "features.transform_s": busy("features.transform"),
        "features.transform_one_s": busy(
            "features.transform_one", exclude_under=("features.transform",)
        ),
        "features.match_s": busy("features.match_counts"),
        "features.match_calls": calls("features.match_counts"),
        "features.count_calls": calls("features.count_terms"),
        "features.dimension": ratio(counter("features.dimension_sum"), counter("features.fits")),
        "sparse.vstack_s": busy("sparse.vstack"),
        "sparse.vstack_calls": calls("sparse.vstack"),
        "learners.predict_s": busy(learner_predict),
        "learners.sgd_steps": per_round(counter("learners.sgd_steps")),
        "learners.state_mib": max((r.counters.get("learners.state_bytes", 0.0) for r in runs), default=0.0)
        / MIB,
        "ranking.candidates_s": busy("ranking.generate_candidates"),
        "ranking.candidate_calls": calls("ranking.generate_candidates"),
        "ranking.candidates_per_doc": ratio(
            counter("ranking.candidates"), calls("ranking.generate_candidates") * n_rounds
        ),
        "ranking.candidate_recall": ratio(
            counter("ranking.recall_hits"), counter("ranking.recall_gold")
        ),
        "ranking.ranker_fit_s": busy("ranking.ranker_fit"),
        "ranking.ranker_rows": per_round(counter("ranking.ranker_rows")),
        "multilabel.rank_s": busy("multilabel.rank_labels"),
        "multilabel.rank_calls": calls("multilabel.rank_labels"),
        "multilabel.stacking_train_s": busy("multilabel.stacking_train"),
        "multilabel.meta_samples": per_round(counter("multilabel.meta_samples")),
        "multilabel.decide_s": busy("multilabel.decide"),
        "multilabel.fallback_share": ratio(
            counter("multilabel.fallback_labels"), counter("multilabel.decided_labels")
        ),
        "evaluate.fold_s": busy("evaluate.run_fold"),
        "evaluate.self_s": self_time("evaluate.evaluate_run", "evaluate.run_fold"),
        "pipeline.fit_s": busy("pipeline.fit_pipeline"),
        "serialize.save_s": busy("serialize.save_pipeline"),
        "serialize.load_s": busy("serialize.load_pipeline"),
        "serialize.model_mib": max(
            (r.counters.get("serialize.model_bytes", 0.0) for r in runs), default=0.0
        )
        / MIB,
        "cli.self_s": self_time("cli.main"),
        "trace.overhead_share": traced_wall / untraced_wall - 1.0,
    }
    for kind in ("knn", "rocchio", "bayes", "linear", "mlp"):
        metrics[f"learners.fit_s.{kind}"] = busy(f"learners.fit.{kind}")

    predict_ms = sorted(
        r.duration[sid] * 1e3 for r in runs for sid in r.spans({"pipeline.predict_document"})
    )
    if len(predict_ms) >= 2:
        cuts = statistics.quantiles(predict_ms, n=100, method="inclusive")
        metrics["pipeline.predict_ms_p50"], metrics["pipeline.predict_ms_p99"] = cuts[49], cuts[98]
    else:
        metrics["pipeline.predict_ms_p50"] = metrics["pipeline.predict_ms_p99"] = (
            predict_ms[0] if predict_ms else 0.0
        )

    config_s: dict[str, float] = {}
    for r in runs:
        for sid, attrs in r.attrs.items():
            key = attrs["config"]
            config_s[key] = config_s.get(key, 0.0) + r.duration[sid]
            metrics[f"evaluate.f1.{key}"] = attrs["f1"]
    for key, total in config_s.items():
        metrics[f"evaluate.config_s.{key}"] = per_round(total)
    return metrics
