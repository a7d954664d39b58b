#!/usr/bin/env python3
"""semannot benchmark: drive the CLI on seeded synthetic inputs.

    python3 bench/run.py --workload cv-title-eager --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; `src/` must hold the package.  The
workloads and their generator parameters are in bench/spec.json, the
metric names and units in BENCHMARK.json.

A run generates its inputs from --seed (the generator's time is never
counted), then repeats rounds until the next one would end after
--seconds.  A round runs each of the workload's commands once, each in a
fresh `python3 bench/child.py` process with one BLAS thread and
`--jobs 1`:

* cv-title-eager: four `semannot evaluate` runs, one per classifier;
* cv-fulltext-vec: one `semannot evaluate --grid vectorizations` run;
* annotate-title: `semannot train` (set-up), then `semannot annotate`.

With --trace 0 the last stdout line holds the end-to-end metrics, as
medians over rounds.  With --trace 1 the first half of --seconds runs
untraced and the second half traced (see tracer.py); the line then holds
the per-layer metrics.  Every run checks its outputs and exits 1 when a
check fails; inputs and outputs go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # whole run, so that it always exits within 180 s
FOLDS = 10


class CheckFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    """Starts child processes and keeps the whole run inside its deadline."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + DEADLINE_S
        self.env = child_env()
        self.n = 0

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str], trace: bool) -> dict:
        """One command in a fresh process: rc, spawn-to-ready, wall, rss,
        spawn-to-exit, and the trace dump when traced."""
        self.n += 1
        result_path = self.work / f"child-{self.n}.json"
        trace_path = self.work / f"trace-{self.n}.json" if trace else None
        cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), str(trace_path or "-"), *argv]
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.time_left()))
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"{argv[0]} did not finish before the run's deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        exited = time.monotonic()
        if proc.returncode != 0 or not result_path.exists():
            sys.stderr.write(err.decode(errors="replace"))
            return {"rc": proc.returncode or 1}
        result = json.loads(result_path.read_text())
        result_path.unlink()
        if result["rc"] != 0:
            sys.stderr.write(err.decode(errors="replace"))
        result["setup"] = result["ready"] - spawned
        result["lifetime"] = exited - spawned
        if trace_path is not None:
            result["trace"] = json.loads(trace_path.read_text())
            trace_path.unlink()
        return result


# --- inputs ----------------------------------------------------------------


def make_inputs(spec: dict, seed: int, tiny: bool, work: Path) -> dict:
    from semannot.corpus import dump_corpus_jsonl, dump_thesaurus_tsv
    from semannot.synthetic import generate_corpus

    params = dict(spec["generator"])
    tiny_overrides = dict(spec["tiny"]) if tiny else {}
    annotate_dpl = tiny_overrides.pop("annotate_docs_per_label", spec.get("annotate_docs_per_label"))
    params.update(tiny_overrides)
    params["labels_per_doc"] = tuple(params["labels_per_doc"])
    made = generate_corpus(seed=seed, **params)
    inputs = {
        "corpus": work / "corpus.jsonl",
        "thesaurus": work / "thesaurus.tsv",
        "n_docs": len(made.documents),
        "concepts": set(made.thesaurus.concepts),
        "seeds": {"corpus": seed, "folds_and_classifiers": seed},
    }
    dump_corpus_jsonl(made.documents, inputs["corpus"])
    dump_thesaurus_tsv(made.thesaurus, inputs["thesaurus"])
    if spec["kind"] == "annotate":
        annotate_seed = seed + spec["annotate_seed_offset"]
        params["docs_per_label"] = annotate_dpl
        held_out = generate_corpus(seed=annotate_seed, **params)
        if set(held_out.thesaurus.concepts) != inputs["concepts"]:
            raise CheckFailed("annotate corpus uses another thesaurus")
        inputs["annotate_corpus"] = work / "annotate.jsonl"
        dump_corpus_jsonl(held_out.documents, inputs["annotate_corpus"], include_labels=False)
        inputs["gold"] = {d.doc_id: d.gold_labels for d in held_out.documents}
        inputs["seeds"]["annotate_corpus"] = annotate_seed
    return inputs


# --- rounds ----------------------------------------------------------------


def sample_f1(predicted: set, gold: frozenset) -> float:
    """Per-document F1, kept apart from the package's scorer so that the
    check does not rest on the code it measures."""
    hits = len(predicted & gold)
    if not hits:
        return 0.0
    precision, recall = hits / len(predicted), hits / len(gold)
    return 2.0 * precision * recall / (precision + recall)


def cv_round(runner: Runner, spec: dict, inputs: dict, seed: int, trace: bool) -> dict:
    """Each evaluate command once; returns samples plus per-config F1."""
    from semannot.features import VARIANTS

    ev = spec["evaluate"]
    n_configs = len(VARIANTS) if "--grid" in ev["common"] else 1
    out = {"wall": 0.0, "setups": [], "rss": 0.0, "f1": {}, "attempted": 0, "failed": 0, "traces": []}
    for extra in ev["runs"]:
        out_json = runner.work / "report.json"
        out_json.unlink(missing_ok=True)
        argv = [
            "evaluate", "--corpus", str(inputs["corpus"]), "--thesaurus", str(inputs["thesaurus"]),
            "--seed", str(seed), *ev["common"], *extra,
            "--out-json", str(out_json), "--out-csv", str(runner.work / "report.csv"),
        ]
        res = runner.run(argv, trace)
        out["attempted"] += FOLDS * n_configs
        if res["rc"] != 0 or not out_json.exists():
            out["failed"] += FOLDS * n_configs
            continue
        out["wall"] += res["wall"]
        out["setups"].append(res["setup"])
        out["rss"] = max(out["rss"], res["rss_mib"])
        if trace:
            out["traces"].append(res["trace"])
        payload = json.loads(out_json.read_text())
        reports = payload.get("reports", [payload])
        if len(reports) != n_configs:
            raise CheckFailed(f"expected {n_configs} reports, got {len(reports)}")
        for report in reports:
            cfg = report["config"]
            key = f"{cfg['classifier']}.{cfg['vectorization']}"
            n_test = [fold["n_test"] for fold in report["folds"]]
            if len(n_test) != FOLDS or sum(n_test) != inputs["n_docs"]:
                raise CheckFailed(f"{key}: fold sizes {n_test} do not partition {inputs['n_docs']} docs")
            if not math.isfinite(report["mean_f1"]):
                raise CheckFailed(f"{key}: mean_f1 is {report['mean_f1']}")
            out["f1"][key] = report["mean_f1"]
    return out


def annotate_round(runner: Runner, spec: dict, inputs: dict, seed: int, trace: bool) -> dict:
    """Train (set-up), then annotate the held-out corpus and check it."""
    model = runner.work / "model.json"
    labels_out = runner.work / "labels.jsonl"
    n_docs = len(inputs["gold"])
    out = {"attempted": n_docs, "failed": n_docs, "f1": {}, "traces": []}
    model.unlink(missing_ok=True)
    labels_out.unlink(missing_ok=True)
    train = runner.run(
        ["train", "--corpus", str(inputs["corpus"]), "--thesaurus", str(inputs["thesaurus"]),
         "--seed", str(seed), *spec["train"], "--out", str(model)],
        trace,
    )
    if train["rc"] != 0:
        return out
    ann = runner.run(
        ["annotate", "--model", str(model), "--corpus", str(inputs["annotate_corpus"]),
         "--out", str(labels_out)],
        trace,
    )
    if ann["rc"] != 0 or not labels_out.exists():
        return out
    raw = labels_out.read_bytes()
    seen: dict[str, set] = {}
    for line in raw.decode("utf-8").splitlines():
        record = json.loads(line)
        doc_id = record["id"]
        if doc_id not in inputs["gold"] or doc_id in seen:
            raise CheckFailed(f"annotate output has an unknown or repeated id {doc_id!r}")
        labels = set(record["labels"])
        unknown = labels - inputs["concepts"]
        if unknown:
            raise CheckFailed(f"{doc_id}: labels {sorted(unknown)} are not thesaurus concepts")
        seen[doc_id] = labels
    out["failed"] = n_docs - len(seen)
    if out["failed"]:
        raise CheckFailed(f"{out['failed']} input docs got no output line")
    f1 = [sample_f1(seen[doc_id], gold) for doc_id, gold in inputs["gold"].items()]
    out.update(
        wall=ann["wall"],
        setups=[train["lifetime"] + ann["setup"]],
        rss=ann["rss_mib"],
        f1={"annotate": sum(f1) / len(f1)},
        digest=hashlib.sha256(raw).hexdigest(),
    )
    if trace:
        out["traces"] = [train["trace"], ann["trace"]]
    return out


def measure(runner: Runner, name: str, spec: dict, inputs: dict, seed: int, seconds: float, trace: bool):
    """Rounds until the next one would end after `seconds`; at least one."""
    round_fn = annotate_round if spec["kind"] == "annotate" else cv_round
    rounds = []
    start = time.monotonic()
    while True:
        r = round_fn(runner, spec, inputs, seed, trace)
        rounds.append(r)
        if r["failed"]:
            break
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        if elapsed + per_round > seconds or per_round * 1.5 > runner.time_left():
            break
    print(
        f"{name}: {len(rounds)} {'traced' if trace else 'untraced'} rounds, wall "
        + " ".join(f"{r.get('wall', float('nan')):.3f}" for r in rounds),
        file=sys.stderr,
    )
    ok = [r for r in rounds if not r["failed"]]
    for r in ok[1:]:
        if r["f1"] != ok[0]["f1"] or r.get("digest") != ok[0].get("digest"):
            raise CheckFailed("outputs differ between rounds of the same inputs")
    return rounds


# --- metrics ---------------------------------------------------------------


def end_to_end(rounds: list[dict], spec: dict, inputs: dict) -> tuple[dict, int, int]:
    ok = [r for r in rounds if not r["failed"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = {"success_share": 1.0 - failed / attempted}
    if ok:
        wall = statistics.median(r["wall"] for r in ok)
        if spec["kind"] == "annotate":
            docs = len(inputs["gold"])
        else:
            docs = inputs["n_docs"] * len(ok[0]["f1"])
        f1 = ok[0]["f1"]
        metrics.update(
            setup_s=statistics.median(s for r in ok for s in r["setups"]),
            wall_s=wall,
            docs_per_s=docs / wall,
            peak_rss_mib=statistics.median(r["rss"] for r in ok),
            mean_f1=sum(f1.values()) / len(f1),
        )
    return metrics, attempted, failed


def env_stamp(workload: str, inputs: dict, tiny: bool) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "scale": "tiny" if tiny else "full",
        "seeds": inputs["seeds"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_declared() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    with open(BENCH / "spec.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return declared, spec


def emit(values: dict, declared: list[dict]) -> dict:
    """Every declared metric, with its unit; a metric computed but not
    declared is a benchmark defect."""
    names = {m["name"] for m in declared}
    undeclared = set(values) - names
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own smoke check")
    args = parser.parse_args(argv)
    started = time.monotonic()
    # turn SIGTERM into SystemExit so that Runner.run still stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "semannot" / "__init__.py").is_file():
        print(f"no semannot sources under {SRC}", file=sys.stderr)
        return 2
    declared, spec = load_declared()
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wspec = spec["workloads"][args.workload]
    tiny = args.scale == "tiny"

    sys.path.insert(0, str(SRC))
    import semannot.cli  # noqa: F401  (compiles the package before any timing)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started)
    try:
        inputs = make_inputs(wspec, args.seed, tiny, work)
        stamp = env_stamp(args.workload, inputs, tiny)
        print("env " + json.dumps(stamp, sort_keys=True), flush=True)
        if not args.trace:
            rounds = measure(runner, args.workload, wspec, inputs, args.seed, args.seconds, False)
            values, attempted, failed = end_to_end(rounds, wspec, inputs)
            metrics = emit(values, declared["end_to_end"])
        else:
            import tracer

            plain = measure(runner, args.workload, wspec, inputs, args.seed, args.seconds / 2, False)
            traced = measure(runner, args.workload, wspec, inputs, args.seed, args.seconds / 2, True)
            attempted = sum(r["attempted"] for r in plain + traced)
            failed = sum(r["failed"] for r in plain + traced)
            if failed:
                raise CheckFailed(f"{failed} of {attempted} operations failed")
            if traced[0]["f1"] != plain[0]["f1"] or traced[0].get("digest") != plain[0].get("digest"):
                raise CheckFailed("traced outputs differ from untraced ones")
            dumps = [d for r in traced for d in r["traces"]]
            values = tracer.summarize(
                dumps,
                n_rounds=len(traced),
                traced_wall=statistics.median(r["wall"] for r in traced),
                untraced_wall=statistics.median(r["wall"] for r in plain),
            )
            if values["corpus.docs_dropped"]:
                raise CheckFailed(f"{values['corpus.docs_dropped']} docs dropped at load")
            metrics = emit(values, declared["per_layer"])
        correct = failed == 0
        (work / "result.json").write_text(json.dumps({"env": stamp, "metrics": metrics}, indent=1))
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
