#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 bench/smoke.py [--scale full]

Runs every workload untraced and traced, on tiny inputs unless
`--scale full` is given, prints each metric with its unit, and asserts
that the run exits 0, that its last stdout line is a correct result, and
that it prints every metric BENCHMARK.json names, with that metric's
unit.  It also asserts that a copy of the benchmark without the sources
exits non-zero without printing a result.  Takes about 20 s at tiny
scale and 4 minutes at full scale.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int, scale: str, seconds: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description="smoke check of the benchmark")
    parser.add_argument("--scale", choices=("tiny", "full"), default="tiny")
    scale = parser.parse_args().scale
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"] if scale == "full" else 1
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace, scale, seconds)
            assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in declared[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, f"{workload} trace={trace}: {set(printed) ^ set(expected)}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
                print(f"    {workload} {name} = {m['value']:.6g} {m['unit']}")
            print(f"ok  {workload} trace={trace}: {len(printed)} metrics")

    bare = ROOT / ".bench_work" / "smoke-without-sources"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, declared["workloads"][0]["name"], 0, "tiny", 1)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  refused without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
