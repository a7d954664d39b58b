"""Run one semannot CLI command in a fresh process and report its cost.

    python3 bench/child.py RESULT_JSON TRACE_JSON|- COMMAND ARG...

The parent notes the monotonic clock just before it starts this process;
`ready` below is the same clock once `semannot.cli` is imported, so the
difference is interpreter start plus import.  `wall` covers the command
alone, and `rss_mib` is this process's peak resident set.  With a trace
path the layers are wrapped first (see tracer.py) and the spans are
written there after the command returns.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, trace_path, *argv = sys.argv[1:]
    import semannot.cli

    ready = time.monotonic()
    recorder = None
    if trace_path != "-":
        import tracer

        recorder = tracer.Recorder(run_id=argv[0])
        tracer.install(recorder)
    start = time.perf_counter()
    try:
        rc = semannot.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    wall = time.perf_counter() - start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.dump(trace_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "ready": ready, "wall": wall, "rss_mib": rss_mib}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
