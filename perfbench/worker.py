"""Runs rounds of a workload in one interpreter, on request.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the program's source directory, the round's steps and the
command log. The worker reads one request per line on standard input:
``round`` runs the steps, ``traced`` runs them with the tracer installed,
``exit`` ends the process. After each round it writes one JSON line to
standard output with the command times and exit codes, the host-speed
probe timed before the first command and after each one (``probe.py``),
the peak resident memory so far and the thread count; a traced round
adds the tracer's summary and leaves its spans in ``spans.npz`` beside
the spec.

A ``cmd`` step is one ``smoothsum`` subcommand, run in this process through
``smoothsum.labcli.main`` and timed; a ``derive`` step writes the score
workload's prediction files and is not timed.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import probe  # noqa: E402


def process_threads() -> int:
    """Threads of this process: the main thread plus the BLAS pools that
    numpy and scipy start (the benchmark starts none of its own)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def derive(step: dict) -> None:
    """Write the edited copies of the test references to score."""
    with open(Path(step["prepared"]) / "test.jsonl", encoding="utf-8") as fh:
        test_ids = [json.loads(line)["id"] for line in fh]
    truth = json.loads(Path(step["truth"]).read_text(encoding="utf-8"))
    references = {i: truth[i] for i in test_ids}
    parts = len(step["outputs"])
    for part, path in enumerate(step["outputs"]):
        gen.write_predictions(
            gen.derived_predictions(references, step["seed"], part, parts), path)


def run_round(labcli, steps: list, log) -> dict:
    times, codes, probes = [], [], [probe.seconds()]
    with contextlib.redirect_stdout(log):
        for step in steps:
            if step["kind"] == "derive":
                derive(step)
                continue
            started = time.perf_counter()
            code = labcli.main(step["argv"])
            times.append(time.perf_counter() - started)
            codes.append(code)
            probes.append(probe.seconds())
            if code != 0:
                break
    log.flush()
    return {
        "times": times,
        "codes": codes,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": process_threads(),
    }


def main(argv) -> int:
    spec_path = Path(argv[1])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from smoothsum import labcli

    tracer = None
    with open(spec["log"], "w", encoding="utf-8") as log:
        for request in sys.stdin:
            request = request.strip()
            if request == "exit":
                break
            if request == "traced":
                if tracer is None:
                    from tracer import Tracer

                    tracer = Tracer()
                    tracer.install()
                tracer.reset()
            elif request != "round":
                raise SystemExit(f"unknown request {request!r}")
            result = run_round(labcli, spec["steps"], log)
            if request == "traced":
                result["trace"] = tracer.summary()
                tracer.write_spans(spec_path.with_name("spans.npz"))
            sys.stdout.write(json.dumps(result) + "\n")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
