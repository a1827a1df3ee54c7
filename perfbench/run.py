"""Benchmark runner: CLI-phase throughput of smoothsum on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload attendgru-c7 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run generates its inputs from the seed, measures the start-up cost of
the CLI, then starts one worker interpreter (``worker.py``) that runs whole
rounds of the workload's command sequence, one subcommand after another
through ``smoothsum.labcli.main``. After every round the outputs are
checked (``checks.py``). The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, command times
scaled to a reference host speed (``probe.py``), or its per-layer metrics
from traced rounds with ``--trace 1``.
"""

import argparse
import hashlib
import itertools
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402

SETUP_REPEATS = 5
SMOKE_SECONDS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: object          # gen function: (seed, samples) -> functions
    samples: int
    ratios: str
    src_vocab: int
    tgt_vocab: int
    arch: str
    model_flags: tuple      # train flags besides arch/epsilon/epochs/lengths
    comment_len: int
    code_len: int
    epochs: int
    epsilon: float
    decode_split: str
    score_decodes: bool     # score the model's decodes
    derived_files: int      # and this many files of edited test references
    repeats: dict           # phase -> times its command runs per round, so
                            # every phase is timed for seconds over a run


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="attendgru-c7", corpus=gen.narrow_corpus, samples=700,
            ratios="0.6,0.1,0.3", src_vocab=300, tgt_vocab=100,
            arch="attendgru",
            model_flags=("--embed-dim", "64", "--hidden-dim", "64",
                         "--batch-size", "32", "--lr", "0.002"),
            comment_len=8, code_len=30, epochs=3, epsilon=0.1,
            decode_split="test", score_decodes=True, derived_files=0,
            repeats={"prepare": 3, "train": 1, "predict": 1, "score": 20}),
        Workload(
            name="transformer-wide", corpus=gen.wide_corpus, samples=400,
            ratios="0.55,0.35,0.1", src_vocab=1200, tgt_vocab=1200,
            arch="transformer",
            model_flags=("--embed-dim", "64", "--hidden-dim", "64",
                         "--layers", "2", "--heads", "4", "--dropout", "0.1",
                         "--batch-size", "32"),
            comment_len=13, code_len=30, epochs=2, epsilon=0.1,
            decode_split="test", score_decodes=True, derived_files=1,
            repeats={"prepare": 4, "train": 1, "predict": 1, "score": 10}),
        Workload(
            name="prepare-score", corpus=gen.parse_corpus, samples=2000,
            ratios="0.15,0.075,0.775", src_vocab=300, tgt_vocab=100,
            arch="attendgru",
            model_flags=("--embed-dim", "16", "--hidden-dim", "16",
                         "--batch-size", "32", "--lr", "0.01"),
            comment_len=5, code_len=30, epochs=2, epsilon=0.1,
            decode_split="val", score_decodes=False, derived_files=2,
            repeats={"prepare": 2, "train": 1, "predict": 1, "score": 4}),
    )
}


def smoke_shape(w: Workload) -> Workload:
    """Tiny shapes that still run every command and every check."""
    flags = list(w.model_flags)
    for flag, value in (("--embed-dim", "8"), ("--hidden-dim", "8")):
        flags[flags.index(flag) + 1] = value
    return replace(w, samples=100, ratios="0.4,0.3,0.3", model_flags=tuple(flags),
                   src_vocab=min(w.src_vocab, 60), tgt_vocab=min(w.tgt_vocab, 60),
                   code_len=12, epochs=2, repeats=dict.fromkeys(w.repeats, 1))


# ---------------------------------------------------------------------------
# inputs and command sequence


@dataclass
class Inputs:
    workload: Workload
    seed: int
    directory: Path
    functions: list
    truth: dict
    expected: dict = field(default_factory=dict)  # per-run cache of values
                                                  # computed from the inputs

    @property
    def corpus_path(self) -> Path:
        return self.directory / "corpus.jsonl"

    def path(self, name: str) -> Path:
        return self.directory / "round" / name

    def prediction_files(self) -> list:
        """(path, part) of every file the round scores: the model's decodes
        (part None) and the derived files of edited references."""
        w = self.workload
        return ([(self.path("preds.jsonl"), None)] * w.score_decodes
                + [(self.path(f"derived{i}.jsonl"), i)
                   for i in range(w.derived_files)])


def make_inputs(w: Workload, seed: int, directory: Path) -> Inputs:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    functions = w.corpus(seed, w.samples)
    inputs = Inputs(w, seed, directory, functions, {f.id: f for f in functions})
    gen.write_corpus(functions, inputs.corpus_path)
    (directory / "truth.json").write_text(
        json.dumps({f.id: f.words for f in functions}), encoding="utf-8")
    return inputs


def steps(inputs: Inputs) -> list:
    """The round's steps; ``phase`` labels the timed commands."""
    w, seed = inputs.workload, str(inputs.seed)
    prep, run = inputs.path("prep"), inputs.path("run")
    def cmd(phase, *argv):
        return [{"kind": "cmd", "phase": phase, "argv": list(argv)}] * w.repeats[phase]

    out = (
        cmd("prepare", "prepare", "--data", str(inputs.corpus_path),
            "--out", str(prep), "--seed", seed, "--ratios", w.ratios,
            "--src-vocab", str(w.src_vocab), "--tgt-vocab", str(w.tgt_vocab))
        + cmd("train", "train", "--data", str(prep), "--out", str(run),
              "--seed", seed, "--arch", w.arch, "--epsilon", str(w.epsilon),
              "--epochs", str(w.epochs), "--code-len", str(w.code_len),
              "--comment-len", str(w.comment_len), *w.model_flags)
        + cmd("predict", "predict", "--data", str(prep),
              "--checkpoint", str(run / "checkpoint.json"),
              "--out", str(inputs.path("preds.jsonl")), "--seed", seed,
              "--split", w.decode_split))
    scored = [path for path, _ in inputs.prediction_files()]
    if w.derived_files:
        out.append({"kind": "derive", "prepared": str(prep), "seed": inputs.seed,
                    "truth": str(inputs.directory / "truth.json"),
                    "outputs": [str(p) for p, part in inputs.prediction_files()
                                if part is not None]})
    for i, path in enumerate(scored):
        out += cmd("score", "score", "--predictions", str(path),
                   "--out", str(inputs.path(f"scores{i}")))
    out.append({"kind": "cmd", "phase": "diversity", "argv": [
        "diversity", "--predictions", *map(str, scored),
        "--out", str(inputs.path("diversity.csv"))]})
    return out


# ---------------------------------------------------------------------------
# one round


class Worker:
    """One worker interpreter (``worker.py``) serving rounds of a workload."""

    def __init__(self, inputs: Inputs, plan: list):
        self.inputs = inputs
        spec_path = inputs.directory / "spec.json"
        spec_path.write_text(json.dumps({
            "src": str(SRC), "steps": plan,
            "log": str(inputs.directory / "commands.log")}), encoding="utf-8")
        self.stderr = open(inputs.directory / "worker.err", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True)

    def round(self, traced: bool) -> dict:
        round_dir = self.inputs.directory / "round"
        if round_dir.exists():
            shutil.rmtree(round_dir)
        round_dir.mkdir()
        self.proc.stdin.write("traced\n" if traced else "round\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}; see "
                               f"{self.inputs.directory / 'worker.err'}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            if exc[0] is None:
                self.proc.stdin.write("exit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.stderr.close()


class Checker:
    """Runs every output check of one round; counts operations."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.near_ties = 0
        self.decoded_lengths = []
        self.seconds = 0.0

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            error = fn(*args)
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            self.failed += 1
            self.errors.append(f"{name}: could not run: {exc!r}")
            return
        if error is not None:
            self.errors.append(f"{name}: {error}")

    def run(self) -> None:
        inp, w = self.inputs, self.inputs.workload
        prep = inp.path("prep")
        try:
            splits = {name: checks.read_jsonl(prep / f"{name}.jsonl")
                      for name in ("train", "val", "test")}
        except OSError:
            splits = {"train": [], "val": [], "test": []}
        truth = inp.truth
        self.check("splits-partition", checks.splits_partition, splits, inp.functions)
        self.check("comment-tokens", checks.comment_tokens, splits, truth)
        self.check("vocab-specials", checks.vocab_specials, prep)
        self.check("target-vocab-ranking", checks.target_ranking, prep,
                   splits["train"], truth, w.tgt_vocab)
        self.check("ast-counts", checks.ast_counts, splits, truth)

        run = inp.path("run")
        self.check("loss-floor", self._loss_floor, run, prep)
        model = self._load_model(run)
        self.check("checkpoint-epoch", self._checkpoint_epoch, run, model)

        split = splits[w.decode_split]
        preds = self._read(inp.path("preds.jsonl"))
        self.decoded_lengths = [len(p["pred"]) for p in preds]
        vocab = checks.read_vocab(prep / "vocab.tgt.txt") if prep.exists() else []
        self.check("prediction-ids", checks.prediction_ids, preds, split)
        self.check("references", checks.references, preds, truth, w.comment_len)
        self.check("predicted-in-vocab", checks.predicted_in_vocab, preds, vocab)
        self.check("greedy-argmax", self._greedy, preds, split, vocab, model, prep)

        files = inp.prediction_files()
        for i, (path, part) in enumerate(files):
            rows = self._score_rows(path, part)
            scores = self._read_json(inp.path(f"scores{i}.json"))
            self.check(f"bleu[{i}]", checks.bleu_matches, scores,
                       self._expected_bleu(path, rows))
            self.check(f"meteor[{i}]", checks.meteor_forms, scores, rows)
            self.check(f"similarity[{i}]", checks.similarity_bounds, scores, rows)
        self.check("diversity", checks.diversity_counts,
                   inp.path("diversity.csv"), [path for path, _ in files])

    # helpers that read program output; a missing file fails the check
    @staticmethod
    def _read(path) -> list:
        try:
            return checks.read_jsonl(path)
        except OSError:
            return []

    @staticmethod
    def _read_json(path) -> dict:
        try:
            return json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError:
            return {}

    def _score_rows(self, path, part) -> list:
        """(edit, ref, pred) per record in file order; the edit comes from
        the generator for derived files and is None for model decodes."""
        records = self._read(path)
        if part is None:
            return [(None, r["ref"], r["pred"]) for r in records]
        key = ("edits", part)
        if key not in self.inputs.expected:
            test = checks.read_jsonl(self.inputs.path("prep") / "test.jsonl")
            truth = {r["id"]: self.inputs.truth[r["id"]].words for r in test}
            rows = gen.derived_predictions(truth, self.inputs.seed, part,
                                           self.inputs.workload.derived_files)
            self.inputs.expected[key] = {i: edit for i, edit, _, _ in rows}
        edits = self.inputs.expected[key]
        return [(edits[r["id"]], r["ref"], r["pred"]) for r in records]

    def _expected_bleu(self, path, rows) -> float:
        """The benchmark's BLEU of a prediction file, computed once per
        distinct file content."""
        key = ("bleu", hashlib.sha256(Path(path).read_bytes()).hexdigest())
        if key not in self.inputs.expected:
            self.inputs.expected[key] = checks.corpus_bleu(
                [(ref, pred) for _, ref, pred in rows])
        return self.inputs.expected[key]

    def _loss_floor(self, run, prep):
        w = self.inputs.workload
        vocab = len(checks.read_vocab(prep / "vocab.tgt.txt"))
        history = checks.read_history(run / "history.csv")
        return checks.loss_above_floor(history, w.epsilon, vocab, w.epochs)

    def _load_model(self, run):
        try:
            payload = json.loads((run / "checkpoint.json").read_text(encoding="utf-8"))
        except OSError:
            return None
        from smoothsum import models

        return payload["epoch"], models.model_from_dict(payload)

    def _checkpoint_epoch(self, run, model):
        history = checks.read_history(run / "history.csv")
        return checks.checkpoint_epoch(history, {"epoch": model[0]})

    def _greedy(self, preds, split, vocab, model, prep):
        from smoothsum import models

        w = self.inputs.workload
        src = {t: i for i, t in enumerate(checks.read_vocab(prep / "vocab.src.txt"))}
        code = [[src.get(t, 3) for t in r["code_tokens"][: w.code_len]] for r in split]
        code = [row + [checks.PAD] * (w.code_len - len(row)) for row in code]
        import numpy as np

        error, ties = checks.greedy_argmax(
            preds, split, vocab, model[1], models.forward_step,
            np.asarray(code, dtype=np.int64), w.comment_len - 1)
        self.near_ties += ties
        return error


# ---------------------------------------------------------------------------
# metrics


def normalize(seconds: float, before: float, after: float) -> float:
    """A time scaled to the reference host speed, given the probe times
    right before and right after it (``probe.py``)."""
    return seconds * (probe.REFERENCE_S / ((before + after) / 2)) ** probe.EXPONENT


def time_import() -> float:
    """Wall time of a fresh interpreter importing smoothsum.labcli: the
    start-up cost every CLI command pays. Not normalized: the probe does
    not follow the cost of an import (normalizing widened its spread).
    The exit is awaited on a pidfd: ``subprocess.run(timeout=...)`` polls
    with sleeps of up to 50 ms, which rounded every sample up to a 50 ms
    step."""
    argv = [sys.executable, "-c", "import smoothsum.labcli"]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)))
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], 60)
        seconds = time.perf_counter() - started
    finally:
        os.close(pidfd)
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
    if not exited:
        raise subprocess.TimeoutExpired(argv, 60)
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return seconds


def command_times(result: dict, normalized: bool = True) -> list:
    """Seconds of each command of a round, scaled to the reference host
    speed unless ``normalized`` is false."""
    if not normalized:
        return result["times"]
    p = result["probes"]
    return [normalize(t, p[i], p[i + 1]) for i, t in enumerate(result["times"])]


def phase_times(plan: list, result: dict, normalized: bool = True) -> dict:
    """Seconds per phase of one round (repeated commands summed)."""
    timed = [s for s in plan if s["kind"] == "cmd"]
    phase = {}
    for step, seconds in zip(timed, command_times(result, normalized)):
        phase[step["phase"]] = phase.get(step["phase"], 0.0) + seconds
    return phase


def e2e_metrics(inputs: Inputs, plan: list, results: list,
                normalized: bool = True) -> dict:
    """Throughputs as the run's total work over its total phase time, so
    every round weighs by its length; wall_s is the mean round. Times are
    scaled to the reference host speed unless ``normalized`` is false."""
    w = inputs.workload
    train_ids = {r["id"] for r in checks.read_jsonl(inputs.path("prep") / "train.jsonl")}
    work = {
        "prepare": len(inputs.functions),
        "train": w.epochs * sum(checks.target_tokens(inputs.truth[i].words,
                                                     w.comment_len)
                                for i in train_ids),
        "predict": len(checks.read_jsonl(inputs.path("preds.jsonl"))),
        "score": sum(len(checks.read_jsonl(p)) for p, _ in inputs.prediction_files()),
    }
    work = {p: n * w.repeats[p] for p, n in work.items()}
    rounds = [phase_times(plan, r, normalized) for r in results]
    rate = {p: len(rounds) * work[p] / sum(t[p] for t in rounds) for p in work}
    return {
        "prepare_samples_per_s": rate["prepare"],
        "train_tokens_per_s": rate["train"],
        "decode_samples_per_s": rate["predict"],
        "score_preds_per_s": rate["score"],
        "wall_s": statistics.mean(sum(command_times(r, normalized))
                                  for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


# per-layer metric -> the traced function whose self time it is
LAYER_FUNCTIONS = {
    "tensor.gru_step_s": "tensor.gru_step",
    "tensor.dot_attention_s": "tensor.dot_attention",
    "tensor.multi_head_attention_s": "tensor.multi_head_attention",
    "tensor.layer_norm_s": "tensor.layer_norm",
    "tensor.softmax_s": "tensor.softmax",
    "tensor.log_softmax_s": "tensor.log_softmax",
    "tensor.matmul_s": "tensor.matmul",
    "tensor.backward_s": "tensor.backward",
    "smoothing.smooth_target_matrix_s": "smoothing.smooth_target_matrix",
    "models.sequence_loss_s": "models.sequence_loss",
    "models.greedy_decode_s": "models.greedy_decode",
    "trainer.optimizer_s": "trainer.Adam.step",
    "trainer.validation_s": "trainer.validation_token_accuracy",
    "trainer.save_checkpoint_s": "trainer.save_checkpoint",
    "trainer.encode_corpus_s": "trainer.encode_corpus",
    "trainer.load_checkpoint_s": "trainer.load_checkpoint",
    "corpus.read_corpus_jsonl_s": "corpus.read_corpus_jsonl",
    "corpus.tokenize_code_s": "corpus.tokenize_code",
    "corpus.split_by_project_s": "corpus.split_by_project",
    "corpus.build_vocabulary_s": "corpus.build_vocabulary",
    "corpus.write_prepared_dir_s": "corpus.write_prepared_dir",
    "corpus.load_prepared_dir_s": "corpus.load_prepared_dir",
    "astkit.parse_mini_function_s": "astkit.parse_mini_function",
    "astkit.render_sexpr_s": "astkit.render_sexpr",
    "astkit.import_sexpr_s": "astkit.import_sexpr",
    "astkit.sbt_flatten_s": "astkit.sbt_flatten",
    "stemming.porter_stem_s": "stemming.porter_stem",
    "metrics.read_predictions_s": "metrics.read_predictions",
    "metrics.corpus_bleu_s": "metrics.corpus_bleu",
    "metrics.sentence_meteor_s": "metrics.sentence_meteor",
    "metrics.sentence_similarity_s": "metrics.sentence_similarity",
    "metrics.diversity_report_s": "metrics.diversity_report",
    "metrics.write_predictions_s": "metrics.write_predictions",
    "labcli.decode_predictions_s": "labcli.decode_predictions",
    "rng.uniform_array_s": "rng.Rng.uniform_array",
}
def layer_metrics(trace: dict) -> dict:
    self_s, calls = trace["self_s"], trace["calls"]
    steps_run = calls["trainer.Adam.step"]
    decodes = calls["models.greedy_decode"]
    inner = trace["decode_inner_calls"]
    out = {name: self_s[fn] for name, fn in LAYER_FUNCTIONS.items()}
    out.update({
        "tensor.tape_nodes_per_step": trace["step_tape_nodes"] / max(steps_run, 1),
        "tensor.inference_tape_nodes": trace["inference_tape_nodes"],
        "tensor.gru_step_calls_per_decoded_sample":
            inner["tensor.gru_step"] / max(decodes, 1),
        "tensor.matmul_calls": calls["tensor.matmul"],
        "smoothing.target_matrix_bytes": trace["target_matrix_bytes"],
        "models.forward_logits_per_decoded_sample":
            inner["models.forward_logits"] / max(decodes, 1),
        "trainer.steps": steps_run,
        "stemming.porter_stem_calls": calls["stemming.porter_stem"],
    })
    return out


def declared_units() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def write_trace_report(inputs: Inputs, trace: dict) -> None:
    """Every wrapped function with its calls, self and bindings, so a
    function that was never intercepted shows as zero calls."""
    lines = [f"{'function':44} {'calls':>10} {'self_s':>10}"]
    for name in sorted(trace["calls"]):
        lines.append(f"{name:44} {trace['calls'][name]:>10} "
                     f"{trace['self_s'][name]:>10.4f}")
    (inputs.directory / "trace_report.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8")
    (inputs.directory / "trace_summary.json").write_text(
        json.dumps(trace, indent=1, sort_keys=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# runs


def run_rounds(inputs: Inputs, seconds: float, trace: bool):
    """Whole rounds in one worker until the next would overrun ``seconds``;
    every round is checked. A traced run first runs one untraced round, the
    baseline its overhead is measured against. An untraced run times a
    fresh import of the CLI before the first round and after each round
    (at least ``SETUP_REPEATS`` in all), so the samples of ``setup_s``
    spread over the run as the rounds do. Returns (plan, measured results,
    checkers, baseline result, import times)."""
    plan = steps(inputs)
    n_cmds = sum(1 for s in plan if s["kind"] == "cmd")
    results, checkers, baseline, imports = [], [], None, []
    started = time.perf_counter()
    longest = 0.0
    with Worker(inputs, plan) as worker:
        if not trace:
            imports.append(time_import())
        for kind in itertools.chain(["baseline"] * trace, itertools.repeat("measured")):
            round_started = time.perf_counter()
            result = worker.round(trace and kind == "measured")
            checker = Checker(inputs)
            checker.attempted += n_cmds
            checker.failed += n_cmds - sum(1 for c in result["codes"] if c == 0)
            check_started = time.perf_counter()
            checker.run()
            checker.seconds = time.perf_counter() - check_started
            checkers.append(checker)
            if kind == "baseline":
                baseline = result
                continue
            results.append(result)
            if not trace:
                imports.append(time_import())
            longest = max(longest, time.perf_counter() - round_started)
            if time.perf_counter() - started + longest > seconds:
                break
    while not trace and len(imports) < SETUP_REPEATS:
        imports.append(time_import())
    return plan, results, checkers, baseline, imports


def run(workload: str, seed: int, seconds: float, trace: bool,
        shape=lambda w: w, label="") -> dict:
    w = shape(WORKLOADS[workload])
    directory = RUNS / f"{w.name}{label}-s{seed}-t{int(trace)}"
    inputs = make_inputs(w, seed, directory)
    plan, results, checkers, baseline, imports = run_rounds(inputs, seconds, trace)
    n_cmds = sum(1 for s in plan if s["kind"] == "cmd")
    if any(r["codes"] != [0] * n_cmds for r in results):
        raise SystemExit(f"error: a smoothsum command failed; see {directory}")
    e2e_units, layer_units = declared_units()
    if trace:
        per_round = [layer_metrics(r["trace"]) for r in results]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["trace.overhead_s"] = (
            statistics.median(sum(command_times(r)) for r in results)
            - sum(command_times(baseline)))
        units = layer_units
        measured = {}
        write_trace_report(inputs, results[-1]["trace"])
    else:
        with open(directory / "rounds.jsonl", "w", encoding="utf-8") as fh:
            for r in results:
                fh.write(json.dumps({"phases": phase_times(plan, r),
                                     "measured_phases": phase_times(plan, r, False),
                                     "times": r["times"],
                                     "probes": r["probes"]}) + "\n")
        values = e2e_metrics(inputs, plan, results)
        values["setup_s"] = statistics.median(imports)
        measured = e2e_metrics(inputs, plan, results, normalized=False)
        units = e2e_units
    if set(values) != set(units):
        raise SystemExit(f"error: measured {sorted(values)} but BENCHMARK.json "
                         f"declares {sorted(units)}")
    errors = [e for c in checkers for e in c.errors]
    lengths = checkers[-1].decoded_lengths
    summary = {
        "workload": w.name, "seed": seed, "rounds": len(results),
        "mean_decoded_length": sum(lengths) / len(lengths) if lengths else 0.0,
        "near_ties": checkers[-1].near_ties,
        "argmax_margin": checks.ARGMAX_MARGIN,
        "process_threads": results[-1]["threads"],
        "check_s": statistics.median(c.seconds for c in checkers),
        "probe_s": statistics.median(p for r in results for p in r["probes"]),
        "measured": measured,
        "errors": errors[:5],
    }
    cleanup(directory)
    return {
        "summary": summary,
        "correct": not errors,
        "attempted": sum(c.attempted for c in checkers),
        "failed": sum(c.failed for c in checkers),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def cleanup(directory: Path) -> None:
    """Drop the bulky inputs and outputs of the last round; keep the
    per-round figures, logs and trace files."""
    for name in ("round", "corpus.jsonl", "truth.json"):
        path = directory / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def smoke() -> int:
    """Every workload at tiny shapes, untraced and traced, one round each."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            out = run(name, 1, SMOKE_SECONDS, trace, smoke_shape, "-smoke")
            good = out["correct"] and out["failed"] == 0
            ok &= good
            print(json.dumps({"workload": name, "trace": trace, "ok": good,
                              "attempted": out["attempted"],
                              "failed": out["failed"],
                              "errors": out["summary"]["errors"]}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny shapes and exit")
    args = parser.parse_args(argv)
    if not (SRC / "smoothsum" / "labcli.py").is_file():
        print(f"error: no smoothsum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out.pop("summary")))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
