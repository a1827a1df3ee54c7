"""Experiment command line: prepare data, train and decode summarizers,
score predictions, and rerun the protocol shapes (paired epsilon on/off
comparison, epsilon-by-vocabulary sweeps, diversity and action-word
studies).

Exit codes: 0 success, 1 usage, 2 data or configuration error (a missing
or unreadable file included), 3 numeric failure.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics, models, trainer
from .corpus import (END, PAD, SPECIAL_TOKENS, SPLITS, START, PreparedData,
                     Vocabulary, atomic_write, build_token_vocabulary,
                     build_vocabulary, check_quantile, check_ratios,
                     check_vocab_size, extract_action_word,
                     filter_by_length_quantile, load_prepared_dir,
                     read_corpus_jsonl, split_by_project, write_prepared_dir)
from .errors import ConfigurationError, DataError, NumericError
from .trainer import TrainConfig, encode_comments, encode_corpus

DEFAULT_SWEEP_GRID = (0.0, 0.001, 0.003, 0.007, 0.02, 0.05, 0.10, 0.25, 0.40)
ACTIONWORD_EPSILONS = (0.0, 0.1, 0.4)
# Rows per batched decode or action-word forward pass; bounds the memory of
# one batch's encoder states and the transformer's key/value caches.
DECODE_CHUNK = 64


@dataclass
class ReportRow:
    epsilon: float
    scores: dict
    comparisons: dict = field(default_factory=dict)


@dataclass
class ReportTable:
    title: str
    rows: list


# ---------------------------------------------------------------------------
# report rendering


def _fmt_eps(value: float) -> str:
    return format(value, "g")


def _fmt_score(value: float) -> str:
    """Two decimals; also the t statistic, which prints as inf or -inf when
    the paired differences have no spread."""
    return f"{value:.2f}"


def _fmt_p(value: float) -> str:
    return "<0.01" if value < 0.01 else f"{value:.2f}"


_REPORT_HEADER = ["epsilon", "meteor", "similarity", "bleu",
                  "t_meteor", "p_meteor", "t_similarity", "p_similarity"]


def _report_rows(rows) -> list:
    """_REPORT_HEADER plus the formatted cells of each ReportRow."""
    table = [_REPORT_HEADER]
    for row in rows:
        cells = [_fmt_eps(row.epsilon),
                 _fmt_score(row.scores["meteor"]),
                 _fmt_score(row.scores["similarity"]),
                 _fmt_score(row.scores["bleu"])]
        for name in ("meteor", "similarity"):
            comparison = row.comparisons.get(name)
            if comparison is None:
                cells += ["-", "-"]
            else:
                cells += [_fmt_score(comparison.t_stat),
                          _fmt_p(comparison.p_value)]
        table.append(cells)
    return table


def render_table(rows, fmt: str) -> str:
    """CSV (RFC 4180) or aligned markdown of a header row and body rows."""
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return buffer.getvalue()
    if fmt == "markdown":
        rows = [[str(c) for c in row] for row in rows]
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = ["| " + " | ".join(c.ljust(w) for c, w in zip(row, widths))
                 + " |" for row in rows]
        lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
        return "\n".join(lines) + "\n"
    raise ConfigurationError(f"unknown report format {fmt!r}")


def render_report(table: ReportTable, fmt: str) -> str:
    """A comparison table as CSV or markdown; metric scores and p-values
    get two decimals, p-values below 0.01 print as "<0.01"."""
    return render_table(_report_rows(table.rows), fmt)


def _write_table(rows, csv_path: Path, md_path: Path) -> None:
    for path, fmt in ((csv_path, "csv"), (md_path, "markdown")):
        with atomic_write(path) as fh:
            fh.write(render_table(rows, fmt))


# ---------------------------------------------------------------------------
# shared plumbing


def _arch_internal(name: str) -> str:
    return name.replace("-", "_")


def _parse_list(text: str, convert, flag: str) -> tuple:
    """A comma-separated flag value; a malformed entry is a
    ConfigurationError."""
    try:
        return tuple(convert(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(
            f"{flag} {text!r} is not a comma-separated list of "
            f"{convert.__name__} values") from exc


def _add_common_flags(parser, data_help: str) -> None:
    parser.add_argument("--data", required=True, help=data_help)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=13)


def _add_model_flags(parser) -> None:
    parser.add_argument("--arch", default="attendgru",
                        choices=["attendgru", "transformer", "ast-attendgru"])
    parser.add_argument("--embed-dim", type=int, default=64)
    parser.add_argument("--hidden-dim", type=int, default=64)
    parser.add_argument("--code-len", type=int, default=50)
    parser.add_argument("--ast-len", type=int, default=80)
    parser.add_argument("--comment-len", type=int, default=13)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--dropout", type=float, default=0.1)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--lr", type=float, default=1e-3)


_TRAINING_USES = {"train": "trains on it", "val": "validates on it"}


def _load(data, splits, needs_ast: bool,
          uses=_TRAINING_USES) -> PreparedData:
    """The named splits of the data directory. Each split in uses, a
    subset of splits mapped to what the command does with it, must not be
    empty; when needs_ast, every sample of the named splits must have an
    AST. Commands load before they write, so a refusal leaves no files."""
    prepared = load_prepared_dir(data, splits)
    for split, use in uses.items():
        if not len(getattr(prepared, split)):
            raise DataError(f"{Path(data) / f'{split}.jsonl'} holds no "
                            f"samples; the command {use}")
    if needs_ast:
        for split in splits:
            for s in getattr(prepared, split):
                if not s.ast_text:
                    raise DataError(f"{Path(data) / f'{split}.jsonl'}: "
                                    f"sample {s.id!r} has no AST")
    return prepared


def _load_paired(args) -> PreparedData:
    """_load of every split, with the 2 test samples that the paired
    t-test of compare and sweep needs."""
    prepared = _load(args.data, SPLITS, args.arch == "ast-attendgru")
    if len(prepared.test) < 2:
        raise DataError(f"{Path(args.data) / 'test.jsonl'} holds "
                        f"{len(prepared.test)} sample(s); the paired t-test "
                        "needs at least 2")
    return prepared


def _arm_configs(args, prepared: PreparedData, tgt_size: int,
                 comment_len: int, epsilons) -> list:
    """The --arch model over prepared's source and AST vocabularies, one
    config per epsilon arm. Building them checks every model flag, so a
    command builds them before it writes anything."""
    config = models.ModelConfig(
        arch=_arch_internal(args.arch),
        src_vocab=prepared.src_vocab.size,
        tgt_vocab=tgt_size,
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        code_len=args.code_len,
        ast_len=args.ast_len,
        comment_len=comment_len,
        heads=args.heads,
        layers=args.layers,
        dropout_rate=args.dropout,
        ast_vocab=(prepared.ast_vocab.size if args.arch == "ast-attendgru"
                   else 0),
    )
    return [replace(config, epsilon=epsilon) for epsilon in epsilons]


def _train_config(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                       learning_rate=args.lr, seed=args.seed)


def decode_predictions(model: models.Model, dataset,
                       tgt_vocab: Vocabulary) -> list:
    """Greedy-decode every sample, DECODE_CHUNK rows per batch, and pair
    each decode, less its PAD, START and END ids, with its reference
    tokens: one PredictionRecord per sample."""
    records = []
    for rows in trainer.row_slices(len(dataset), DECODE_CHUNK):
        decoded = models.greedy_decode(model, dataset.code[rows],
                                       dataset.ast[rows])
        for sample_id, reference, ids in zip(
                dataset.sample_ids[rows], dataset.references[rows], decoded):
            predicted = [tgt_vocab.decode_id(t) for t in ids
                         if t not in (PAD, START, END)]
            records.append(metrics.PredictionRecord(
                id=sample_id, reference=reference, predicted=predicted))
    return records


def _eps_tag(epsilon: float) -> str:
    return _fmt_eps(epsilon).replace(".", "p")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _encode(prepared: PreparedData, config: models.ModelConfig,
            tgt_vocab: Vocabulary, *splits) -> list:
    """Each split encoded against prepared's source and AST vocabularies
    and tgt_vocab; an arm's epsilon does not change the encoding."""
    return [encode_corpus(split, config, prepared.src_vocab, tgt_vocab,
                          prepared.ast_vocab) for split in splits]


def _train_arms(configs, train_set, val_set, train_config: TrainConfig):
    """Train one model per arm config, each built from train_config.seed,
    on the same encoded splits, and log each epoch with its wall-clock
    seconds. Yields (epsilon, checkpoint, history)."""
    for config in configs:
        model = models.build_model(config, seed=train_config.seed)
        ckpt, history = trainer.train(model, train_set, val_set, train_config)
        for r in history.records:
            _log(f"eps={_fmt_eps(config.epsilon)} epoch {r.epoch} loss "
                 f"{r.loss_nats:.4f} val_acc {r.val_accuracy:.4f} "
                 f"{r.seconds:.3f} s")
        yield config.epsilon, ckpt, history


def _experiment_arms(encoded, configs, tgt_vocab: Vocabulary,
                     train_config: TrainConfig):
    """Train one arm per config on the encoded train, val and test splits
    and score its test decodes. Yields (epsilon tag, checkpoint,
    predictions, report row); every epsilon > 0 row is paired-tested
    against the epsilon = 0 row."""
    train_set, val_set, test_set = encoded
    baseline = None
    for epsilon, ckpt, _ in _train_arms(configs, train_set, val_set,
                                        train_config):
        _log(f"eps={_fmt_eps(epsilon)} vocab={tgt_vocab.size} "
             f"best epoch {ckpt.epoch} val_acc {ckpt.val_accuracy:.4f}")
        preds = decode_predictions(ckpt.model, test_set, tgt_vocab)
        report = metrics.score_predictions(preds)
        if epsilon == 0.0:
            baseline = report
        yield _eps_tag(epsilon), ckpt, preds, _comparison_row(
            epsilon, report, baseline if epsilon > 0 else None)


def _comparison_row(epsilon: float, report: metrics.MetricReport,
                    baseline: metrics.MetricReport | None) -> ReportRow:
    scores = {"meteor": report.mean_meteor,
              "similarity": report.mean_similarity,
              "bleu": report.corpus_bleu}
    comparisons = {}
    if baseline is not None:
        comparisons["meteor"] = metrics.paired_t_test(
            report.meteor_scores, baseline.meteor_scores, metric="meteor")
        comparisons["similarity"] = metrics.paired_t_test(
            report.similarity_scores, baseline.similarity_scores,
            metric="similarity")
    return ReportRow(epsilon=epsilon, scores=scores, comparisons=comparisons)


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare(args) -> int:
    if args.quantile is not None:
        check_quantile(args.quantile)
    ratios = _parse_list(args.ratios, float, "--ratios")
    check_ratios(ratios)
    check_vocab_size(args.src_vocab)
    check_vocab_size(args.tgt_vocab)
    raw = read_corpus_jsonl(args.data)
    samples = [s for s in raw if s.comment_tokens and s.code_tokens]
    dropped = len(raw) - len(samples)
    if args.quantile is not None:
        samples = filter_by_length_quantile(samples, args.quantile)
    train, val, test = split_by_project(samples, ratios, args.seed)
    src_vocab = build_vocabulary(train, args.src_vocab, "source")
    tgt_vocab = build_vocabulary(train, args.tgt_vocab, "target")
    ast_vocab = build_vocabulary(train, args.src_vocab, "ast")
    out_dir = Path(args.out)
    write_prepared_dir(out_dir, train, val, test, src_vocab, tgt_vocab,
                       ast_vocab)
    print(f"prepared {out_dir}: train {len(train)} val {len(val)} "
          f"test {len(test)} (dropped {dropped})")
    print(f"vocabularies: src {src_vocab.size} tgt {tgt_vocab.size} "
          f"ast {ast_vocab.size}")
    return 0


def cmd_train(args) -> int:
    train_config = _train_config(args)
    prepared = _load(args.data, ("train", "val"),
                     args.arch == "ast-attendgru")
    [config] = _arm_configs(args, prepared, prepared.tgt_vocab.size,
                            args.comment_len, (args.epsilon,))
    train_set, val_set = _encode(prepared, config, prepared.tgt_vocab,
                                 prepared.train, prepared.val)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    [(_, ckpt, history)] = _train_arms([config], train_set, val_set,
                                       train_config)
    trainer.save_checkpoint(ckpt, out_dir / "checkpoint.json")
    history.write_csv(out_dir / "history.csv")
    print(f"best epoch {ckpt.epoch} val_acc {ckpt.val_accuracy:.6f}")
    return 0


def cmd_predict(args) -> int:
    ckpt = trainer.load_checkpoint(args.checkpoint)
    config = ckpt.model.config
    prepared = _load(args.data, (args.split,),
                     config.arch == "ast_attendgru",
                     uses={args.split: "decodes it"})
    sizes = [("source", config.src_vocab, prepared.src_vocab),
             ("target", config.tgt_vocab, prepared.tgt_vocab)]
    if config.arch == "ast_attendgru":
        sizes.append(("AST", config.ast_vocab, prepared.ast_vocab))
    for name, size, vocab in sizes:
        if size != vocab.size:
            raise DataError(f"checkpoint {name} vocabulary {size} does not "
                            f"match data directory ({vocab.size})")
    [dataset] = _encode(prepared, config, prepared.tgt_vocab,
                        getattr(prepared, args.split))
    preds = decode_predictions(ckpt.model, dataset, prepared.tgt_vocab)
    metrics.write_predictions(preds, args.out)
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def _out_file(out: str) -> Path:
    """The path of score's and diversity's --out, to which they add
    suffixes. One that is empty or ends in a path separator, "." or ".."
    names no file and is refused."""
    if os.path.basename(out) in ("", ".", ".."):
        raise ConfigurationError(f"--out {out!r} names no file")
    return Path(out)


def cmd_score(args) -> int:
    out_prefix = _out_file(args.out)
    preds = metrics.read_predictions(args.predictions)
    report = metrics.score_predictions(preds)
    payload = report.to_dict()
    payload["count"] = len(preds)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(f"{out_prefix}.json") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    md = render_table([["bleu", "meteor", "similarity", "count"],
                       [_fmt_score(report.corpus_bleu),
                        _fmt_score(report.mean_meteor),
                        _fmt_score(report.mean_similarity), str(len(preds))]],
                      "markdown")
    with atomic_write(f"{out_prefix}.md") as fh:
        fh.write(md)
    print(md, end="")
    return 0


def cmd_compare(args) -> int:
    """Paired run: train once without and once with label smoothing from
    identical seeds, score the test decodes, and t-test the two
    sentence-level metrics (BLEU is corpus-level and gets no test)."""
    if not 0.0 < args.epsilon <= 1.0:
        raise ConfigurationError(f"epsilon {args.epsilon} outside (0, 1]")
    train_config = _train_config(args)
    prepared = _load_paired(args)
    configs = _arm_configs(args, prepared, prepared.tgt_vocab.size,
                           args.comment_len, (0.0, args.epsilon))
    encoded = _encode(prepared, configs[0], prepared.tgt_vocab,
                      prepared.train, prepared.val, prepared.test)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for tag, ckpt, preds, row in _experiment_arms(
            encoded, configs, prepared.tgt_vocab, train_config):
        trainer.save_checkpoint(ckpt, out_dir / f"checkpoint_eps{tag}.json")
        metrics.write_predictions(preds, out_dir / f"predictions_eps{tag}.jsonl")
        rows.append(row)
    table = _report_rows(rows)
    _write_table(table, out_dir / "pair_report.csv", out_dir / "pair_report.md")
    print(render_table(table, "markdown"), end="")
    return 0


def cmd_sweep(args) -> int:
    """One training run per (epsilon, target vocabulary size); every
    epsilon > 0 row is paired-tested against the epsilon = 0 row of the
    same vocabulary size. A numeric failure still writes the rows done so
    far for its vocabulary size, then stops the sweep."""
    sizes = _parse_list(args.vocab_sizes, int, "--vocab-sizes")
    repeated = [size for i, size in enumerate(sizes) if size in sizes[:i]]
    if repeated:
        raise ConfigurationError(f"--vocab-sizes lists {repeated[0]} twice")
    train_config = _train_config(args)
    prepared = _load_paired(args)
    grid = []
    for size in sizes:
        tgt_vocab = build_vocabulary(prepared.train, size, "target")
        grid.append((size, tgt_vocab, _arm_configs(
            args, prepared, tgt_vocab.size, args.comment_len,
            DEFAULT_SWEEP_GRID)))
    # sources and ASTs are encoded once; only the comments depend on size
    splits = (prepared.train, prepared.val, prepared.test)
    _, first_vocab, first_configs = grid[0]
    base = _encode(prepared, first_configs[0], first_vocab, *splits)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for size, tgt_vocab, configs in grid:
        tgt_vocab.write(out_dir / f"sweep_v{size}.vocab.tgt.txt")
        encoded = [replace(dataset, comments=encode_comments(
            split, tgt_vocab, args.comment_len))
            for dataset, split in zip(base, splits)]
        rows = []
        failure = None
        try:
            for tag, _, preds, row in _experiment_arms(
                    encoded, configs, tgt_vocab, train_config):
                metrics.write_predictions(
                    preds, out_dir / f"sweep_v{size}_eps{tag}.jsonl")
                rows.append(row)
        except NumericError as exc:
            failure = exc
        table = _report_rows(rows)
        _write_table(table, out_dir / f"sweep_v{size}.csv",
                     out_dir / f"sweep_v{size}.md")
        print(render_table(table, "markdown"), end="")
        if failure is not None:
            raise failure
    return 0


def cmd_diversity(args) -> int:
    """Word diversity per prediction file plus deltas against the first
    file (the baseline)."""
    out = None if args.out is None else _out_file(args.out)
    reports = []
    for path in args.predictions:
        preds = metrics.read_predictions(path)
        reports.append((path, metrics.diversity_report(preds)))
    base = reports[0][1]
    rows = [["file", "total_words", "unique_words", "avg_frequency",
             "delta_total", "delta_unique"]]
    for path, rep in reports:
        rows.append([str(path), rep.total_words, rep.unique_words,
                     f"{rep.avg_frequency:.4f}",
                     rep.total_words - base.total_words,
                     rep.unique_words - base.unique_words])
    if out is not None:
        # only a table suffix goes: --out run.eps0.1 keeps its ".1"
        if out.suffix in (".csv", ".md"):
            out = out.with_suffix("")
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_table(rows, Path(f"{out}.csv"), Path(f"{out}.md"))
    print(render_table(rows, "csv"), end="")
    return 0


def _action_word_samples(split: list) -> list:
    """split with each comment replaced by its action word, which a
    comment_len of 3 encodes as [START, action word, END]."""
    return [replace(s, comment_tokens=[extract_action_word(s.comment_tokens)])
            for s in split]


def cmd_actionword(args) -> int:
    """Action-word study: single-step decoders trained per epsilon in
    {0, 0.1, 0.4}; reports precision/recall/F1 and unique-word counts."""
    train_config = _train_config(args)
    prepared = _load(args.data, SPLITS, args.arch == "ast-attendgru",
                     uses={**_TRAINING_USES, "test": "decodes it"})
    train, val, test = (_action_word_samples(split) for split in
                        (prepared.train, prepared.val, prepared.test))
    train_labels = [s.comment_tokens for s in train]
    specials = len(SPECIAL_TOKENS)
    label_vocab = build_token_vocabulary(
        train_labels, size=specials + len({word for [word] in train_labels}))
    configs = _arm_configs(args, prepared, label_vocab.size,
                           comment_len=3, epsilons=ACTIONWORD_EPSILONS)
    train_set, val_set, test_set = _encode(prepared, configs[0], label_vocab,
                                           train, val, test)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    gold = [word for [word] in test_set.references]
    rows = [["epsilon", "micro_precision", "micro_recall", "micro_f1",
             "macro_f1", "unique_predicted"]]
    for epsilon, ckpt, _ in _train_arms(configs, train_set, val_set,
                                        train_config):
        predicted = []
        for batch in trainer.row_slices(len(test_set), DECODE_CHUNK):
            code = test_set.code[batch]
            prefix = np.full((len(code), 1), START, dtype=np.int64)
            probs = models.forward_step(ckpt.model, code, test_set.ast[batch],
                                        prefix)[:, 0]
            predicted += [label_vocab.decode_id(specials + int(best))
                          for best in probs[:, specials:].argmax(axis=-1)]
        report = metrics.classification_report(gold, predicted)
        unique_predicted = len(set(predicted))
        _log(f"actionword eps={_fmt_eps(epsilon)} micro_f1 "
             f"{report.micro.f1:.4f} unique {unique_predicted}")
        rows.append([_fmt_eps(epsilon),
                     f"{report.micro.precision:.4f}",
                     f"{report.micro.recall:.4f}",
                     f"{report.micro.f1:.4f}", f"{report.macro.f1:.4f}",
                     unique_predicted])
    _write_table(rows, out_dir / "actionword.csv", out_dir / "actionword.md")
    print(render_table(rows, "csv"), end="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothsum",
        description="label-smoothing experiments for code summarization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="tokenize, filter, split, build vocabs")
    _add_common_flags(p, "raw corpus .jsonl")
    p.add_argument("--quantile", type=float, default=None,
                   help="keep samples above this code-length quantile")
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--src-vocab", type=int, default=300)
    p.add_argument("--tgt-vocab", type=int, default=300)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train one model")
    _add_common_flags(p, "prepared data directory")
    _add_model_flags(p)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="greedy-decode a split")
    _add_common_flags(p, "prepared data directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test",
                   choices=["train", "val", "test"])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("score", help="score a predictions file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("compare",
                       help="paired run with/without label smoothing")
    _add_common_flags(p, "prepared data directory")
    _add_model_flags(p)
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="smoothing for the treated arm, in (0, 1]")
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="epsilon grid x vocabulary sizes")
    _add_common_flags(p, "prepared data directory")
    _add_model_flags(p)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--vocab-sizes", default="300,1200")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diversity", help="word diversity of prediction files")
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--out", default=None,
                   help="table path; written with suffixes .csv and .md")
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("actionword",
                       help="action-word prediction study per epsilon")
    _add_common_flags(p, "prepared data directory")
    _add_model_flags(p)
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(func=cmd_actionword)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (DataError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
