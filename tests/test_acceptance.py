"""Acceptance suite: one test per release criterion, each printing its own
pass/fail line under pytest. Expected values come from hand-computed
oracles, closed forms, or brute-force enumeration; runtime budgets are
asserted where the criterion carries one.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from smoothsum import labcli
from smoothsum import metrics as X
from smoothsum import models as M
from smoothsum import trainer as TR
from smoothsum.astkit import enumerate_leaf_paths, node, sample_paths, sbt_flatten
from smoothsum.corpus import (END, PAD, START, Sample, build_vocabulary,
                              split_by_project)
from smoothsum.rng import Rng
from smoothsum.smoothing import loss_floor, smooth_targets
from smoothsum.synthetic import generate_samples, write_corpus_jsonl

from conftest import random_tree, samples_from_records
from test_astkit import brute_force_paths


# -------------------------------------------------------------------------
# criterion 1: smoothing exactness


def test_c1_smoothing_exactness_1000_random_triples():
    rng = Rng(101)
    started = time.perf_counter()
    for _ in range(1000):
        n = 2 + rng.randint(49999)
        y = rng.randint(n)
        eps = rng.random()
        probs = smooth_targets(y, n, eps).probs
        expected = np.full(n, eps / (n - 1))
        expected[y] = 1.0 - eps
        assert np.abs(probs - expected).max() < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-9
        if eps < (n - 1) / n:
            assert int(np.argmax(probs)) == y
    assert time.perf_counter() - started < 1.0


# -------------------------------------------------------------------------
# criterion 2: gradient fidelity


def test_c2_gradient_fidelity_all_architectures():
    started = time.perf_counter()
    code = np.array([[4, 5, 6, 0, 0], [7, 8, 9, 10, 0]])
    ast = np.array([[4, 5, 6, 7, 0, 0], [5, 6, 7, 8, 9, 0]])
    comments = np.array([[1, 4, 5, 2, 0], [1, 6, 7, 8, 2]])
    for arch in ("attendgru", "ast_attendgru", "transformer"):
        config = M.ModelConfig(arch=arch, src_vocab=12, tgt_vocab=11,
                               embed_dim=6, hidden_dim=6, code_len=5,
                               ast_len=6, comment_len=5, heads=2, layers=1,
                               dropout_rate=0.0, epsilon=0.1,
                               ast_vocab=12 if arch == "ast_attendgru" else 0)
        model = M.build_model(config, seed=3)
        ast_arg = ast if arch == "ast_attendgru" else None
        error = M.grad_check_model(model, code, ast_arg, comments)
        assert error < 1e-4, (arch, error)
    assert time.perf_counter() - started < 120.0


# -------------------------------------------------------------------------
# criterion 3: loss-floor law


def test_c3_loss_floor_law_single_sample_overfit():
    started = time.perf_counter()
    sample = Sample(id="s1", project="p",
                    code_tokens=["open", "file", "handle"],
                    comment_tokens=["opens", "the", "file", "handle"],
                    code_char_len=20)
    corpus = [sample]
    src_vocab = build_vocabulary(corpus, 20, "source")
    tgt_vocab = build_vocabulary(corpus, 20, "target")
    for eps in (0.0, 0.1, 0.4):
        config = M.ModelConfig("attendgru", src_vocab.size, tgt_vocab.size,
                               embed_dim=32, hidden_dim=32, code_len=8,
                               comment_len=8, dropout_rate=0.0, epsilon=eps)
        dataset = TR.encode_corpus(corpus, config, src_vocab, tgt_vocab)
        model = M.build_model(config, seed=1)
        train_config = TR.TrainConfig(epochs=300, batch_size=1,
                                      learning_rate=1e-3, seed=2)
        ckpt, history = TR.train(model, dataset, dataset, train_config)
        floor = loss_floor(eps, tgt_vocab.size)
        final = history.records[-1].loss_nats
        assert all(r.loss_nats >= floor - 1e-9 for r in history.records)
        if eps == 0.0:
            assert final < 0.05
            decoded = M.greedy_decode(ckpt.model, dataset.code[0:1], None)[0]
            tokens = [tgt_vocab.decode_id(i) for i in decoded
                      if i not in (PAD, START, END)]
            assert tokens == sample.comment_tokens
        else:
            assert final <= floor * 1.05
    assert time.perf_counter() - started < 60.0


# -------------------------------------------------------------------------
# criterion 4: metric oracles


def test_c4_bleu_worked_pair():
    preds = [X.PredictionRecord(
        "1", ["a", "b", "c", "d", "e"], ["a", "b", "c", "d"])]
    assert abs(X.corpus_bleu(preds) - 0.778801) < 1e-6


def test_c4_meteor_identical_three_tokens():
    assert abs(X.sentence_meteor(["a", "b", "c"], ["a", "b", "c"])
               - 0.981481) < 1e-6


def test_c4_meteor_stem_match_pair():
    # the exact pass aligns file<->file at (1, 1); the stem pass aligns
    # deleting<->deletes at (0, 0), both stemming to "delet". So m = 2,
    # P = R = F = 1, and the two adjacent pairs form one chunk:
    # 1 - 0.5*(1/2)^3 = 0.9375, the identical two-token sentence's score
    score = X.sentence_meteor(["deleting", "file"], ["deletes", "file"])
    identical = X.sentence_meteor(["a", "b"], ["a", "b"])
    assert abs(score - identical) < 1e-12
    assert abs(score - 0.9375) < 1e-6


def test_c4_paired_t_test_worked_example():
    result = X.paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert abs(result.t_stat - 3.464102) < 1e-6
    assert abs(result.p_value - 0.074180) < 1e-6


def test_c4_student_t_normal_limit():
    assert abs(X.student_t_two_sided_p(1.96, 10 ** 6) - 0.05) < 1e-3


# -------------------------------------------------------------------------
# criterion 5: flattening and path oracles


def test_c5_sbt_flatten_two_child_tree():
    tree = node("a", node("b"), node("c"))
    assert sbt_flatten(tree) == ["(", "a", "(", "b", ")", "b",
                                 "(", "c", ")", "c", ")", "a"]


def test_c5_path_enumeration_matches_brute_force():
    rng = Rng(55)
    for _ in range(100):
        tree = random_tree(rng, 20)
        for max_len in (3, 6, 8, 15):
            assert enumerate_leaf_paths(tree, max_len) == \
                brute_force_paths(tree, max_len)


def test_c5_sampling_returns_everything_when_small():
    tree = node("root", node("x"), node("y"), node("z"))
    paths = enumerate_leaf_paths(tree, 8)
    assert len(paths) == 3
    assert sample_paths(paths, k=100, seed=9) == paths


# -------------------------------------------------------------------------
# criterion 6: overfit capability


def test_c6_sixty_four_pair_memorization():
    started = time.perf_counter()
    records = generate_samples(64, seed=11, unique_pairs=True)
    corpus = samples_from_records(records)
    src_vocab = build_vocabulary(corpus, 300, "source")
    tgt_vocab = build_vocabulary(corpus, 300, "target")
    config = M.ModelConfig("attendgru", src_vocab.size, tgt_vocab.size,
                           embed_dim=64, hidden_dim=64, code_len=30,
                           comment_len=8, dropout_rate=0.0, epsilon=0.0)
    dataset = TR.encode_corpus(corpus, config, src_vocab, tgt_vocab)
    model = M.build_model(config, seed=3)
    train_config = TR.TrainConfig(epochs=200, batch_size=16,
                                  learning_rate=1e-3, seed=4)
    ckpt, _ = TR.train(model, dataset, dataset, train_config)
    exact = 0
    for i in range(len(dataset)):
        decoded = M.greedy_decode(ckpt.model, dataset.code[i:i + 1], None)[0]
        tokens = [tgt_vocab.decode_id(t) for t in decoded
                  if t not in (PAD, START, END)]
        exact += tokens == dataset.references[i]
    assert exact / len(dataset) >= 0.95
    assert time.perf_counter() - started < 300.0


# -------------------------------------------------------------------------
# criterion 7: directional diversity reproduction


def test_c7_smoothing_reduces_unique_words():
    started = time.perf_counter()
    corpus = samples_from_records(generate_samples(700, seed=21))
    train, val, test = split_by_project(corpus, (0.8, 0.1, 0.1), seed=5)
    assert len(train) >= 500
    src_vocab = build_vocabulary(train, 300, "source")
    tgt_vocab = build_vocabulary(train, 300, "target")

    def run(eps, seed):
        config = M.ModelConfig("attendgru", src_vocab.size, tgt_vocab.size,
                               embed_dim=64, hidden_dim=64, code_len=30,
                               comment_len=8, dropout_rate=0.0, epsilon=eps)
        train_set = TR.encode_corpus(train, config, src_vocab, tgt_vocab)
        val_set = TR.encode_corpus(val, config, src_vocab, tgt_vocab)
        test_set = TR.encode_corpus(test, config, src_vocab, tgt_vocab)
        model = M.build_model(config, seed=seed)
        train_config = TR.TrainConfig(epochs=20, batch_size=32,
                                      learning_rate=2e-3, seed=seed)
        ckpt, _ = TR.train(model, train_set, val_set, train_config)
        records = []
        for i in range(len(test_set)):
            decoded = M.greedy_decode(ckpt.model, test_set.code[i:i + 1],
                                      None)[0]
            records.append(X.PredictionRecord(
                test_set.sample_ids[i], test_set.references[i],
                [tgt_vocab.decode_id(t) for t in decoded
                 if t not in (PAD, START, END)]))
        report = X.diversity_report(records)
        return report.unique_words, report.total_words

    unique_plain, unique_smooth, total_plain, total_smooth = [], [], [], []
    for seed in (1, 2, 3, 4, 5):
        u0, t0 = run(0.0, seed)
        u4, t4 = run(0.4, seed)
        unique_plain.append(u0)
        unique_smooth.append(u4)
        total_plain.append(t0)
        total_smooth.append(t4)
    assert np.median(unique_smooth) <= np.median(unique_plain), (
        unique_plain, unique_smooth)
    total_a, total_b = np.median(total_plain), np.median(total_smooth)
    assert abs(total_a - total_b) / total_a < 0.20
    assert time.perf_counter() - started < 1800.0


# -------------------------------------------------------------------------
# criteria 8 and 9: protocol fidelity and end-to-end determinism


FAST_MODEL = ["--embed-dim", "16", "--hidden-dim", "16", "--code-len", "20",
              "--comment-len", "8", "--batch-size", "32", "--lr", "2e-3",
              "--dropout", "0", "--heads", "2", "--layers", "1"]


def _tree_digest(directory):
    digest = {}
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            digest[str(path.relative_to(directory))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digest


def test_c8_sweep_protocol_fidelity(tmp_path):
    raw = tmp_path / "toy.jsonl"
    write_corpus_jsonl(generate_samples(130, seed=5), raw)
    prep = tmp_path / "prep"
    assert labcli.main(["prepare", "--data", str(raw), "--out", str(prep),
                        "--seed", "11"]) == 0
    digests = []
    for attempt in ("one", "two"):
        out = tmp_path / f"sweep_{attempt}"
        code = labcli.main(["sweep", "--data", str(prep), "--out", str(out),
                            "--seed", "3", "--epochs", "1",
                            "--vocab-sizes", "60,150", *FAST_MODEL])
        assert code == 0
        for size in (60, 150):
            lines = (out / f"sweep_v{size}.csv").read_text().splitlines()
            assert len(lines) == 10  # header + 9 epsilon rows
            eps_column = [line.split(",")[0] for line in lines[1:]]
            assert eps_column == ["0", "0.001", "0.003", "0.007", "0.02",
                                  "0.05", "0.1", "0.25", "0.4"]
            for line in lines[1:]:
                cells = line.split(",")
                t_p_cells = cells[4:]
                if cells[0] == "0":
                    assert t_p_cells == ["-", "-", "-", "-"]
                else:
                    assert "-" not in t_p_cells
                    for p_cell in (t_p_cells[1], t_p_cells[3]):
                        assert p_cell == "<0.01" or (
                            len(p_cell.split(".")[-1]) == 2
                            and float(p_cell) >= 0.01)
        digests.append(_tree_digest(out))
    assert digests[0] == digests[1]


def test_c8_p_value_formatting_rule():
    row = labcli.ReportRow(
        epsilon=0.1, scores={"meteor": 0.3, "similarity": 0.5, "bleu": 0.2},
        comparisons={
            "meteor": X.ComparisonResult("meteor", 3.0, 0.0042, 0.05, True),
            "similarity": X.ComparisonResult("similarity", 1.0, 0.074, 0.05,
                                             False),
        })
    cells = labcli.render_report(
        labcli.ReportTable("t", [row]), "csv").splitlines()[1].split(",")
    assert cells[5] == "<0.01"
    assert cells[7] == "0.07"


def test_c9_end_to_end_determinism(tmp_path):
    raw = tmp_path / "toy.jsonl"
    write_corpus_jsonl(generate_samples(130, seed=5), raw)
    digests = []
    for attempt in ("one", "two"):
        base = tmp_path / attempt
        prep = base / "prep"
        pair = base / "pair"
        assert labcli.main(["prepare", "--data", str(raw), "--out",
                            str(prep), "--seed", "11"]) == 0
        assert labcli.main(["compare", "--data", str(prep), "--out",
                            str(pair), "--seed", "3", "--epochs", "2",
                            *FAST_MODEL]) == 0
        for tag in ("eps0", "eps0p1"):
            assert labcli.main(["score", "--predictions",
                                str(pair / f"predictions_{tag}.jsonl"),
                                "--out", str(pair / f"scores_{tag}")]) == 0
        digests.append(_tree_digest(base))
    assert digests[0] == digests[1]
