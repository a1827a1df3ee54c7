"""Output checks, each computed apart from the program from the
generator's ground truth. Every check is a property of correct output,
not a stored copy of today's output.

Each check function returns None when the output is correct and a
one-line description of the first discrepancy otherwise.
"""

import csv
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

SPECIALS = ["<PAD>", "<START>", "<END>", "<UNK>"]
PAD, START, END = 0, 1, 2
AST_KINDS = ("if", "while", "call", "return")

# A decoded id may differ from the teacher-forced argmax only when its
# probability is within this distance of the maximum (a near-tie whose
# order batched and single-sample BLAS calls may resolve differently).
ARGMAX_MARGIN = 1e-9
BLEU_TOLERANCE = 1e-12
SCORE_TOLERANCE = 1e-12


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_vocab(path) -> list:
    return Path(path).read_text(encoding="utf-8").splitlines()


def loss_floor(epsilon: float, vocab: int) -> float:
    """Entropy of the smoothed target, -(1-e)ln(1-e) - e ln(e/(V-1))."""
    if epsilon == 0.0:
        return 0.0
    return (-(1.0 - epsilon) * math.log(1.0 - epsilon)
            - epsilon * math.log(epsilon / (vocab - 1)))


def target_tokens(words: list, comment_len: int) -> int:
    """Non-PAD targets of one START/words/END row truncated to comment_len."""
    return min(len(words) + 1, comment_len - 1)


# ---------------------------------------------------------------------------
# corpus and splits


def splits_partition(splits: dict, functions: list):
    projects = {f.id: f.project for f in functions}
    seen = {}
    home = {}
    for name, records in splits.items():
        for rec in records:
            if rec["id"] in seen:
                return f"id {rec['id']} in both {seen[rec['id']]} and {name}"
            seen[rec["id"]] = name
            if projects.get(rec["id"]) != rec["project"]:
                return f"id {rec['id']} has project {rec['project']}"
            if home.setdefault(rec["project"], name) != name:
                return f"project {rec['project']} spans {home[rec['project']]} and {name}"
    if set(seen) != set(projects):
        return f"splits hold {len(seen)} of {len(projects)} ids"
    return None


def comment_tokens(splits: dict, truth: dict):
    for records in splits.values():
        for rec in records:
            if rec["comment_tokens"] != truth[rec["id"]].words:
                return f"id {rec['id']}: {rec['comment_tokens']} != {truth[rec['id']].words}"
    return None


def vocab_specials(prepared: Path):
    for name in ("vocab.src.txt", "vocab.tgt.txt", "vocab.ast.txt"):
        if read_vocab(prepared / name)[:4] != SPECIALS:
            return f"{name} does not begin with {SPECIALS}"
    return None


def target_ranking(prepared: Path, train: list, truth: dict, size: int):
    counts = Counter()
    for rec in train:
        counts.update(truth[rec["id"]].words)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    expected = SPECIALS + [t for t, _ in ranked[: size - 4]]
    got = read_vocab(prepared / "vocab.tgt.txt")
    if got != expected:
        first = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                     min(len(got), len(expected)))
        return f"target vocabulary differs from the ranking at line {first + 1}"
    return None


# A node of one of the counted kinds: its label right after "(", followed
# by a child or the closing parenthesis. The generator never names an
# identifier with one of these words or a word that starts with one.
_AST_NODE_RE = re.compile(r"\((if|while|call|return)[ )]")


def ast_counts(splits: dict, truth: dict):
    for records in splits.values():
        for rec in records:
            if not rec.get("ast"):
                return f"id {rec['id']} has no derived AST"
            labels = Counter(_AST_NODE_RE.findall(rec["ast"]))
            got = {k: labels[k] for k in AST_KINDS}
            if got != truth[rec["id"]].counts:
                return f"id {rec['id']}: AST counts {got} != {truth[rec['id']].counts}"
    return None


# ---------------------------------------------------------------------------
# training


def read_history(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [{"epoch": int(r["epoch"]), "loss": float(r["loss_nats"]),
                 "val_acc": float(r["val_acc"])} for r in csv.DictReader(fh)]


def loss_above_floor(history: list, epsilon: float, vocab: int, epochs: int):
    floor = loss_floor(epsilon, vocab)
    if [r["epoch"] for r in history] != list(range(1, epochs + 1)):
        return f"history epochs {[r['epoch'] for r in history]}"
    for r in history:
        if not math.isfinite(r["loss"]) or r["loss"] < floor:
            return f"epoch {r['epoch']} loss {r['loss']!r} below floor {floor!r}"
    return None


def checkpoint_epoch(history: list, checkpoint: dict):
    best = max(r["val_acc"] for r in history)
    earliest = min(r["epoch"] for r in history if r["val_acc"] == best)
    if checkpoint["epoch"] != earliest:
        return f"checkpoint epoch {checkpoint['epoch']}, best is {earliest}"
    return None


# ---------------------------------------------------------------------------
# decoding


def prediction_ids(preds: list, split: list):
    ids = [p["id"] for p in preds]
    if len(ids) != len(set(ids)) or set(ids) != {r["id"] for r in split}:
        return f"{len(ids)} records for {len(split)} split ids"
    return None


def references(preds: list, truth: dict, comment_len: int):
    for p in preds:
        want = truth[p["id"]].words[: comment_len - 2]
        if p["ref"] != want:
            return f"id {p['id']}: ref {p['ref']} != {want}"
    return None


def predicted_in_vocab(preds: list, vocab: list):
    known = set(vocab)
    for p in preds:
        unknown = [t for t in p["pred"] if t not in known]
        if unknown:
            return f"id {p['id']}: tokens {unknown} outside the target vocabulary"
    return None


def greedy_argmax(preds, split, vocab, model, forward_step, code, max_len):
    """Every decoded id must be the lowest-index argmax of the
    teacher-forced distribution given its decoded prefix.

    The decoded ids are the record's tokens followed by END, unless the
    record fills the length cap. One batched teacher-forced pass over those
    ids gives every step's distribution (the decoders are causal). PAD and
    START are dropped from prediction records, so a sample whose check
    fails where the argmax is PAD or START is replayed step by step, taking
    such a clear argmax as a hidden decoded id. Returns (error or None,
    near-tie count)."""
    index = {t: i for i, t in enumerate(vocab)}
    by_id = {p["id"]: p for p in preds}
    order = [r["id"] for r in split]
    decoded = []
    for sample_id in order:
        ids = [index[t] for t in by_id[sample_id]["pred"]]
        decoded.append(ids + [END] if len(ids) < max_len else ids)
    width = max(len(ids) for ids in decoded)
    prefix = np.full((len(order), width), PAD, dtype=np.int64)
    prefix[:, 0] = START
    for row, ids in enumerate(decoded):
        prefix[row, 1:len(ids)] = ids[:-1]
    probs = forward_step(model, code, None, prefix)
    near_ties = 0
    for row, ids in enumerate(decoded):
        hidden_token = False
        for step, want in enumerate(ids):
            p = probs[row, step]
            top = int(np.argmax(p))
            if p[want] >= p[top] - ARGMAX_MARGIN:
                near_ties += want != top
            elif top in (PAD, START):
                hidden_token = True
                break
            else:
                return (f"id {order[row]} step {step}: decoded {want} but argmax "
                        f"{top} leads by {p[top] - p[want]:.3g}"), near_ties
        if hidden_token:
            error, ties = _replay(by_id[order[row]]["pred"], index, model,
                                  forward_step, code[row:row + 1], max_len)
            near_ties += ties
            if error:
                return f"id {order[row]}: {error}", near_ties
    return None, near_ties


def _replay(tokens, index, model, forward_step, code, max_len):
    """Step-by-step replay of one decode whose record hides PAD or START."""
    content = [index[t] for t in tokens]
    prefix = [START]
    cursor = near_ties = 0
    for step in range(max_len):
        p = forward_step(model, code, None, np.array([prefix]))[0, -1]
        top = int(np.argmax(p))
        want = content[cursor] if cursor < len(content) else END
        if p[want] >= p[top] - ARGMAX_MARGIN:
            near_ties += want != top
            if want == END:
                return None, near_ties
            cursor += 1
            prefix.append(want)
        elif top in (PAD, START):
            prefix.append(top)
        else:
            return f"step {step}: decoded {want} but argmax is {top}", near_ties
    if cursor != len(content):
        return "record longer than the decode", near_ties
    return None, near_ties


# ---------------------------------------------------------------------------
# scoring


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(pairs) -> float:
    """BLEU-4, uniform weights, clipped counts pooled over the corpus,
    brevity penalty min(1, exp(1 - r/c)); zero if any order has no match."""
    clipped, totals = [0] * 4, [0] * 4
    cand_len = ref_len = 0
    for ref, pred in pairs:
        cand_len += len(pred)
        ref_len += len(ref)
        for n in range(1, 5):
            p, r = _ngrams(pred, n), _ngrams(ref, n)
            totals[n - 1] += sum(p.values())
            clipped[n - 1] += sum(min(c, r[g]) for g, c in p.items())
    if cand_len == 0 or not all(totals) or not all(clipped):
        return 0.0
    log_p = sum(math.log(c / t) for c, t in zip(clipped, totals)) / 4
    return min(1.0, math.exp(1.0 - ref_len / cand_len)) * math.exp(log_p)


def meteor_closed_form(edit: str, n: int) -> float:
    """METEOR of an edited n-token reference of distinct tokens:
    F = 10PR/(R+9P), penalty 0.5 (chunks/m)^3."""
    if edit in ("identical", "stem-variant"):
        return 1.0 - 0.5 / n ** 3
    if edit == "drop-last":
        p, r = 1.0, (n - 1) / n
        return 10 * p * r / (r + 9 * p) * (1.0 - 0.5 / (n - 1) ** 3)
    if edit == "reversed":
        return 0.5
    if edit == "disjoint":
        return 0.0
    raise ValueError(edit)


def bleu_matches(scores: dict, want: float):
    if abs(scores["bleu"] - want) > BLEU_TOLERANCE:
        return f"BLEU {scores['bleu']!r} != {want!r}"
    return None


def meteor_forms(scores: dict, rows):
    """rows: (edit or None, ref, pred) in file order; None for a model
    prediction, whose only closed form is the identical one."""
    got = scores["meteor_per_sentence"]
    if len(got) != len(rows):
        return f"{len(got)} METEOR scores for {len(rows)} records"
    for value, (edit, ref, pred) in zip(got, rows):
        if edit is None:
            edit = "identical" if pred == ref else None
        if not 0.0 <= value <= 1.0:
            return f"METEOR {value!r} outside [0, 1]"
        if edit is None or len(set(ref)) != len(ref) or len(ref) < 2:
            continue
        want = meteor_closed_form(edit, len(ref))
        if abs(value - want) > SCORE_TOLERANCE:
            return f"{edit} {ref}: METEOR {value!r} != {want!r}"
    return None


def similarity_bounds(scores: dict, rows):
    got = scores["similarity_per_sentence"]
    if len(got) != len(rows):
        return f"{len(got)} similarities for {len(rows)} records"
    for value, (edit, ref, pred) in zip(got, rows):
        if not 0.0 <= value <= 1.0:
            return f"similarity {value!r} outside [0, 1]"
        if (pred == ref or edit == "reversed") and abs(value - 1.0) > SCORE_TOLERANCE:
            return f"{edit or 'model'} {ref}: similarity {value!r} != 1"
    return None


def diversity_counts(csv_path, prediction_files):
    with open(csv_path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(prediction_files):
        return f"{len(rows)} diversity rows for {len(prediction_files)} files"
    base = None
    for row, path in zip(rows, prediction_files):
        counts = Counter(t for rec in read_jsonl(path) for t in rec["pred"]
                         if t not in SPECIALS[:3])
        total, unique = sum(counts.values()), len(counts)
        base = base or (total, unique)
        want = {"total_words": total, "unique_words": unique,
                "delta_total": total - base[0], "delta_unique": unique - base[1]}
        got = {k: int(row[k]) for k in want}
        if got != want:
            return f"{path}: diversity {got} != {want}"
        avg = total / unique if unique else 0.0
        if row["avg_frequency"] != f"{avg:.4f}":
            return f"{path}: avg_frequency {row['avg_frequency']} != {avg:.4f}"
    return None
