"""Corpus ingestion: tokenization, vocabularies, project-wise splits,
length-quantile filtering and action-word labels.

Corpus files are UTF-8 JSON lines with fields id, project, code, comment
and an optional ast (s-expression). A prepared split directory contains
train/val/test.jsonl plus vocab.src.txt / vocab.tgt.txt / vocab.ast.txt,
one token per line (line number = index).
"""

import json
import math
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# _function_sexpr is the parser's entry for a source whose grammar tokens
# the caller has already found, so read_corpus_jsonl lexes each source once
from .astkit import _function_sexpr, grammar_tokens, sbt_counts, sbt_from_sexpr
from .errors import ConfigurationError, DataError, MiniParseError
from .rng import Rng
from .stemming import porter_stem

PAD, START, END, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<PAD>", "<START>", "<END>", "<UNK>")
_SPECIALS = frozenset(SPECIAL_TOKENS)

_SUBTOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")
_WORD_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_END_RE = re.compile(r"[.!?]")


@dataclass
class Sample:
    """One (code, comment) pair with project provenance."""

    id: str
    project: str
    code_tokens: list
    comment_tokens: list
    ast_text: str | None = None
    code_char_len: int = 0


def tokenize_code(raw: str) -> list:
    """camelCase/snake_case subtokens, lowercased; digit runs stay
    standalone tokens. No subtoken spans a character outside [A-Za-z0-9],
    so that splits the text first."""
    return _subtokens(grammar_tokens(raw), {})


def _subtokens(tokens, memo: dict) -> list:
    """tokenize_code of the text whose grammar_tokens are tokens: the
    lowercased subtokens of each token in turn. No subtoken crosses a
    token's edge, since a grammar token ends only at a character outside
    [A-Za-z0-9_] or between a digit run and a letter. memo maps each token
    seen so far to its subtokens, so equal subtokens share one string."""
    out = []
    for tok in tokens:
        subs = memo.get(tok)
        if subs is None:
            subs = memo[tok] = [sub.lower() for sub in _SUBTOKEN_RE.findall(tok)]
        out += subs
    return out


def tokenize_comment(raw: str) -> list:
    """First sentence only, lowercased, split on whitespace/punctuation."""
    match = _SENTENCE_END_RE.search(raw)
    first = raw[: match.start()] if match else raw
    return _WORD_RE.findall(first.lower())


@dataclass
class Vocabulary:
    """Token<->index map; indices 0-3 are PAD, START, END, UNK."""

    tokens: list
    index: dict = field(init=False)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    def encode_token(self, token: str) -> int:
        return self.index.get(token, UNK)

    def decode_id(self, idx: int) -> str:
        return self.tokens[idx]

    def write(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write("\n".join(self.tokens) + "\n")

    @classmethod
    def read(cls, path) -> "Vocabulary":
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"vocabulary file {path} is not UTF-8") from exc
        if lines[:len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
            raise DataError(f"vocabulary file {path} lacks the special tokens")
        first_line = {}
        for lineno, token in enumerate(lines, start=1):
            if not token:
                raise DataError(f"{path}:{lineno}: empty token")
            if token in first_line:
                raise DataError(f"{path}:{lineno}: token {token!r} repeats "
                                f"line {first_line[token]}")
            first_line[token] = lineno
        return cls(lines)


def build_vocabulary(samples: list, size: int, side: str) -> Vocabulary:
    """Specials plus the most frequent tokens of one side, size in all,
    ties broken lexicographically. The "ast" side counts the SBT streams
    of the samples that have an AST from the nodes of their s-expressions
    (astkit.sbt_counts), which read_corpus_jsonl has already checked."""
    if side == "source":
        return build_token_vocabulary((s.code_tokens for s in samples), size)
    if side == "target":
        return build_token_vocabulary((s.comment_tokens for s in samples),
                                      size)
    if side == "ast":
        return _ranked_vocabulary(
            sbt_counts(s.ast_text for s in samples if s.ast_text), size)
    raise ConfigurationError(f"unknown vocabulary side {side!r}")


def check_vocab_size(size: int) -> None:
    if size <= len(SPECIAL_TOKENS):
        raise ConfigurationError(f"vocabulary size {size} below minimum of "
                                 f"{len(SPECIAL_TOKENS) + 1}")


def build_token_vocabulary(token_lists, size: int) -> Vocabulary:
    """Vocabulary over arbitrary token sequences."""
    counts = Counter()
    for toks in token_lists:
        counts.update(toks)
    return _ranked_vocabulary(counts, size)


def _ranked_vocabulary(counts: Counter, size: int) -> Vocabulary:
    check_vocab_size(size)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    tokens = [t for t, _ in ranked[:size - len(SPECIAL_TOKENS)]]
    return Vocabulary(list(SPECIAL_TOKENS) + tokens)


def encode_sequence(tokens, vocab: Vocabulary, max_len: int,
                    add_markers: bool) -> list:
    """Map to ids (unknowns -> UNK), optionally wrap in START/END, truncate
    to max_len (END is kept at the final position) and pad with PAD."""
    if max_len < 2:
        raise ConfigurationError(f"max_len {max_len} must be >= 2")
    ids = [vocab.encode_token(t) for t in tokens]
    if add_markers:
        ids = [START] + ids + [END]
    if len(ids) > max_len:
        ids = ids[:max_len]
        if add_markers:
            ids[-1] = END
    return ids + [PAD] * (max_len - len(ids))


def check_ratios(ratios) -> None:
    """Split ratios: three positive fractions that sum to 1."""
    if len(ratios) != 3 or not all(r > 0 for r in ratios):  # rejects NaN
        raise ConfigurationError("ratios must be three positive fractions")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigurationError(f"ratios {ratios} do not sum to 1")


def split_by_project(samples: list, ratios, seed: int):
    """Partition whole projects into train/val/test.

    Projects are shuffled deterministically under the seed, then greedily
    assigned one by one to the split with the largest remaining
    sample-count deficit against its ratio target (ties go to the earlier
    split in train/val/test order). Should that leave a split empty, the
    projects are assigned again, largest first (ties in shuffled order),
    by the same rule over only the still-empty splits while any is left,
    so each split gets a project.
    """
    check_ratios(ratios)
    projects = sorted({s.project for s in samples})
    if len(projects) < 3:
        raise DataError(f"need at least 3 projects, got {len(projects)}")

    order = list(projects)
    Rng(seed).derive("project-split").shuffle(order)
    by_project = {p: [] for p in projects}
    for s in samples:
        by_project[s.project].append(s)

    def assign(order, fill_first: bool) -> list:
        deficits = [r * len(samples) for r in ratios]
        buckets = [[], [], []]
        for project in order:
            empty = fill_first and [i for i in range(3) if not buckets[i]]
            which = max(empty or range(3), key=lambda i: (deficits[i], -i))
            buckets[which].extend(by_project[project])
            deficits[which] -= len(by_project[project])
        return buckets

    buckets = assign(order, False)
    if not all(buckets):
        order.sort(key=lambda p: -len(by_project[p]))
        buckets = assign(order, True)
    return tuple(buckets)


def check_quantile(q: float) -> None:
    if not 0 < q < 1:
        raise ConfigurationError(f"quantile {q} must be in (0, 1)")


def filter_by_length_quantile(samples: list, q: float) -> list:
    """The samples whose code_char_len strictly exceeds the nearest-rank
    q-quantile of code_char_len over all of them."""
    check_quantile(q)
    if not samples:
        raise DataError("cannot take a quantile of an empty corpus")
    lengths = sorted(s.code_char_len for s in samples)
    rank = math.ceil(q * len(lengths))
    threshold = lengths[max(rank, 1) - 1]
    return [s for s in samples if s.code_char_len > threshold]


def extract_action_word(comment_tokens) -> str:
    if not comment_tokens:
        raise DataError("cannot extract an action word from an empty comment")
    return porter_stem(comment_tokens[0])


# ---------------------------------------------------------------------------
# file formats


@contextmanager
def atomic_write(path):
    """A UTF-8 text handle on a temporary file beside path, which replaces
    path when the block ends. If the block raises, the temporary file is
    removed and path keeps its previous contents (or stays absent)."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _require_utf8(text: str, what: str) -> None:
    """Refuse text holding a lone surrogate: a JSON escape such as
    \\ud800 spells one, but UTF-8, in which every output is written, cannot
    encode it. Callers skip ASCII text (str.isascii is O(1))."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{what} holds a lone surrogate") from exc


def token_list(rec, key: str) -> list:
    """A record's token field: a JSON list of UTF-8-encodable strings."""
    value = rec[key]
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a token list, got "
                        f"{type(value).__name__}")
    for i, token in enumerate(value):
        if not isinstance(token, str):
            raise TypeError(f"{key} token {i} must be a string, got "
                            f"{type(token).__name__}")
        if not token.isascii():
            _require_utf8(token, f"{key} token {i}")
    return value


def string_id(rec, key: str = "id") -> str:
    """A split or prediction record's id field (or, by the same rule, a
    split record's project): a string."""
    value = rec[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {type(value).__name__}")
    return value


def _char_count(rec) -> int:
    """A split record's code_char_len field: a non-negative integer, not a
    boolean."""
    value = rec["code_char_len"]
    if type(value) is not int:
        raise TypeError(f"code_char_len must be an integer, got "
                        f"{type(value).__name__}")
    if value < 0:
        raise ValueError(f"code_char_len must not be negative, got {value}")
    return value


def _raw_id(rec, key: str = "id") -> str:
    """A raw corpus record's id field (or, by the same rule, its project):
    a string, or an integer (not a boolean), which reads as its decimal
    text."""
    value = rec[key]
    if type(value) is int:
        return str(value)
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string or an integer, got "
                        f"{type(value).__name__}")
    return value


def read_jsonl(path, fields, make, kind: str) -> list:
    """make(record) for every non-blank line of a JSON-lines file.

    A line that is not UTF-8 JSON (nesting too deep included), a line that
    is not an object, a record lacking one of fields, a
    KeyError/TypeError/ValueError/OverflowError raised by make, or a made
    item whose id an earlier line's item holds becomes a DataError naming
    path:line. kind names the items in the last of these messages
    ("duplicate sample id 'x'").
    """
    out = []
    seen = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            for key in fields:
                if key not in rec:
                    raise DataError(f"{path}:{lineno}: missing field {key!r}")
            try:
                item = make(rec)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: bad record: {exc!r}") from exc
            if item.id in seen:
                raise DataError(f"{path}:{lineno}: duplicate {kind} id "
                                f"{item.id!r}")
            seen.add(item.id)
            out.append(item)
    return out


def _ast_field(rec) -> str | None:
    """A record's optional ast field: an s-expression string or null."""
    value = rec.get("ast")
    if value is not None and not isinstance(value, str):
        raise TypeError(f"ast must be a string or null, got "
                        f"{type(value).__name__}")
    if value is not None and not value.isascii():
        _require_utf8(value, "ast")
    return value


def sbt_tokens_for_sample(sample) -> list:
    if not sample.ast_text:
        raise DataError(f"sample {sample.id!r} has no AST")
    try:
        return sbt_from_sexpr(sample.ast_text)
    except MiniParseError as exc:
        raise DataError(f"sample {sample.id!r} has an invalid AST: {exc}") \
            from exc


def read_corpus_jsonl(path) -> list:
    """The samples of a raw corpus file, tokenized. A given non-empty ast
    field must read as an s-expression with no special token for a label,
    whichever split its record lands in. A sample with no ast field gets
    the s-expression the mini-language parser derives from its code, or
    none when the code does not parse. Each code is lexed once: its
    grammar tokens give its code tokens, and the parser's tokens wherever
    the parser's fast path would find them."""
    memo = {}

    def make(rec):
        ast_text = _ast_field(rec)
        code = rec["code"]
        found = grammar_tokens(code)
        if ast_text is None:
            try:
                ast_text = _function_sexpr(code, found)
            except MiniParseError:
                pass
        elif ast_text:
            try:
                sbt = sbt_from_sexpr(ast_text)
            except MiniParseError as exc:
                raise ValueError(f"invalid ast: {exc}") from exc
            # such a label would repeat a special token in vocab.ast.txt
            reserved = "<" in ast_text and _SPECIALS.intersection(sbt)
            if reserved:
                raise ValueError(f"ast label {min(reserved)!r} is a special "
                                 "token")
        return Sample(
            id=_raw_id(rec),
            project=_raw_id(rec, "project"),
            code_tokens=_subtokens(found, memo),
            comment_tokens=tokenize_comment(rec["comment"]),
            ast_text=ast_text,
            code_char_len=len(code),
        )

    return read_jsonl(path, ("id", "project", "code", "comment"), make,
                      "sample")


def _sample_to_record(s: Sample) -> dict:
    return {
        "id": s.id,
        "project": s.project,
        "code_tokens": s.code_tokens,
        "comment_tokens": s.comment_tokens,
        "ast": s.ast_text,
        "code_char_len": s.code_char_len,
    }


# json.dumps(..., sort_keys=True) would build a new encoder per record
_SPLIT_ENCODER = json.JSONEncoder(sort_keys=True)


def write_split_jsonl(samples: list, path) -> None:
    with atomic_write(path) as fh:
        for s in samples:
            fh.write(_SPLIT_ENCODER.encode(_sample_to_record(s)) + "\n")


def read_split_jsonl(path) -> list:
    def make(rec):
        return Sample(
            id=string_id(rec),
            project=string_id(rec, "project"),
            code_tokens=token_list(rec, "code_tokens"),
            comment_tokens=token_list(rec, "comment_tokens"),
            ast_text=_ast_field(rec),
            code_char_len=_char_count(rec),
        )

    return read_jsonl(path, ("id", "project", "code_tokens", "comment_tokens",
                             "code_char_len"), make, "sample")


SPLITS = ("train", "val", "test")
VOCAB_FILES = ("vocab.src.txt", "vocab.tgt.txt", "vocab.ast.txt")


@dataclass
class PreparedData:
    """Contents of a prepared split directory, each split a list of
    samples; a split that was not loaded is None."""

    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    ast_vocab: Vocabulary
    train: list | None = None
    val: list | None = None
    test: list | None = None


def write_prepared_dir(directory, train: list, val: list, test: list,
                       src_vocab: Vocabulary, tgt_vocab: Vocabulary,
                       ast_vocab: Vocabulary) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for split, samples in zip(SPLITS, (train, val, test)):
        write_split_jsonl(samples, directory / f"{split}.jsonl")
    for name, vocab in zip(VOCAB_FILES, (src_vocab, tgt_vocab, ast_vocab)):
        vocab.write(directory / name)


def load_prepared_dir(directory, splits=SPLITS) -> PreparedData:
    """The three vocabularies plus the named splits of a prepared
    directory; each of those files must exist."""
    directory = Path(directory)
    for name in [f"{split}.jsonl" for split in splits] + list(VOCAB_FILES):
        if not (directory / name).exists():
            raise DataError(f"prepared directory {directory} missing {name}")
    return PreparedData(
        *(Vocabulary.read(directory / name) for name in VOCAB_FILES),
        **{split: read_split_jsonl(directory / f"{split}.jsonl")
           for split in splits},
    )
