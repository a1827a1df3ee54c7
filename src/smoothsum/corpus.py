"""Corpus ingestion: tokenization, vocabularies, project-wise splits,
length-quantile filtering and action-word labels.

Corpus files are UTF-8 JSON lines with fields id, project, code, comment
and an optional ast (s-expression). A prepared split directory contains
train/val/test.jsonl plus vocab.src.txt / vocab.tgt.txt / vocab.ast.txt,
one token per line (line number = index).
"""

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .astkit import import_sexpr, parse_mini_function, render_sexpr
from .errors import ConfigurationError, DataError, MiniParseError
from .rng import Rng
from .stemming import porter_stem

PAD, START, END, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<PAD>", "<START>", "<END>", "<UNK>")

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


@dataclass
class Corpus:
    samples: list
    split_tag: str = "unsplit"

    def __post_init__(self):
        seen = set()
        for s in self.samples:
            if s.id in seen:
                raise DataError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)

    def __len__(self):
        return len(self.samples)

    def projects(self) -> list:
        return sorted({s.project for s in self.samples})


def tokenize_code(raw: str) -> list:
    """Split on non-alphanumerics, then camelCase/snake_case subtokens;
    lowercase everything, digit runs stay standalone tokens."""
    tokens = []
    for piece in re.split(r"[^A-Za-z0-9]+", raw):
        for sub in _SUBTOKEN_RE.findall(piece):
            tokens.append(sub.lower())
    return tokens


def tokenize_comment(raw: str) -> list:
    """First sentence only, lowercased, split on whitespace/punctuation."""
    match = _SENTENCE_END_RE.search(raw)
    first = raw[: match.start()] if match else raw
    return _WORD_RE.findall(first.lower())


@dataclass
class Vocabulary:
    """Token<->index map; indices 0-3 are PAD, START, END, UNK."""

    tokens: list
    index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {t: i for i, t in enumerate(self.tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    def encode_token(self, token: str) -> int:
        return self.index.get(token, UNK)

    def decode_id(self, idx: int) -> str:
        return self.tokens[idx]

    def write(self, path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def read(cls, path) -> "Vocabulary":
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"vocabulary file {path} is not UTF-8") from exc
        if lines[:4] != list(SPECIAL_TOKENS):
            raise DataError(f"vocabulary file {path} lacks the special tokens")
        return cls(lines)


def build_vocabulary(corpus: Corpus, size: int, side: str) -> Vocabulary:
    """Specials plus the (size - 4) most frequent tokens of one side,
    ties broken lexicographically."""
    if side not in ("source", "target"):
        raise ConfigurationError(f"unknown vocabulary side {side!r}")
    return build_token_vocabulary(
        (s.code_tokens if side == "source" else s.comment_tokens
         for s in corpus.samples), size)


def build_token_vocabulary(token_lists, size: int) -> Vocabulary:
    """Vocabulary over arbitrary token sequences (used for SBT streams)."""
    if size < 5:
        raise ConfigurationError(f"vocabulary size {size} below minimum of 5")
    counts = Counter()
    for toks in token_lists:
        counts.update(toks)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    tokens = list(SPECIAL_TOKENS) + [t for t, _ in ranked[: size - 4]]
    return Vocabulary(tokens)


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


def split_by_project(corpus: Corpus, ratios, seed: int):
    """Partition whole projects into train/val/test.

    Projects are shuffled deterministically under the seed, then greedily
    assigned one by one to the split with the largest remaining
    sample-count deficit against its ratio target (ties go to the earlier
    split in train/val/test order).
    """
    if len(ratios) != 3 or not all(r > 0 for r in ratios):  # rejects NaN
        raise ConfigurationError("ratios must be three positive fractions")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigurationError(f"ratios {ratios} do not sum to 1")
    projects = corpus.projects()
    if len(projects) < 3:
        raise DataError(f"need at least 3 projects, got {len(projects)}")

    order = list(projects)
    Rng(seed).derive("project-split").shuffle(order)
    by_project = {p: [] for p in projects}
    for s in corpus.samples:
        by_project[s.project].append(s)

    total = len(corpus.samples)
    deficits = [r * total for r in ratios]
    buckets = [[], [], []]
    for project in order:
        which = max(range(3), key=lambda i: (deficits[i], -i))
        buckets[which].extend(by_project[project])
        deficits[which] -= len(by_project[project])

    tags = ("train", "val", "test")
    return tuple(Corpus(samples=b, split_tag=t) for b, t in zip(buckets, tags))


def filter_by_length_quantile(corpus: Corpus, q: float) -> Corpus:
    """Keep samples whose code_char_len strictly exceeds the nearest-rank
    q-quantile of code_char_len over the corpus."""
    if not 0 < q < 1:
        raise ConfigurationError(f"quantile {q} must be in (0, 1)")
    if not corpus.samples:
        raise DataError("cannot take a quantile of an empty corpus")
    lengths = sorted(s.code_char_len for s in corpus.samples)
    rank = math.ceil(q * len(lengths))
    threshold = lengths[max(rank, 1) - 1]
    kept = [s for s in corpus.samples if s.code_char_len > threshold]
    return Corpus(samples=kept, split_tag=corpus.split_tag)


def extract_action_word(comment_tokens) -> str:
    if not comment_tokens:
        raise DataError("cannot extract an action word from an empty comment")
    return porter_stem(comment_tokens[0])


# ---------------------------------------------------------------------------
# file formats


def token_list(value) -> list:
    """A record's token field: a JSON list, its items as strings."""
    if not isinstance(value, list):
        raise TypeError(f"expected a token list, got {type(value).__name__}")
    return [str(t) for t in value]


def read_jsonl(path, fields, make) -> list:
    """make(record) for every non-blank line of a JSON-lines file.

    A line that is not UTF-8 JSON (nesting too deep included), a line that
    is not an object, a record lacking one of fields, or a
    KeyError/TypeError/ValueError raised by make becomes a DataError naming
    path:line.
    """
    out = []
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
                out.append(make(rec))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: bad record: {exc!r}") from exc
    return out


def _ast_field(rec) -> str | None:
    """A record's optional ast field: an s-expression string or null."""
    value = rec.get("ast")
    if value is not None and not isinstance(value, str):
        raise TypeError(f"ast must be a string or null, got "
                        f"{type(value).__name__}")
    return value


def read_corpus_jsonl(path) -> Corpus:
    """Read a raw corpus file and tokenize it. A given non-empty ast field
    must import as an s-expression, whichever split its record lands in.
    A sample with no ast field gets the s-expression the mini-language
    parser derives from its code, or none when the code does not parse."""
    def make(rec):
        ast_text = _ast_field(rec)
        if ast_text is None:
            try:
                ast_text = render_sexpr(parse_mini_function(rec["code"]))
            except MiniParseError:
                pass
        elif ast_text:
            try:
                import_sexpr(ast_text)
            except MiniParseError as exc:
                raise ValueError(f"invalid ast: {exc}") from exc
        return Sample(
            id=str(rec["id"]),
            project=str(rec["project"]),
            code_tokens=tokenize_code(rec["code"]),
            comment_tokens=tokenize_comment(rec["comment"]),
            ast_text=ast_text,
            code_char_len=len(rec["code"]),
        )

    return Corpus(samples=read_jsonl(
        path, ("id", "project", "code", "comment"), make))


def _sample_to_record(s: Sample) -> dict:
    return {
        "id": s.id,
        "project": s.project,
        "code_tokens": s.code_tokens,
        "comment_tokens": s.comment_tokens,
        "ast": s.ast_text,
        "code_char_len": s.code_char_len,
    }


def write_split_jsonl(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in corpus.samples:
            fh.write(json.dumps(_sample_to_record(s), sort_keys=True) + "\n")


def read_split_jsonl(path, split_tag: str) -> Corpus:
    def make(rec):
        return Sample(
            id=str(rec["id"]),
            project=str(rec["project"]),
            code_tokens=token_list(rec["code_tokens"]),
            comment_tokens=token_list(rec["comment_tokens"]),
            ast_text=_ast_field(rec),
            code_char_len=int(rec["code_char_len"]),
        )

    return Corpus(samples=read_jsonl(
        path, ("id", "project", "code_tokens", "comment_tokens",
               "code_char_len"), make), split_tag=split_tag)


SPLITS = ("train", "val", "test")


@dataclass
class PreparedData:
    """Contents of a prepared split directory; a split that was not loaded
    is None."""

    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    ast_vocab: Vocabulary | None = None
    train: Corpus | None = None
    val: Corpus | None = None
    test: Corpus | None = None


def write_prepared_dir(directory, train: Corpus, val: Corpus, test: Corpus,
                       src_vocab: Vocabulary, tgt_vocab: Vocabulary,
                       ast_vocab: Vocabulary | None = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_split_jsonl(train, directory / "train.jsonl")
    write_split_jsonl(val, directory / "val.jsonl")
    write_split_jsonl(test, directory / "test.jsonl")
    src_vocab.write(directory / "vocab.src.txt")
    tgt_vocab.write(directory / "vocab.tgt.txt")
    if ast_vocab is not None:
        ast_vocab.write(directory / "vocab.ast.txt")


def load_prepared_dir(directory, splits=SPLITS) -> PreparedData:
    """The vocabularies plus the named splits of a prepared directory."""
    directory = Path(directory)
    names = [f"{split}.jsonl" for split in splits]
    for name in names + ["vocab.src.txt", "vocab.tgt.txt"]:
        if not (directory / name).exists():
            raise DataError(f"prepared directory {directory} missing {name}")
    ast_path = directory / "vocab.ast.txt"
    return PreparedData(
        src_vocab=Vocabulary.read(directory / "vocab.src.txt"),
        tgt_vocab=Vocabulary.read(directory / "vocab.tgt.txt"),
        ast_vocab=Vocabulary.read(ast_path) if ast_path.exists() else None,
        **{split: read_split_jsonl(directory / f"{split}.jsonl", split)
           for split in splits},
    )
