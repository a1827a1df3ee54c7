"""Seeded input generator for the benchmark workloads.

It is independent of ``smoothsum`` (in particular of ``smoothsum.synthetic``)
so that a change to the program cannot change the inputs, and it returns
the ground truth the output checks need: every comment's words and, per
function, how many ``if``, ``while``, ``call`` and ``return`` nodes it holds.

Every corpus is split into projects of exactly ``PROJECT_SIZE`` samples, so
the program's project-wise split gives the same split sizes on every seed.
"""

import json
import random
from dataclasses import dataclass, field

PROJECT_SIZE = 10

# Verbs whose "-s" and "-ing" forms share a Porter stem (checked by hand
# against the published algorithm: no step-1b "e" restoration applies).
VERB_BASES = [
    "connect", "insert", "convert", "collect", "select", "detect", "extract",
    "render", "append", "attach", "detach", "export", "launch", "mount",
    "reject", "refresh", "sort", "start", "test", "track", "warn", "check",
    "fetch", "flush", "load", "lock", "match", "post", "push", "read",
    "seek", "send", "sign", "stream", "switch", "touch", "unlock", "unpack",
    "watch", "build", "claim", "count", "drain", "dump", "emit", "expand",
    "filter", "find", "grant", "hold", "join", "list", "mark", "pick",
    "poll", "reset", "show", "spawn", "stall", "tick", "turn", "wait",
    "walk", "pack", "paint", "pull", "record", "remind", "report",
    "request", "restart", "revert", "shift", "spell", "stamp",
]

NOUNS = [
    "file", "list", "value", "index", "buffer", "cache", "node", "token",
    "record", "stream", "table", "entry", "queue", "stack", "graph", "tree",
    "map", "key", "path", "state", "flag", "result", "config", "handle",
    "block", "chunk", "field", "label", "score", "widget", "frame", "socket",
    "packet", "header", "window", "column", "cursor", "session", "channel",
    "matrix", "vector", "pixel", "sample", "target", "source", "parser",
    "module", "thread", "worker", "signal",
]

MODIFIERS = [
    "quietly", "twice", "eagerly", "lazily", "safely", "quickly", "slowly",
    "atomically", "neatly", "remotely", "locally", "globally", "partially",
    "fully", "cleanly", "silently", "repeatedly", "once", "carefully",
    "randomly", "strictly", "tightly", "deeply", "widely", "rarely", "often",
    "early", "late", "upstream", "downstream", "first", "last", "again",
    "inline", "offline", "online", "manually", "directly", "briefly",
    "freely", "gently", "loosely", "openly", "plainly", "proudly", "rapidly",
    "smoothly", "softly", "sharply", "boldly",
]

CALLEES = ["log", "emit", "update", "notify", "flushall", "retain",
           "release", "mark", "trace", "commit"]

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _syllable_words(count: int, first: str = "") -> list:
    """``count`` distinct three-syllable pseudo-words, the same list on
    every call. Words of one ``first`` letter never share a Porter stem
    with words of another, because Porter only strips suffixes."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    combos = [a + b + c for a in syllables for b in syllables
              for c in syllables]
    random.Random(f"lexicon:{first}").shuffle(combos)
    return [first + w for w in combos[:count]]


WIDE_LEXICON = _syllable_words(5000)
DISJOINT_LEXICON = _syllable_words(400, first="x")  # no "x" anywhere else


@dataclass
class Function:
    """One generated sample and its ground truth."""

    id: str
    project: str
    code: str
    words: list
    counts: dict = field(default_factory=dict)

    def record(self) -> dict:
        return {"id": self.id, "project": self.project, "code": self.code,
                "comment": " ".join(self.words) + "."}


def _zipf_weights(n: int, s: float) -> list:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


class _CodeWriter:
    """Random mini-language function bodies with counted node kinds."""

    def __init__(self, rng: random.Random, max_statements: int,
                 max_depth: int):
        self.rng = rng
        self.max_statements = max_statements
        self.max_depth = max_depth

    def expr(self, names, depth=0) -> str:
        r = self.rng.random()
        if depth >= 2 or r < 0.45:
            return self.rng.choice(names)
        if r < 0.6:
            return str(self.rng.randint(1, 99))
        op = self.rng.choice("+-*/")
        left, right = self.expr(names, depth + 1), self.expr(names, depth + 1)
        if self.rng.random() < 0.3:
            return f"({left} {op} {right})"
        return f"{left} {op} {right}"

    def block(self, names, counts, depth, n_statements) -> list:
        out = []
        for _ in range(n_statements):
            kinds = ["decl", "assign", "call"]
            if depth < self.max_depth:
                kinds += ["if", "while"]
            kind = self.rng.choice(kinds)
            if kind == "decl":
                var = f"v{len(names)}"
                out.append(f"int {var} = {self.expr(names)};")
                names = names + [var]
            elif kind == "assign":
                out.append(f"{self.rng.choice(names)} = {self.expr(names)};")
            elif kind == "call":
                counts["call"] += 1
                args = ", ".join(self.expr(names)
                                 for _ in range(self.rng.randint(0, 2)))
                out.append(f"{self.rng.choice(CALLEES)}({args});")
            else:
                counts[kind] += 1
                inner = self.block(names, counts, depth + 1,
                                   self.rng.randint(1, 3))
                if self.rng.random() < 0.25:
                    counts["return"] += 1
                    inner.append(f"return {self.expr(names)};")
                text = f"{kind} ({self.expr(names)}) {{ {' '.join(inner)} }}"
                if kind == "if" and self.rng.random() < 0.4:
                    other = self.block(names, counts, depth + 1, 1)
                    text += f" else {{ {' '.join(other)} }}"
                out.append(text)
        return out

    def function(self, name: str, params: list) -> tuple:
        counts = {"if": 0, "while": 0, "call": 0, "return": 1}
        body = self.block(list(params), counts, 0,
                          self.rng.randint(2, self.max_statements))
        body.append(f"return {self.expr(list(params))};")
        header = ", ".join(f"int {p}" for p in params)
        return f"int {name}({header}) {{ {' '.join(body)} }}", counts


def _camel(*words) -> str:
    return words[0] + "".join(w.capitalize() for w in words[1:])


def _corpus(rng: random.Random, n_samples: int, writer: _CodeWriter,
            comment_fn) -> list:
    functions = []
    for i in range(n_samples):
        words, ident_words = comment_fn(rng)
        name = _camel(*ident_words[:2])
        params = list(dict.fromkeys(ident_words[1:])) + ["n"]
        code, counts = writer.function(name, params)
        functions.append(Function(id=f"f{i:06d}",
                                  project=f"p{i // PROJECT_SIZE:04d}",
                                  code=code, words=words, counts=counts))
    order = list(range(len(functions)))
    rng.shuffle(order)  # interleave projects in the file
    return [functions[i] for i in order]


def narrow_corpus(seed: int, n_samples: int) -> list:
    """"<verb>s the <noun> [modifier]" with Zipf-distributed verbs and
    nouns; the modifier is mostly a function of the (verb, noun) pair so a
    model can learn it, sometimes a Zipf draw so rare words stay uncertain."""
    rng = random.Random(f"narrow:{seed}")
    verb_w = _zipf_weights(len(VERB_BASES), 1.1)
    noun_w = _zipf_weights(len(NOUNS), 1.1)
    mod_w = _zipf_weights(len(MODIFIERS), 1.1)

    def comment(r):
        vi = r.choices(range(len(VERB_BASES)), verb_w)[0]
        ni = r.choices(range(len(NOUNS)), noun_w)[0]
        verb, noun = VERB_BASES[vi], NOUNS[ni]
        words = [verb + "s", "the", noun]
        if r.random() < 0.75:
            if r.random() < 0.3:
                words.append(r.choices(MODIFIERS, mod_w)[0])
            else:
                words.append(MODIFIERS[(vi * 7 + ni * 3) % len(MODIFIERS)])
        return words, [verb, noun]

    return _corpus(rng, n_samples, _CodeWriter(rng, 6, 1), comment)


def wide_corpus(seed: int, n_samples: int) -> list:
    """Long comments over a 5000-word lexicon (Zipf exponent 0.3), so the
    training split holds far more than 1196 distinct comment words and a
    1200-entry target vocabulary is always full. Every comment outruns the
    trainable length (11 content tokens at comment length 13), so END is
    only ever the last target, and "the" is the most frequent target, so a
    model that has not yet learned where END goes still never emits it
    early: greedy decoding takes the same number of steps on every seed."""
    rng = random.Random(f"wide:{seed}")
    verb_w = _zipf_weights(len(VERB_BASES), 1.0)
    lex_w = _zipf_weights(len(WIDE_LEXICON), 0.3)
    links = ("of", "to", "with", "from", "for")

    def comment(r):
        verb = r.choices(VERB_BASES, verb_w)[0]
        extra = []
        while len(extra) < 7:
            word = r.choices(WIDE_LEXICON, lex_w)[0]
            if word not in extra:
                extra.append(word)
        words = [verb + "s", "the", extra[0]]
        for word in extra[1:]:
            words += [r.choice(links), "the", word]
        return words, [verb] + extra[:3]

    return _corpus(rng, n_samples, _CodeWriter(rng, 5, 1), comment)


def parse_corpus(seed: int, n_samples: int) -> list:
    """Functions with nested statements (no ``ast`` field, so ``prepare``
    must parse every one) and comments of 6 to 8 distinct words, so the
    METEOR closed forms of every edit class apply to every reference."""
    rng = random.Random(f"parse:{seed}")
    verb_w = _zipf_weights(len(VERB_BASES), 1.0)
    noun_w = _zipf_weights(len(NOUNS), 1.0)

    def comment(r):
        verb = r.choices(VERB_BASES, verb_w)[0]
        noun = r.choices(NOUNS, noun_w)[0]
        words = [verb + "s", "the", noun] + r.sample(MODIFIERS, r.randint(3, 5))
        return words, [verb, noun]

    return _corpus(rng, n_samples, _CodeWriter(rng, 6, 2), comment)


def write_corpus(functions, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in functions:
            fh.write(json.dumps(f.record(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# derived prediction files for the score workload

EDITS = ("identical", "drop-last", "stem-variant", "reversed", "disjoint")


def stem_variant(word: str) -> str:
    """"-ing" form of a generated "-s" verb; same Porter stem."""
    return word[:-1] + "ing"


def apply_edit(edit: str, ref: list, rng: random.Random) -> list:
    if edit == "identical":
        return list(ref)
    if edit == "drop-last":
        return list(ref[:-1])
    if edit == "stem-variant":
        return [stem_variant(ref[0])] + list(ref[1:])
    if edit == "reversed":
        return list(reversed(ref))
    if edit == "disjoint":
        return rng.sample(DISJOINT_LEXICON, len(ref))
    raise ValueError(f"unknown edit {edit!r}")


def derived_predictions(references: dict, seed: int, part: int,
                        parts: int) -> list:
    """(id, edit, ref, pred) rows for every ``parts``-th reference in id
    order, starting at ``part``; the edit class cycles with the row."""
    rng = random.Random(f"edits:{seed}:{part}")
    rows = []
    for i, sample_id in enumerate(sorted(references)[part::parts]):
        ref = references[sample_id]
        edit = EDITS[(i + part) % len(EDITS)]
        rows.append((sample_id, edit, ref, apply_edit(edit, ref, rng)))
    return rows


def write_predictions(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample_id, _, ref, pred in rows:
            fh.write(json.dumps({"id": sample_id, "ref": ref, "pred": pred},
                                sort_keys=True) + "\n")
