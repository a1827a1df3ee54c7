"""Synthetic (code, comment) corpus generator.

Emits mini-language functions paired with one-sentence comments whose
vocabulary is Zipf-distributed: verbs and nouns follow power-law ranks and
an optional trailing modifier is mostly predictable from the code but
noisy, so rare words carry genuine uncertainty. Comments use inflected
verbs ("deletes") so action-word extraction exercises the stemmer.
"""

import argparse
import json

from .astkit import mini_function_sexpr
from .corpus import atomic_write
from .rng import Rng

VERBS = [
    "gets", "sets", "adds", "removes", "deletes", "creates", "updates",
    "finds", "checks", "loads", "saves", "applies", "builds", "reads",
    "writes", "opens", "closes", "sends", "clears", "counts", "copies",
    "merges", "splits", "sorts", "filters", "resets", "starts", "stops",
    "prints", "formats",
]

NOUNS = [
    "file", "list", "value", "index", "buffer", "cache", "node", "token",
    "record", "stream", "table", "entry", "queue", "stack", "graph", "tree",
    "map", "key", "path", "count", "state", "flag", "result", "config",
    "handle", "block", "chunk", "field", "label", "score", "widget", "frame",
]

MODIFIERS = [
    "quietly", "twice", "eagerly", "lazily", "safely", "quickly", "slowly",
    "atomically", "neatly", "remotely", "locally", "globally",
    "partially", "fully", "cleanly", "silently", "repeatedly", "once",
    "carefully", "randomly", "strictly", "tightly", "deeply", "widely",
    "rarely", "often", "early", "late", "upstream", "downstream",
]

_TEMPLATES = [
    "int {fn}(int {noun}) {{ return {noun}; }}",
    "int {fn}(int {noun}) {{ int tmp = {noun} + {k}; return tmp; }}",
    "int {fn}(int {noun}) {{ if ({noun}) {{ log({noun}); }} return {noun} * 2; }}",
    ("int {fn}(int {noun}, int n) {{ int acc = 0; "
     "while (n) {{ acc = acc + {noun}; n = n - {k}; }} return acc; }}"),
    ("int {fn}(int {noun}) {{ int tmp = {noun} * {k}; "
     "if (tmp) {{ update(tmp); }} else {{ reset(); }} return tmp; }}"),
]


ZIPF_S = 1.2  # power-law exponent of the verb, noun and modifier ranks
MODIFIER_RATE = 0.75  # share of comments that end in a modifier
MODIFIER_NOISE = 0.3  # share of modifiers drawn at random, not from the code


def _zipf_cumulative(n: int, s: float):
    weights = [1.0 / (r ** s) for r in range(1, n + 1)]
    total = sum(weights)
    acc, out = 0.0, []
    for w in weights:
        acc += w / total
        out.append(acc)
    return out


def _zipf_draw(rng: Rng, cumulative) -> int:
    u = rng.random()
    for i, edge in enumerate(cumulative):
        if u < edge:
            return i
    return len(cumulative) - 1


def _camel(verb: str, noun: str) -> str:
    base = verb[:-1] if verb.endswith("s") else verb
    return base + noun.capitalize()


def generate_samples(n_samples: int, seed: int = 7, n_projects: int = 12,
                     unique_pairs: bool = False) -> list:
    """Raw corpus records (id/project/code/comment/ast dictionaries).

    unique_pairs draws every (verb, noun) combination at most once and
    drops modifiers entirely, producing an unambiguous memorization set.
    """
    rng = Rng(seed).derive("synthetic-corpus")
    verb_cum = _zipf_cumulative(len(VERBS), ZIPF_S)
    noun_cum = _zipf_cumulative(len(NOUNS), ZIPF_S)
    mod_cum = _zipf_cumulative(len(MODIFIERS), ZIPF_S)

    pair_queue = None
    if unique_pairs:
        pair_queue = [(v, n) for v in range(len(VERBS))
                      for n in range(len(NOUNS))]
        rng.shuffle(pair_queue)
        if n_samples > len(pair_queue):
            raise ValueError(
                f"only {len(pair_queue)} unique pairs are available")

    records = []
    for i in range(n_samples):
        if unique_pairs:
            vi, ni = pair_queue[i]
        else:
            vi = _zipf_draw(rng, verb_cum)
            ni = _zipf_draw(rng, noun_cum)
        verb, noun = VERBS[vi], NOUNS[ni]

        comment = f"{verb} the {noun}"
        if not unique_pairs and rng.random() < MODIFIER_RATE:
            home = MODIFIERS[(vi * 7 + ni * 3) % len(MODIFIERS)]
            if rng.random() < MODIFIER_NOISE:
                comment += " " + MODIFIERS[_zipf_draw(rng, mod_cum)]
            else:
                comment += " " + home
        comment += "."

        template = _TEMPLATES[rng.randint(len(_TEMPLATES))]
        code = template.format(fn=_camel(verb, noun), noun=noun,
                               k=1 + rng.randint(9))
        records.append({
            "id": f"s{i:06d}",
            "project": f"proj{rng.randint(n_projects):02d}",
            "code": code,
            "comment": comment,
            "ast": mini_function_sexpr(code),
        })
    return records


def write_corpus_jsonl(records, path) -> None:
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="generate a synthetic toy corpus as JSON lines")
    parser.add_argument("out", help="output .jsonl path")
    parser.add_argument("--samples", type=int, default=600)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--projects", type=int, default=12)
    parser.add_argument("--unique-pairs", action="store_true")
    args = parser.parse_args(argv)
    records = generate_samples(args.samples, seed=args.seed,
                               n_projects=args.projects,
                               unique_pairs=args.unique_pairs)
    write_corpus_jsonl(records, args.out)
    print(f"wrote {len(records)} samples to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
