"""Run one fixed CLI pipeline and print a SHA-256 digest of every file it
writes.

Usage: python3 tools/pipeline_digest.py OUT_DIR

OUT_DIR must be new or empty. The pipeline runs the `smoothsum` commands
of this checkout's `src/` in-process, inside OUT_DIR, on relative paths:

- a 240-sample synthetic corpus with `ast` removed from every other
  record, and `prepare`;
- a prediction file made from the test split's references, each edited
  by the next kind in turn (identical, drop-last, reversed, disjoint,
  stem variant), and `score`, so the digest covers a BLEU above 0;
- `compare` for each architecture (3 epochs), with both prediction files
  `score`d;
- `sweep --vocab-sizes 40,60 --epochs 1`;
- `diversity` over the six compare prediction files, and
  `actionword --epochs 1`;
- ast-attendgru `train` (4 epochs), `predict` and `score`;
- transformer `train --dropout 0.1` (2 epochs), so that the digest also
  covers the order of the dropout draws.

Models use the acceptance suite's small C8/C9 shape. Standard output is
one `sha256  path` line per file, sorted by path; command output goes to
standard error. No output holds a wall-clock value, so two runs print the
same lines wherever they run, and two checkouts print the same lines when
they write the same bytes.

`tests/pipeline_digest.txt` holds the lines, below a header naming the
numpy build (`numpy_build`) that printed them; `tests/test_digest.py`
runs `digest_lines` and compares. A change that moves output bytes on
purpose replaces the lines in that file.
"""

import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from smoothsum import labcli  # noqa: E402
from smoothsum.synthetic import generate_samples, write_corpus_jsonl  # noqa: E402

FAST_MODEL = ("--embed-dim", "16", "--hidden-dim", "16", "--code-len", "20",
              "--comment-len", "8", "--batch-size", "32", "--lr", "2e-3",
              "--dropout", "0", "--heads", "2", "--layers", "1")
ARCHS = ("attendgru", "transformer", "ast-attendgru")
# words of no synthetic comment, for the disjoint edit
DISJOINT_WORDS = ("zebra", "quartz", "violin", "harbor", "meadow", "lantern")
EDITS = {
    "identical": list,
    "drop-last": lambda tokens: tokens[:-1],
    "reversed": lambda tokens: tokens[::-1],
    "disjoint": lambda tokens: [DISJOINT_WORDS[i % len(DISJOINT_WORDS)]
                                for i in range(len(tokens))],
    "stem-variant": lambda tokens: [t + "s" for t in tokens],
}


def run(*argv) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        code = labcli.main(list(argv))
    if code != 0:
        raise SystemExit(f"smoothsum {' '.join(argv)}: exit {code}")


def write_edited_predictions(split: Path, path: Path) -> None:
    """One prediction per record of split: its reference, edited by the
    kinds of EDITS in turn."""
    with open(split, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    edits = list(EDITS.values())
    path.parent.mkdir()
    with open(path, "w", encoding="utf-8") as fh:
        for i, record in enumerate(records):
            ref = record["comment_tokens"]
            fh.write(json.dumps({"id": record["id"], "ref": ref,
                                 "pred": edits[i % len(edits)](ref)},
                                sort_keys=True) + "\n")


def pipeline() -> None:
    records = generate_samples(240, seed=5)
    for record in records[1::2]:
        del record["ast"]
    write_corpus_jsonl(records, "corpus.jsonl")
    run("prepare", "--data", "corpus.jsonl", "--out", "prep", "--seed", "11")
    write_edited_predictions(Path("prep/test.jsonl"),
                             Path("test_edits/predictions.jsonl"))
    run("score", "--predictions", "test_edits/predictions.jsonl", "--out",
        "test_edits/scores")
    predictions = []
    for arch in ARCHS:
        out = f"cmp_{arch}"
        run("compare", "--data", "prep", "--out", out, "--arch", arch,
            "--seed", "3", "--epochs", "3", *FAST_MODEL)
        for tag in ("eps0", "eps0p1"):
            preds = f"{out}/predictions_{tag}.jsonl"
            run("score", "--predictions", preds, "--out",
                f"{out}/scores_{tag}")
            predictions.append(preds)
    run("sweep", "--data", "prep", "--out", "sweep", "--seed", "3",
        "--epochs", "1", "--vocab-sizes", "40,60", *FAST_MODEL)
    run("diversity", "--predictions", *predictions, "--out", "diversity.csv")
    run("actionword", "--data", "prep", "--out", "actionword", "--seed", "3",
        "--epochs", "1", *FAST_MODEL)
    run("train", "--data", "prep", "--out", "run_ast", "--arch",
        "ast-attendgru", "--seed", "3", "--epochs", "4", *FAST_MODEL)
    run("predict", "--data", "prep", "--checkpoint", "run_ast/checkpoint.json",
        "--out", "run_ast/predictions.jsonl")
    run("score", "--predictions", "run_ast/predictions.jsonl", "--out",
        "run_ast/scores")
    run("train", "--data", "prep", "--out", "run_dropout", "--arch",
        "transformer", "--seed", "3", "--epochs", "2", *FAST_MODEL,
        "--dropout", "0.1")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_lines(directory) -> list:
    """Run the pipeline inside an empty directory and return one
    `sha256  path` line per file it wrote, sorted by path. The working
    directory is restored afterwards."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        pipeline()
        return [f"{digest(path)}  {path.as_posix()}" for path in
                sorted(p for p in Path(".").rglob("*") if p.is_file())]
    finally:
        os.chdir(previous)


def numpy_build() -> dict:
    """The numpy version and the BLAS name and version it was built with,
    from numpy.show_config: the build on which the lines were printed."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def main(argv) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 1
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1
    for line in digest_lines(out):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
