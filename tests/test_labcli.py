import base64
import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smoothsum import labcli, trainer
from smoothsum.astkit import sbt_from_sexpr
from smoothsum.corpus import (SPECIAL_TOKENS, SPLITS, load_prepared_dir,
                              sbt_tokens_for_sample)
from smoothsum.errors import ConfigurationError
from smoothsum.metrics import ComparisonResult, read_predictions
from smoothsum.synthetic import generate_samples, write_corpus_jsonl
from smoothsum.trainer import encode_corpus

from conftest import b64

FAST_MODEL = ["--embed-dim", "16", "--hidden-dim", "16", "--code-len", "20",
              "--comment-len", "8", "--batch-size", "32", "--lr", "2e-3",
              "--dropout", "0", "--heads", "2", "--layers", "1"]


DELETE = object()  # marks a checkpoint field to remove


def edit_bytes(edit):
    """A checkpoint data edit: edit the decoded bytes, encode again."""
    return lambda data: b64(edit(base64.b64decode(data)))


def dropped_pad(data):
    """The data less one or two bytes, so that its base64 ends in a pad,
    with the pad removed."""
    raw = base64.b64decode(data)
    return b64(raw[:-1] if (len(raw) - 1) % 3 else raw[:-2]).rstrip("=")


def run_cli(*argv):
    return labcli.main(list(argv))


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.jsonl"
    write_corpus_jsonl(generate_samples(150, seed=5), path)
    return path


@pytest.fixture(scope="module")
def prepared_dir(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("prep") / "prep"
    code = run_cli("prepare", "--data", str(corpus_file), "--out", str(out),
                   "--seed", "11", "--src-vocab", "200", "--tgt-vocab", "150")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, prepared_dir):
    run_dir = tmp_path_factory.mktemp("run")
    assert run_cli("train", "--data", str(prepared_dir), "--out",
                   str(run_dir), "--seed", "3", "--epochs", "1",
                   *FAST_MODEL) == 0
    return run_dir / "checkpoint.json"


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def copy_prepared(prepared_dir, target):
    target.mkdir()
    for path in prepared_dir.iterdir():
        (target / path.name).write_bytes(path.read_bytes())
    return target


def tree_digest(directory):
    digest = {}
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            digest[str(path.relative_to(directory))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digest


class TestRenderReport:
    def _table(self, p_value):
        row = labcli.ReportRow(
            epsilon=0.1,
            scores={"meteor": 0.3341, "similarity": 0.51, "bleu": 0.19},
            comparisons={
                "meteor": ComparisonResult("meteor", 3.76, p_value, 0.05,
                                           p_value < 0.05),
                "similarity": ComparisonResult("similarity", -0.26, 0.074,
                                               0.05, False),
            })
        baseline = labcli.ReportRow(
            epsilon=0.0,
            scores={"meteor": 0.32, "similarity": 0.50, "bleu": 0.18})
        return labcli.ReportTable(title="t", rows=[baseline, row])

    def test_small_p_prints_less_than(self):
        text = labcli.render_report(self._table(0.0042), "csv")
        assert "<0.01" in text

    def test_two_decimal_p(self):
        text = labcli.render_report(self._table(0.074), "csv")
        lines = text.splitlines()
        assert lines[2].split(",")[5] == "0.07"

    def test_baseline_dashes(self):
        text = labcli.render_report(self._table(0.5), "csv")
        assert text.splitlines()[1] == "0,0.32,0.50,0.18,-,-,-,-"

    def test_negative_t_preserved(self):
        text = labcli.render_report(self._table(0.5), "csv")
        assert "-0.26" in text

    def test_empty_table_header_only(self):
        text = labcli.render_report(labcli.ReportTable("t", []), "csv")
        assert text == ",".join(labcli._REPORT_HEADER) + "\n"

    def test_markdown_aligned(self):
        text = labcli.render_report(self._table(0.0042), "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| epsilon")
        assert set(lines[1]) <= {"|", "-"}
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_unknown_format(self):
        with pytest.raises(ConfigurationError):
            labcli.render_report(labcli.ReportTable("t", []), "html")


class TestSweepGrid:
    def test_default_grid(self):
        grid = labcli.DEFAULT_SWEEP_GRID
        assert grid == (0.0, 0.001, 0.003, 0.007, 0.02, 0.05, 0.10, 0.25, 0.40)
        # the first arm is the epsilon = 0 baseline the others are tested
        # against
        assert list(grid) == sorted(set(grid))

    def test_malformed_vocab_sizes_exits_2(self, tmp_path, prepared_dir,
                                           capsys):
        assert run_cli("sweep", "--data", str(prepared_dir), "--out",
                       str(tmp_path / "s"), "--vocab-sizes", "x") == 2
        assert "--vocab-sizes" in assert_one_line_error(capsys)


class TestPrepare:
    def test_outputs_and_determinism(self, tmp_path, corpus_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("prepare", "--data", str(corpus_file), "--out",
                           str(out), "--seed", "3") == 0
        assert tree_digest(out_a) == tree_digest(out_b)
        names = {p.name for p in out_a.iterdir()}
        assert names == {"train.jsonl", "val.jsonl", "test.jsonl",
                         "vocab.src.txt", "vocab.tgt.txt", "vocab.ast.txt"}

    def test_quantile_filters(self, tmp_path, corpus_file):
        out = tmp_path / "q"
        assert run_cli("prepare", "--data", str(corpus_file), "--out",
                       str(out), "--seed", "3", "--quantile", "0.5") == 0
        full = sum(1 for _ in open(out / "train.jsonl"))
        assert full > 0

    def test_vocab_below_minimum_exits_2(self, tmp_path, corpus_file):
        assert run_cli("prepare", "--data", str(corpus_file), "--out",
                       str(tmp_path / "x"), "--src-vocab", "4") == 2

    @pytest.mark.parametrize("flags, message", [
        (["--ratios", "a,b,c"], "--ratios"),
        (["--ratios", "0.5,0.5"], "three positive fractions"),
        (["--ratios", "0.5,0.5,0.5"], "do not sum to 1"),
        (["--src-vocab", "4"], "vocabulary size 4 below minimum of 5"),
        (["--tgt-vocab", "3"], "vocabulary size 3 below minimum of 5"),
        (["--quantile", "1.5"], "quantile 1.5"),
    ])
    def test_bad_flag_exits_2_without_reading_corpus(
            self, tmp_path, corpus_file, capsys, monkeypatch, flags, message):
        def unread(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(labcli, "read_corpus_jsonl", unread)
        out = tmp_path / "x"
        assert run_cli("prepare", "--data", str(corpus_file), "--out",
                       str(out), *flags) == 2
        assert message in assert_one_line_error(capsys)
        assert not out.exists()

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "1"}\n')
        assert run_cli("prepare", "--data", str(bad), "--out",
                       str(tmp_path / "y")) == 2

    def test_malformed_ratios_exits_2(self, tmp_path, corpus_file, capsys):
        assert run_cli("prepare", "--data", str(corpus_file), "--out",
                       str(tmp_path / "r"), "--ratios", "a,b,c") == 2
        assert "--ratios" in assert_one_line_error(capsys)

    def test_non_string_ast_exits_2(self, tmp_path, corpus_file, capsys):
        lines = corpus_file.read_text().splitlines()
        record = json.loads(lines[4])
        record["ast"] = 5
        lines[4] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli("prepare", "--data", str(bad), "--out",
                       str(tmp_path / "prep")) == 2
        assert "bad.jsonl:5" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("code", [5, None, ["int f(){}"]],
                             ids=["number", "null", "list"])
    def test_non_string_code_exits_2(self, tmp_path, corpus_file, capsys,
                                     code):
        lines = corpus_file.read_text().splitlines()
        record = json.loads(lines[4])
        record["code"] = code
        record.pop("ast", None)  # so the code would be parsed
        lines[4] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli("prepare", "--data", str(bad), "--out",
                       str(tmp_path / "prep")) == 2
        assert "bad.jsonl:5" in assert_one_line_error(capsys)
        assert not (tmp_path / "prep").exists()

    @pytest.mark.parametrize("ast", ["(<PAD> (x))", "(f <UNK> (y))"])
    def test_special_token_ast_label_exits_2(self, tmp_path, corpus_file,
                                             capsys, ast):
        # vocab.ast.txt would hold the special token twice
        lines = corpus_file.read_text().splitlines()
        lines[4] = json.dumps({**json.loads(lines[4]), "ast": ast})
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli("prepare", "--data", str(bad), "--out",
                       str(tmp_path / "prep")) == 2
        err = assert_one_line_error(capsys)
        assert "bad.jsonl:5" in err and "is a special token" in err

    @pytest.mark.parametrize("ids, line, message", [
        ([None, "None"], 1, "id must be a string or an integer, got NoneType"),
        ([7, "7"], 2, "duplicate sample id '7'"),
        ([True], 1, "id must be a string or an integer, got bool")])
    def test_bad_corpus_id_exits_2(self, tmp_path, capsys, ids, line,
                                   message):
        records = [dict(r) for r in VALID_CORPUS]
        for record, value in zip(records, ids):
            record["id"] = value
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run_cli("prepare", "--data", str(path), "--out",
                       str(tmp_path / "prep")) == 2
        err = assert_one_line_error(capsys)
        assert f"corpus.jsonl:{line}:" in err and message in err
        assert not (tmp_path / "prep").exists()

    @pytest.mark.parametrize("projects, code", [
        ((None, "None", "a", "b"), 2), (("None", "a", "b"), 0)])
    def test_project_is_a_string_or_an_integer(self, tmp_path, capsys,
                                               projects, code):
        # null is refused, so it cannot merge with the project "None"
        records = [{**r, "project": projects[i % len(projects)]}
                   for i, r in enumerate(VALID_CORPUS)]
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "prep"
        assert run_cli("prepare", "--data", str(path), "--out", str(out),
                       "--src-vocab", "20", "--tgt-vocab", "20") == code
        if code == 2:
            err = assert_one_line_error(capsys)
            assert ("corpus.jsonl:1:" in err and "project must be a string "
                    "or an integer, got NoneType" in err)
            assert not out.exists()
            return
        prepared = load_prepared_dir(out)
        assert sorted(s.project for split in (prepared.train, prepared.val,
                                              prepared.test)
                      for s in split) == sorted(
            r["project"] for r in records)

    def test_integer_corpus_id_reads_as_text(self, tmp_path):
        records = [{**r, "id": i} for i, r in enumerate(VALID_CORPUS)]
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run_cli("prepare", "--data", str(path), "--out",
                       str(tmp_path / "prep"), "--src-vocab", "20",
                       "--tgt-vocab", "20") == 0
        prepared = load_prepared_dir(tmp_path / "prep")
        assert sorted(s.id for split in (prepared.train, prepared.val,
                                         prepared.test)
                      for s in split) == sorted(
            str(i) for i in range(len(VALID_CORPUS)))

    def test_lone_surrogate_ast_exits_2(self, tmp_path, corpus_file, capsys):
        # a label UTF-8 cannot encode would reach vocab.ast.txt
        lines = corpus_file.read_text().splitlines()
        record = json.loads(lines[4])
        record["ast"] = "(method_declaration \ud800)"
        lines[4] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli("prepare", "--data", str(bad), "--out",
                       str(tmp_path / "prep")) == 2
        assert "bad.jsonl:5" in assert_one_line_error(capsys)
        assert not (tmp_path / "prep").exists()

    def test_deeply_nested_code_keeps_no_ast(self, tmp_path, corpus_file):
        lines = corpus_file.read_text().splitlines()
        record = json.loads(lines[4])
        del record["ast"]
        record["code"] = ("int f(){" + "if (x) {" * 170 + "return 1;"
                          + "}" * 170 + "}")
        lines[4] = json.dumps(record)
        deep = tmp_path / "deep.jsonl"
        deep.write_text("\n".join(lines) + "\n")
        out = tmp_path / "prep"
        assert run_cli("prepare", "--data", str(deep), "--out", str(out)) == 0
        split_records = [json.loads(line) for split in ("train", "val", "test")
                         for line in (out / f"{split}.jsonl").open()]
        [kept] = [r for r in split_records if r["id"] == record["id"]]
        assert kept["ast"] is None

    def test_deep_ast_exits_2(self, tmp_path, corpus_file, capsys):
        deep_ast = "(a " * 3000 + ")" * 3000
        records = [{**json.loads(line), "ast": deep_ast}
                   for line in corpus_file.read_text().splitlines()]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run_cli("prepare", "--data", str(bad), "--out",
                       str(tmp_path / "prep")) == 2
        assert "deeper than" in assert_one_line_error(capsys)

    def test_deep_val_bound_ast_exits_2(self, tmp_path, corpus_file, capsys):
        # prepare flattens only train ASTs; a val-bound one is checked too
        prep = tmp_path / "prep"
        assert run_cli("prepare", "--data", str(corpus_file), "--out",
                       str(prep)) == 0
        val_line = (prep / "val.jsonl").read_text().splitlines()[0]
        val_id = json.loads(val_line)["id"]
        lines = corpus_file.read_text().splitlines()
        [row] = [i for i, line in enumerate(lines)
                 if json.loads(line)["id"] == val_id]
        lines[row] = json.dumps({**json.loads(lines[row]),
                                 "ast": "(a " * 3000 + ")" * 3000})
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("prepare", "--data", str(bad), "--out",
                       str(tmp_path / "prep2")) == 2
        err = assert_one_line_error(capsys)
        assert f"bad.jsonl:{row + 1}" in err and "deeper than" in err

    def test_lopsided_projects_fill_every_split(self, tmp_path):
        # under seeds 2-4 the deficit rule alone leaves the test split
        # empty; 80/10/10 fills all three
        records = generate_samples(100, seed=5)
        for i, record in enumerate(records):
            record["project"] = "a" if i < 10 else "b" if i < 20 else "c"
        path = tmp_path / "lopsided.jsonl"
        write_corpus_jsonl(records, path)
        for seed in ("2", "3", "4"):
            out = tmp_path / f"prep{seed}"
            assert run_cli("prepare", "--data", str(path), "--out", str(out),
                           "--seed", seed) == 0
            projects = [{json.loads(line)["project"]
                         for line in (out / f"{split}.jsonl").open()}
                        for split in ("train", "val", "test")]
            assert projects[0] == {"c"} and all(projects)

    def test_usage_error_exits_1(self):
        assert run_cli("prepare") == 1
        assert run_cli("not-a-command") == 1


CORPUS_FIELDS = ("id", "project", "code", "comment", "ast")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters() | st.characters(categories=["Cs"]),
              max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
VALID_CORPUS = generate_samples(12, seed=3)
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None,
                             derandomize=True)


def edited_corpus(row, key, value):
    """VALID_CORPUS with one field of one record replaced by value, or
    removed when value is DELETE."""
    records = [dict(r) for r in VALID_CORPUS]
    records[row].pop(key)
    if value is not DELETE:
        records[row][key] = value
    return records


CORPUS_RECORDS = st.one_of(
    st.lists(st.dictionaries(st.sampled_from(CORPUS_FIELDS), JSON_VALUES,
                             max_size=5), max_size=8),
    st.builds(edited_corpus, st.integers(0, len(VALID_CORPUS) - 1),
              st.sampled_from(CORPUS_FIELDS),
              st.just(DELETE) | JSON_VALUES))


def prepare_exits_cleanly(data: bytes, records=None) -> None:
    """prepare on a corpus file holding data exits 0 with nothing on
    stderr, or exits 2 with exactly one error: line. On exit 0, every
    split sample of records keeps its raw project, a string or an integer
    read as its decimal text, so distinct raw projects stay distinct."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.jsonl"
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run_cli("prepare", "--data", str(path), "--out",
                           str(Path(tmp) / "prep"), "--src-vocab", "20",
                           "--tgt-vocab", "20")
        if code == 0 and records is not None:
            projects = {str(r["id"]): r["project"] for r in records}
            prepared = load_prepared_dir(Path(tmp) / "prep")
            for split in (prepared.train, prepared.val, prepared.test):
                for sample in split:
                    project = projects[sample.id]
                    assert isinstance(project, str) or type(project) is int
                    assert sample.project == str(project)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()


class TestPrepareProperties:
    @PROPERTY_SETTINGS
    @given(st.binary(max_size=80))
    @example(b"\xff\n")
    @example(b"[" * 100000)
    def test_arbitrary_bytes(self, data):
        prepare_exits_cleanly(data)

    @PROPERTY_SETTINGS
    @given(CORPUS_RECORDS)
    @example(VALID_CORPUS)
    @example([{**r, "ast": "(\ud800)"} for r in VALID_CORPUS])
    @example(edited_corpus(0, "project", None))
    @example(edited_corpus(0, "project", 7))
    def test_arbitrary_field_values(self, records):
        prepare_exits_cleanly("".join(
            json.dumps(r) + "\n" for r in records).encode(), records)


PREDICTION_TOKENS = st.lists(st.sampled_from(
    ("gets", "getting", "the", "file", "files", "x")), max_size=6)
PREDICTION_RECORD = st.fixed_dictionaries({"id": st.sampled_from("abcd"),
                                           "ref": PREDICTION_TOKENS,
                                           "pred": PREDICTION_TOKENS})
# valid files, and files that mix valid records (whose few ids repeat),
# ids and tokens of any JSON type, and lines of any text
PREDICTION_LINES = st.one_of(
    st.lists(PREDICTION_RECORD, max_size=4, unique_by=lambda r: r["id"]),
    st.lists(st.one_of(
        PREDICTION_RECORD,
        st.tuples(PREDICTION_RECORD, JSON_VALUES).map(
            lambda t: {**t[0], "id": t[1]}),
        st.tuples(PREDICTION_RECORD, st.sampled_from(("ref", "pred")),
                  st.lists(JSON_VALUES, max_size=3)).map(
            lambda t: {**t[0], t[1]: t[2]}),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)),
        max_size=6)).map(
    lambda lines: [line if isinstance(line, str) else json.dumps(line)
                   for line in lines])
OUT_SUFFIXES = {"score": (".json", ".md"), "diversity": (".csv", ".md")}


def reads_predictions_cleanly(command, lines) -> None:
    """command on a prediction file of lines exits 0 and writes both --out
    files, or exits 2 with exactly one error: line and creates nothing."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "preds.jsonl"
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run_cli(command, "--predictions", str(path), "--out",
                           str(Path(tmp) / "out"))
        names = sorted(p.name for p in Path(tmp).iterdir())
    if code == 0:
        assert err.getvalue() == ""
        assert names == sorted(["preds.jsonl", *(
            "out" + suffix for suffix in OUT_SUFFIXES[command])])
    else:
        assert code == 2
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert names == ["preds.jsonl"]


class TestScoreDiversityProperties:
    @PROPERTY_SETTINGS
    @given(st.sampled_from(sorted(OUT_SUFFIXES)), PREDICTION_LINES)
    @example("score", [])
    @example("diversity", [])
    @example("score", ['{"id": null, "ref": [], "pred": []}',
                       '{"id": "None", "ref": [], "pred": []}'])
    @example("score", ['{"id": "a", "ref": ["x"], "pred": ["x"]}'])
    def test_arbitrary_prediction_files(self, command, lines):
        reads_predictions_cleanly(command, lines)


class TestTrainPredictScore:
    def test_full_chain(self, tmp_path, prepared_dir):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--data", str(prepared_dir), "--out",
                       str(run_dir), "--seed", "3", "--epochs", "2",
                       "--epsilon", "0.1", *FAST_MODEL) == 0
        assert (run_dir / "checkpoint.json").exists()
        history = (run_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss_nats,val_acc"
        assert len(history) == 3
        rerun = tmp_path / "rerun"
        assert run_cli("train", "--data", str(prepared_dir), "--out",
                       str(rerun), "--seed", "3", "--epochs", "2",
                       "--epsilon", "0.1", *FAST_MODEL) == 0
        assert tree_digest(rerun) == tree_digest(run_dir)

        preds_path = tmp_path / "preds.jsonl"
        assert run_cli("predict", "--data", str(prepared_dir), "--out",
                       str(preds_path), "--checkpoint",
                       str(run_dir / "checkpoint.json"), "--seed", "3") == 0
        preds = read_predictions(preds_path)
        assert len(preds) > 0

        score_prefix = tmp_path / "scores"
        assert run_cli("score", "--predictions", str(preds_path), "--out",
                       str(score_prefix)) == 0
        payload = json.loads((tmp_path / "scores.json").read_text())
        assert set(payload) >= {"bleu", "meteor", "similarity", "count"}
        assert (tmp_path / "scores.md").read_text().startswith("| bleu")

    def test_predict_vocab_mismatch_exits_2(self, tmp_path, prepared_dir,
                                            corpus_file):
        other = tmp_path / "other_prep"
        assert run_cli("prepare", "--data", str(corpus_file), "--out",
                       str(other), "--seed", "3", "--tgt-vocab", "40") == 0
        run_dir = tmp_path / "run2"
        assert run_cli("train", "--data", str(other), "--out", str(run_dir),
                       "--seed", "3", "--epochs", "1", *FAST_MODEL) == 0
        assert run_cli("predict", "--data", str(prepared_dir), "--out",
                       str(tmp_path / "p.jsonl"), "--checkpoint",
                       str(run_dir / "checkpoint.json"), "--seed", "3") == 2


    def test_train_and_predict_read_only_their_splits(
            self, tmp_path, prepared_dir, capsys):
        partial = tmp_path / "prep"
        partial.mkdir()
        for path in prepared_dir.iterdir():
            if path.name != "test.jsonl":
                (partial / path.name).write_bytes(path.read_bytes())
        run_dir = tmp_path / "run"
        assert run_cli("train", "--data", str(partial), "--out", str(run_dir),
                       "--epochs", "1", *FAST_MODEL) == 0
        predict = ["predict", "--data", str(partial), "--out",
                   str(tmp_path / "p.jsonl"), "--checkpoint",
                   str(run_dir / "checkpoint.json")]
        assert run_cli(*predict, "--split", "val") == 0
        capsys.readouterr()
        assert run_cli(*predict) == 2
        assert "test.jsonl" in assert_one_line_error(capsys)

    def test_split_record_without_code_tokens_exits_2(
            self, tmp_path, prepared_dir, checkpoint, capsys):
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        lines = (bad / "test.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        del record["code_tokens"]
        lines[1] = json.dumps(record)
        (bad / "test.jsonl").write_text("\n".join(lines) + "\n")
        assert run_cli("predict", "--data", str(bad), "--out",
                       str(tmp_path / "p.jsonl"), "--checkpoint",
                       str(checkpoint)) == 2
        assert "test.jsonl:2" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("keys, value, named", [
        pytest.param(("config", "bogus"), 1, "config", id="config"),
        pytest.param(("train_config", "bogus"), 1, "train_config",
                     id="train_config"),
        pytest.param(("params",), DELETE, "params", id="no-params"),
        pytest.param(("params",), [], "params", id="params-list"),
        pytest.param(("params", "out.b"), 3, "out.b", id="entry-number"),
        pytest.param(("params", "out.b", "shape"), DELETE, "out.b",
                     id="no-shape"),
        pytest.param(("params", "out.b", "data"), DELETE, "out.b",
                     id="no-data"),
        pytest.param(("params", "out.b", "shape"), 5, "out.b",
                     id="shape-number"),
        pytest.param(("params", "out.b", "shape"),
                     lambda shape: [float(size) for size in shape], "out.b",
                     id="shape-float"),
        pytest.param(("params", "out.b", "data"), {"x": 1}, "out.b",
                     id="data-object"),
        pytest.param(("params", "out.b", "data"), ["x"], "out.b",
                     id="data-strings"),
        pytest.param(("params", "out.b", "data"), lambda d: "!" + d[1:],
                     "out.b", id="data-bad-base64-character"),
        pytest.param(("params", "out.b", "data"), dropped_pad, "out.b",
                     id="data-dropped-pad"),
        pytest.param(("params", "out.b", "data"),
                     edit_bytes(lambda raw: raw[:-1]), "out.b",
                     id="data-one-byte-short"),
        pytest.param(("params", "out.b", "data"),
                     edit_bytes(lambda raw: raw + bytes(8)), "out.b",
                     id="data-one-float-extra"),
        pytest.param(("params", "out.b", "data"),
                     edit_bytes(lambda raw: np.float64("nan").tobytes()
                                + raw[8:]), "out.b", id="data-nan"),
        pytest.param(("epoch",), "first", "epoch", id="epoch-text"),
        pytest.param(("epoch",), True, "epoch", id="epoch-boolean"),
        pytest.param(("epoch",), "3", "epoch", id="epoch-digits"),
        pytest.param(("epoch",), 2.9, "epoch", id="epoch-fraction"),
        pytest.param(("epoch",), -4, "epoch", id="epoch-negative"),
        pytest.param(("val_accuracy",), "0.25", "val_accuracy",
                     id="val-accuracy-text"),
        pytest.param(("val_accuracy",), float("nan"), "val_accuracy",
                     id="val-accuracy-nan"),
        pytest.param(("val_accuracy",), 7.0, "val_accuracy",
                     id="val-accuracy-above-1"),
    ])
    def test_checkpoint_unknown_config_key_exits_2(
            self, tmp_path, prepared_dir, checkpoint, capsys, keys, value,
            named):
        payload = json.loads(checkpoint.read_text())
        target = payload
        for key in keys[:-1]:
            target = target[key]
        if value is DELETE:
            del target[keys[-1]]
        elif callable(value):
            target[keys[-1]] = value(target[keys[-1]])
        else:
            target[keys[-1]] = value
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("predict", "--data", str(prepared_dir), "--out",
                       str(tmp_path / "p.jsonl"), "--checkpoint",
                       str(bad)) == 2
        assert named in assert_one_line_error(capsys)

    @pytest.mark.parametrize("flag, missing", [
        ("--checkpoint", "missing.json")])
    def test_predict_missing_file_exits_2(self, tmp_path, prepared_dir,
                                          checkpoint, capsys, flag, missing):
        # a repeated flag overrides the earlier one
        assert run_cli("predict", "--data", str(prepared_dir), "--out",
                       str(tmp_path / "p.jsonl"), "--checkpoint",
                       str(checkpoint), flag, str(tmp_path / missing)) == 2
        assert missing in assert_one_line_error(capsys)

    def test_deep_val_ast_exits_2(self, tmp_path, prepared_dir, capsys):
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        lines = (bad / "val.jsonl").read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]),
                               "ast": "(a " * 3000 + ")" * 3000})
        (bad / "val.jsonl").write_text("\n".join(lines) + "\n")
        assert run_cli("train", "--data", str(bad), "--out",
                       str(tmp_path / "run"), "--arch", "ast-attendgru",
                       "--epochs", "1", *FAST_MODEL) == 2
        assert "deeper than" in assert_one_line_error(capsys)
        assert not (tmp_path / "run").exists()

    def test_non_utf8_source_vocabulary_exits_2(self, tmp_path, prepared_dir,
                                                 capsys):
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        with open(bad / "vocab.src.txt", "ab") as fh:
            fh.write(b"\xff\n")
        assert run_cli("train", "--data", str(bad), "--out",
                       str(tmp_path / "run"), "--epochs", "1",
                       *FAST_MODEL) == 2
        assert "vocab.src.txt" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("line, token, message", [
        (7, None, "token {line5!r} repeats line 5"),  # None: line 5's token
        (6, "", "empty token"),
        (7, "<UNK>", "token '<UNK>' repeats line 4"),
    ], ids=["repeated-token", "empty-line", "repeated-special"])
    def test_malformed_target_vocabulary_exits_2(
            self, tmp_path, prepared_dir, checkpoint, capsys, command, line,
            token, message):
        # the file keeps its size, so only the check on its lines refuses it
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        lines = (bad / "vocab.tgt.txt").read_text().splitlines()
        lines[line - 1] = lines[4] if token is None else token
        (bad / "vocab.tgt.txt").write_text("\n".join(lines) + "\n")
        out = tmp_path / ("run" if command == "train" else "p.jsonl")
        extra = (["--epochs", "1", *FAST_MODEL] if command == "train"
                 else ["--checkpoint", str(checkpoint)])
        assert run_cli(command, "--data", str(bad), "--out", str(out),
                       *extra) == 2
        expected = f"vocab.tgt.txt:{line}: " + message.format(line5=lines[4])
        assert expected in assert_one_line_error(capsys)
        assert not out.exists()

    def test_non_utf8_target_vocabulary_exits_2(self, tmp_path, prepared_dir,
                                                 checkpoint, capsys):
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        with open(bad / "vocab.tgt.txt", "ab") as fh:
            fh.write(b"\xff\n")
        assert run_cli("predict", "--data", str(bad), "--out",
                       str(tmp_path / "p.jsonl"), "--checkpoint",
                       str(checkpoint)) == 2
        assert "vocab.tgt.txt" in assert_one_line_error(capsys)

    def test_predict_tgt_vocab_flag_is_a_usage_error(
            self, tmp_path, prepared_dir, checkpoint):
        # predict decodes with the data directory's target vocabulary
        assert run_cli("predict", "--data", str(prepared_dir), "--out",
                       str(tmp_path / "p.jsonl"), "--checkpoint",
                       str(checkpoint), "--tgt-vocab",
                       str(prepared_dir / "vocab.tgt.txt")) == 1
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("command",
                             ["train", "predict", "compare", "sweep",
                              "actionword"])
    def test_missing_ast_vocabulary_exits_2(self, tmp_path, prepared_dir,
                                            checkpoint, capsys, command):
        partial = copy_prepared(prepared_dir, tmp_path / "prep")
        (partial / "vocab.ast.txt").unlink()
        flags = (["--checkpoint", str(checkpoint)] if command == "predict"
                 else ["--epochs", "1", *FAST_MODEL])
        assert run_cli(command, "--data", str(partial), "--out",
                       str(tmp_path / "out"), *flags) == 2
        assert "vocab.ast.txt" in assert_one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_score_missing_predictions_exits_2(self, tmp_path, capsys):
        assert run_cli("score", "--predictions",
                       str(tmp_path / "nothere.jsonl"), "--out",
                       str(tmp_path / "scores")) == 2
        assert "nothere.jsonl" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("out", ["", "sub/", "sub/.", "..", "."])
    @pytest.mark.parametrize("command", ["score", "diversity"])
    def test_out_naming_no_file_exits_2_before_reading(
            self, tmp_path, monkeypatch, capsys, command, out):
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, "--predictions", "missing.jsonl",
                       "--out", out) == 2
        assert "names no file" in assert_one_line_error(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("token", [None, 1.5, True, ["x"], {"k": 1}])
    @pytest.mark.parametrize("command", ["score", "diversity"])
    def test_non_string_prediction_token_exits_2(self, tmp_path, capsys,
                                                 command, token):
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({"id": "a", "ref": ["x"], "pred": ["x"]})
                        + "\n" + json.dumps({"id": "b", "ref": ["x"],
                                              "pred": ["x", token]}) + "\n")
        assert run_cli(command, "--predictions", str(path), "--out",
                       str(tmp_path / "out")) == 2
        assert "preds.jsonl:2:" in assert_one_line_error(capsys)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("ids, line, message", [
        ([None, "None"], 1, "id must be a string"),
        (["1.5", 1.5], 2, "id must be a string"),
        (["x", "x"], 2, "duplicate prediction id 'x'")])
    @pytest.mark.parametrize("command", ["score", "diversity"])
    def test_bad_prediction_id_exits_2(self, tmp_path, capsys, command,
                                       ids, line, message):
        path = tmp_path / "preds.jsonl"
        path.write_text("".join(json.dumps({"id": i, "ref": ["x"],
                                            "pred": ["x"]}) + "\n"
                                for i in ids))
        assert run_cli(command, "--predictions", str(path), "--out",
                       str(tmp_path / "out")) == 2
        err = assert_one_line_error(capsys)
        assert f"preds.jsonl:{line}:" in err and message in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value", ["Infinity", "1e400"])
    def test_infinite_code_char_len_exits_2(self, tmp_path, prepared_dir,
                                            capsys, value):
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        lines = (bad / "val.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["code_char_len"] = 0
        lines[0] = json.dumps(record).replace('"code_char_len": 0',
                                              f'"code_char_len": {value}')
        (bad / "val.jsonl").write_text("\n".join(lines) + "\n")
        assert run_cli("train", "--data", str(bad), "--out",
                       str(tmp_path / "run"), "--epochs", "1",
                       *FAST_MODEL) == 2
        assert "val.jsonl:1" in assert_one_line_error(capsys)

    def test_checkpoint_of_format_1_exits_2(self, tmp_path, prepared_dir,
                                            checkpoint, capsys):
        payload = json.loads(checkpoint.read_text())
        payload["format_version"] = 1
        payload["train_config"].update(optimizer="adam", beta1=0.9,
                                       beta2=0.999, adam_eps=1e-8,
                                       epsilon=0.0)
        old = tmp_path / "checkpoint.json"
        old.write_text(json.dumps(payload))
        assert run_cli("predict", "--data", str(prepared_dir), "--out",
                       str(tmp_path / "p.jsonl"), "--checkpoint",
                       str(old)) == 2
        assert "format 1" in assert_one_line_error(capsys)
        assert not (tmp_path / "p.jsonl").exists()

    def test_checkpoint_of_format_2_exits_2(self, tmp_path, prepared_dir,
                                            checkpoint, capsys):
        payload = json.loads(checkpoint.read_text())
        payload["format_version"] = 2
        for entry in payload["params"].values():
            entry["data"] = np.frombuffer(base64.b64decode(entry["data"]),
                                          "<f8").tolist()
        old = tmp_path / "checkpoint.json"
        old.write_text(json.dumps(payload))
        assert run_cli("predict", "--data", str(prepared_dir), "--out",
                       str(tmp_path / "p.jsonl"), "--checkpoint",
                       str(old)) == 2
        assert "format 2" in assert_one_line_error(capsys)
        assert not (tmp_path / "p.jsonl").exists()

    def test_non_finite_learning_rate_exits_2(self, tmp_path, prepared_dir,
                                              capsys):
        assert run_cli("train", "--data", str(prepared_dir), "--out",
                       str(tmp_path / "run"), "--epochs", "1", *FAST_MODEL,
                       "--lr", "nan") == 2
        assert "learning_rate" in assert_one_line_error(capsys)


    @pytest.mark.parametrize("command",
                             ["train", "compare", "sweep", "actionword"])
    def test_bad_epochs_exits_2_before_writing(self, tmp_path, prepared_dir,
                                               capsys, command):
        out = tmp_path / "out"
        assert run_cli(command, "--data", str(prepared_dir), "--out",
                       str(out), "--epochs", "0", *FAST_MODEL) == 2
        assert "epochs" in assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--arch", "transformer", "--heads", "3"], "heads 3"),
        ("train", ["--epsilon", "1.5"], "epsilon"),
        ("train", ["--code-len", "1"], "code_len"),
        ("compare", ["--arch", "transformer", "--heads", "3"], "heads 3"),
        ("sweep", ["--arch", "transformer", "--heads", "3"], "heads 3"),
        ("sweep", ["--vocab-sizes", "50,4"], "vocabulary size 4"),
        # a repeated size would overwrite the first one's sweep_v files
        ("sweep", ["--vocab-sizes", "40,40"], "--vocab-sizes lists 40 twice"),
        ("sweep", ["--vocab-sizes", "40,60,040"],
         "--vocab-sizes lists 40 twice"),
        ("actionword", ["--arch", "transformer", "--heads", "3"], "heads 3"),
        *((command, ["--arch", "transformer", "--hidden-dim", "5",
                     "--embed-dim", "5", "--heads", "1"], "must be even")
          for command in ("train", "compare", "sweep", "actionword")),
    ], ids=["train-heads", "train-epsilon", "train-code-len", "compare-heads",
            "sweep-heads", "sweep-second-size", "sweep-repeated-size",
            "sweep-repeated-padded-size", "actionword-heads",
            "train-odd-width", "compare-odd-width", "sweep-odd-width",
            "actionword-odd-width"])
    def test_bad_model_flag_exits_2_before_writing(
            self, tmp_path, prepared_dir, capsys, command, flags, message):
        # every arm's config, and each sweep size's, is checked before
        # --out is created
        out = tmp_path / "out"
        assert run_cli(command, "--data", str(prepared_dir), "--out",
                       str(out), "--epochs", "1", *FAST_MODEL, *flags) == 2
        assert message in assert_one_line_error(capsys)
        assert not out.exists()


    def test_lone_surrogate_split_token_exits_2(self, tmp_path, prepared_dir,
                                                capsys):
        # the token would reach sweep's written target vocabulary
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        lines = (bad / "train.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        record["comment_tokens"].append("\ud800")
        lines[2] = json.dumps(record)
        (bad / "train.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--data", str(bad), "--out", str(out),
                       "--epochs", "1", "--vocab-sizes", "1000",
                       *FAST_MODEL) == 2
        assert "train.jsonl:3" in assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, lines", [
        ("train", ["--epochs", "2"], 2),
        ("compare", ["--epochs", "1"], 2),
        ("sweep", ["--epochs", "1", "--vocab-sizes", "50"], 9),
        ("actionword", ["--epochs", "1"], 3)],
        ids=["train", "compare", "sweep", "actionword"])
    def test_epoch_seconds_on_stderr(self, tmp_path, prepared_dir, capsys,
                                     command, flags, lines):
        # one line per epoch per arm; no output file holds wall clock
        assert run_cli(command, "--data", str(prepared_dir), "--out",
                       str(tmp_path / "out"), *FAST_MODEL, *flags) == 0
        err = capsys.readouterr().err
        epochs = re.findall(r"^eps=\S+ epoch (\d+) loss \S+ val_acc \S+ "
                            r"\d+\.\d{3} s$", err, re.MULTILINE)
        assert len(epochs) == lines
        assert epochs[:2] == (["1", "2"] if command == "train" else ["1", "1"])

    @pytest.mark.parametrize("command, encodes", [
        ("train", 2), ("predict", 1), ("compare", 3), ("actionword", 3)])
    def test_each_split_encoded_once(self, tmp_path, prepared_dir,
                                     checkpoint, monkeypatch, command,
                                     encodes):
        calls = []

        def counting_encode(*args):
            calls.append(args[0])
            return encode_corpus(*args)

        monkeypatch.setattr(labcli, "encode_corpus", counting_encode)
        flags = (["--checkpoint", str(checkpoint)] if command == "predict"
                 else ["--epochs", "1", *FAST_MODEL])
        assert run_cli(command, "--data", str(prepared_dir), "--out",
                       str(tmp_path / "out"), *flags) == 0
        assert len(calls) == encodes


    def test_sweep_reads_each_ast_once(self, tmp_path, prepared_dir,
                                       monkeypatch):
        passes = []

        def counting_sbt(sample):
            passes.append(sample.id)
            return sbt_tokens_for_sample(sample)

        monkeypatch.setattr(trainer, "sbt_tokens_for_sample", counting_sbt)
        flags = ["--data", str(prepared_dir), "--arch", "ast-attendgru",
                 "--seed", "3", "--epochs", "1", *FAST_MODEL]
        both = tmp_path / "both"
        assert run_cli("sweep", *flags, "--out", str(both),
                       "--vocab-sizes", "40,60") == 0
        prepared = load_prepared_dir(prepared_dir)
        assert sorted(passes) == sorted(
            s.id for split in (prepared.train, prepared.val, prepared.test)
            for s in split)
        # and each size writes what a sweep over that size alone writes
        alone = {}
        for size in ("40", "60"):
            assert run_cli("sweep", *flags, "--out", str(tmp_path / size),
                           "--vocab-sizes", size) == 0
            alone.update(tree_digest(tmp_path / size))
        assert tree_digest(both) == alone

    @pytest.mark.parametrize("command, split", [
        ("train", "train"), ("train", "val"), ("actionword", "train"),
        ("actionword", "val"), ("actionword", "test"), ("predict", "test")])
    def test_empty_training_split_exits_2_naming_it(
            self, tmp_path, prepared_dir, checkpoint, capsys, command, split):
        small = copy_prepared(prepared_dir, tmp_path / "prep")
        (small / f"{split}.jsonl").write_text("")
        out = tmp_path / "out"
        flags = (["--checkpoint", str(checkpoint)] if command == "predict"
                 else ["--epochs", "1", *FAST_MODEL])
        assert run_cli(command, "--data", str(small), "--out", str(out),
                       *flags) == 2
        err = assert_one_line_error(capsys)
        assert f"{split}.jsonl holds no samples" in err
        assert not out.exists()

    def test_split_project_not_a_string_exits_2(self, tmp_path, prepared_dir,
                                                capsys):
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        lines = (bad / "train.jsonl").read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "project": None},
                              sort_keys=True)
        (bad / "train.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run_cli("train", "--data", str(bad), "--out", str(out),
                       "--epochs", "1", *FAST_MODEL) == 2
        err = assert_one_line_error(capsys)
        assert ("train.jsonl:2:" in err
                and "project must be a string, got NoneType" in err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_one_sample_test_split_exits_2_before_training(
            self, tmp_path, prepared_dir, capsys, command):
        small = copy_prepared(prepared_dir, tmp_path / "prep")
        first = (small / "test.jsonl").read_text().splitlines()[0]
        (small / "test.jsonl").write_text(first + "\n")
        out = tmp_path / "out"
        assert run_cli(command, "--data", str(small), "--out", str(out),
                       "--epochs", "1", *FAST_MODEL) == 2
        err = assert_one_line_error(capsys)
        assert "test.jsonl holds 1 sample" in err and "at least 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, split", [
        ("train", "val"), ("predict", "test"), ("compare", "train"),
        ("sweep", "test"), ("actionword", "val")])
    def test_sample_without_code_tokens_exits_2_before_writing(
            self, tmp_path, prepared_dir, checkpoint, capsys, command, split):
        # an all-PAD source row leaves attention nothing to attend to
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        lines = (bad / f"{split}.jsonl").read_text().splitlines()
        record = {**json.loads(lines[0]), "code_tokens": []}
        lines[0] = json.dumps(record, sort_keys=True)
        (bad / f"{split}.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        flags = (["--checkpoint", str(checkpoint)] if command == "predict"
                 else ["--epochs", "1", *FAST_MODEL])
        assert run_cli(command, "--data", str(bad), "--out", str(out),
                       *flags) == 2
        err = assert_one_line_error(capsys)
        assert f"sample {record['id']!r} has no code tokens" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, split", [
        ("train", "val"), ("compare", "test"), ("sweep", "test"),
        ("actionword", "train")])
    def test_sample_without_ast_exits_2_before_training(
            self, tmp_path, prepared_dir, capsys, command, split):
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        lines = (bad / f"{split}.jsonl").read_text().splitlines()
        record = {**json.loads(lines[-1]), "ast": None}
        lines[-1] = json.dumps(record, sort_keys=True)
        (bad / f"{split}.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run_cli(command, "--data", str(bad), "--out", str(out),
                       "--arch", "ast-attendgru", "--epochs", "1",
                       *FAST_MODEL) == 2
        err = assert_one_line_error(capsys)
        assert f"{split}.jsonl: sample {record['id']!r} has no AST" in err
        assert not out.exists()

    def test_predict_sample_without_ast_exits_2_naming_the_file(
            self, tmp_path, prepared_dir, capsys):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--data", str(prepared_dir), "--out",
                       str(run_dir), "--arch", "ast-attendgru",
                       "--epochs", "1", *FAST_MODEL) == 0
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        lines = (bad / "test.jsonl").read_text().splitlines()
        record = {**json.loads(lines[-1]), "ast": None}
        lines[-1] = json.dumps(record, sort_keys=True)
        (bad / "test.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "p.jsonl"
        assert run_cli("predict", "--data", str(bad), "--out", str(out),
                       "--checkpoint", str(run_dir / "checkpoint.json")) == 2
        err = assert_one_line_error(capsys)
        assert f"test.jsonl: sample {record['id']!r} has no AST" in err
        assert not out.exists()


class TestCompare:
    def test_pair_layout(self, tmp_path, prepared_dir):
        out = tmp_path / "pair"
        assert run_cli("compare", "--data", str(prepared_dir), "--out",
                       str(out), "--seed", "3", "--epochs", "2",
                       *FAST_MODEL) == 0
        csv_lines = (out / "pair_report.csv").read_text().splitlines()
        assert len(csv_lines) == 3
        baseline, treated = csv_lines[1], csv_lines[2]
        assert baseline.startswith("0,")
        assert baseline.endswith("-,-,-,-")
        assert treated.startswith("0.1,")
        assert "-" not in treated.split(",")[4:]
        assert (out / "pair_report.md").exists()
        assert (out / "checkpoint_eps0.json").exists()
        assert (out / "checkpoint_eps0p1.json").exists()
        assert (out / "predictions_eps0.jsonl").exists()
        assert (out / "predictions_eps0p1.jsonl").exists()

    def test_epsilon_out_of_range_exits_2(self, tmp_path, prepared_dir,
                                          capsys):
        # 0 would train the epsilon = 0 baseline twice and test nothing
        for epsilon in ("1.5", "0"):
            out = tmp_path / "pair"
            assert run_cli("compare", "--data", str(prepared_dir), "--out",
                           str(out), "--epsilon", epsilon, *FAST_MODEL) == 2
            assert "(0, 1]" in assert_one_line_error(capsys)
            assert not out.exists()


class TestDiversityCommand:
    def test_same_file_zero_delta(self, tmp_path, prepared_dir):
        pair_dir = tmp_path / "pair"
        assert run_cli("compare", "--data", str(prepared_dir), "--out",
                       str(pair_dir), "--seed", "3", "--epochs", "1",
                       *FAST_MODEL) == 0
        preds = pair_dir / "predictions_eps0.jsonl"
        out = tmp_path / "div.csv"
        assert run_cli("diversity", "--predictions", str(preds), str(preds),
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("file,total_words,unique_words")
        assert lines[1].split(",")[4:] == ["0", "0"]
        assert lines[2].split(",")[4:] == ["0", "0"]
        assert (tmp_path / "div.md").read_text().startswith("| file")

    @pytest.mark.parametrize("name", ["div.md", "div", "run.eps0.1"])
    def test_out_written_as_csv_and_md(self, tmp_path, name, capsys):
        # a trailing .md (or .csv) is dropped; any other dotted part stays
        stem = name.removesuffix(".md")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": "a", "ref": ["x"],
                                     "pred": ["x", "y"]}) + "\n")
        assert run_cli("diversity", "--predictions", str(preds),
                       "--out", str(tmp_path / name)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
            f"{stem}.csv", f"{stem}.md", "preds.jsonl"])
        assert (tmp_path / f"{stem}.csv").read_text() == \
            capsys.readouterr().out
        assert (tmp_path / f"{stem}.md").read_text().startswith("| file")

    def test_out_naming_no_file_exits_2(self, tmp_path, monkeypatch,
                                        capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": "a", "ref": [], "pred": []})
                         + "\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli("diversity", "--predictions", str(preds),
                       "--out", ".") == 2
        assert_one_line_error(capsys)

    def test_malformed_predictions_exit_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        assert run_cli("diversity", "--predictions", str(bad)) == 2


class TestNumericFailureExit:
    def test_sweep_divergence_exits_3_with_partial_results(
            self, tmp_path, prepared_dir, monkeypatch):
        from smoothsum import trainer as TR
        from smoothsum.errors import NumericError
        real_train = TR.train
        calls = {"n": 0}

        def failing_train(model, train_set, val_set, config):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise NumericError("synthetic divergence in batch 0")
            return real_train(model, train_set, val_set, config)

        monkeypatch.setattr(labcli.trainer, "train", failing_train)
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--data", str(prepared_dir), "--out",
                       str(out), "--seed", "3", "--epochs", "1",
                       "--vocab-sizes", "60", *FAST_MODEL)
        assert code == 3
        partial = (out / "sweep_v60.csv").read_text().splitlines()
        assert len(partial) == 3  # header + the two completed rows


class TestActionword:
    def test_three_rows_and_label_space(self, tmp_path, prepared_dir, capsys):
        out = tmp_path / "aw"
        assert run_cli("actionword", "--data", str(prepared_dir), "--out",
                       str(out), "--seed", "3", "--epochs", "1",
                       *FAST_MODEL) == 0
        lines = (out / "actionword.csv").read_text().splitlines()
        assert lines[0].startswith("epsilon,micro_precision")
        assert [l.split(",")[0] for l in lines[1:]] == ["0", "0.1", "0.4"]
        assert (out / "actionword.md").read_text().startswith("| epsilon")


SMALL_WORDS = ("get", "set", "file", "name", "x")
SMALL_ASTS = ("(f (x))", "(function (name (get)) (body (file)))")
# a sample: a comment of up to twice --comment-len 4 words, and an AST
# that is one of SMALL_ASTS three times in four, else absent or empty
SMALL_SAMPLE = st.fixed_dictionaries({
    "project": st.sampled_from(("p1", "p2")),
    "code_tokens": st.lists(st.sampled_from(SMALL_WORDS), min_size=1,
                            max_size=6),
    "comment_tokens": st.lists(st.sampled_from(SMALL_WORDS), min_size=1,
                               max_size=8),
    "code_char_len": st.integers(0, 40),
    "ast": st.sampled_from((*SMALL_ASTS * 3, None, ""))})
# splits of 0-3 samples, of 2-3 half of the time
SMALL_SPLIT = st.one_of(st.lists(SMALL_SAMPLE, min_size=2, max_size=3),
                        st.lists(SMALL_SAMPLE, max_size=3))
SMALL_MODEL = ["--embed-dim", "8", "--hidden-dim", "8", "--code-len", "6",
               "--ast-len", "8", "--comment-len", "4", "--heads", "2",
               "--layers", "1", "--dropout", "0", "--batch-size", "2",
               "--epochs", "1"]


def write_small_prepared(directory: Path, splits, full_vocab) -> None:
    """A prepared directory of the given split samples. Each vocabulary is
    the specials alone, or, where full_vocab says so, the specials and
    every word or SBT token that a sample can hold."""
    directory.mkdir()
    for split, samples in zip(("train", "val", "test"), splits):
        (directory / f"{split}.jsonl").write_text("".join(
            json.dumps({**s, "id": f"{split}{i}"}) + "\n"
            for i, s in enumerate(samples)))
    ast_tokens = sorted({t for text in SMALL_ASTS
                         for t in sbt_from_sexpr(text)})
    for name, full, tokens in zip(("src", "tgt", "ast"), full_vocab,
                                  (SMALL_WORDS, SMALL_WORDS, ast_tokens)):
        (directory / f"vocab.{name}.txt").write_text("\n".join(
            [*SPECIAL_TOKENS, *(tokens if full else ())]) + "\n")


def cli_exits_cleanly(argv, out: Path, numeric_exit: bool = False,
                      refusal: str | None = None) -> None:
    """Run argv, which writes to out. It must exit 0, or exit 2 with one
    error: line as the last line of stderr and out absent or an empty
    directory; with numeric_exit, exit 3 after a numeric failure is also
    allowed. A given refusal must end the run in exit 2, and its error
    line must hold that text."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    lines = err.getvalue().splitlines()
    if refusal is not None:
        assert code == 2 and refusal in lines[-1], lines
    if code == 3 and numeric_exit:
        assert lines[-1].startswith("numeric failure: "), lines
    elif code != 0:
        assert code == 2, lines
        assert [line.startswith("error: ") for line in lines][-1:] == [True]
        assert sum(line.startswith("error: ") for line in lines) == 1, lines
        assert not out.exists() or (out.is_dir() and not any(out.iterdir()))


class TestCommandProperties:
    @settings(max_examples=100, deadline=None, database=None,
              derandomize=True)
    @given(st.tuples(*[SMALL_SPLIT] * 3),
           st.one_of(st.just((True, True, True)),
                     st.tuples(*[st.booleans()] * 3)),
           st.sampled_from(("attendgru", "ast-attendgru", "transformer")))
    def test_small_prepared_directories(self, splits, full_vocab, arch):
        """train, predict, compare, sweep and actionword on splits of 0-3
        samples, vocabularies of only the specials, comments longer than
        --comment-len and samples without an AST."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_small_prepared(tmp / "prep", splits, full_vocab)
            flags = ["--data", str(tmp / "prep"), "--arch", arch,
                     *SMALL_MODEL]
            def first_empty(names):
                """The refusal of the first empty split of names, a prefix
                of train, val, test."""
                return next((f"{split}.jsonl holds no samples"
                             for split, samples in zip(names, splits)
                             if not samples), None)
            # the first empty split that a command trains or validates on
            refusal = first_empty(("train", "val"))
            cli_exits_cleanly(["train", *flags, "--out", str(tmp / "train")],
                              tmp / "train", refusal=refusal)
            cli_exits_cleanly(["predict", "--data", str(tmp / "prep"),
                               "--checkpoint",
                               str(tmp / "train" / "checkpoint.json"),
                               "--out", str(tmp / "preds.jsonl")],
                              tmp / "preds.jsonl")
            cli_exits_cleanly(["compare", *flags, "--out",
                               str(tmp / "compare")], tmp / "compare",
                              refusal=refusal)
            # actionword also decodes the test split
            cli_exits_cleanly(["actionword", *flags, "--out",
                               str(tmp / "actionword")], tmp / "actionword",
                              refusal=first_empty(SPLITS))
            cli_exits_cleanly(["sweep", *flags, "--vocab-sizes", "6",
                               "--out", str(tmp / "sweep")], tmp / "sweep",
                              numeric_exit=True, refusal=refusal)


def test_console_entry_point(corpus_file, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "smoothsum.labcli", "prepare", "--data",
         str(corpus_file), "--out", str(tmp_path / "p"), "--seed", "1"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "prepared" in result.stdout
