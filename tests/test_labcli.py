import base64
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smoothsum import labcli
from smoothsum.errors import ConfigurationError
from smoothsum.metrics import ComparisonResult, read_predictions
from smoothsum.synthetic import generate_samples, write_corpus_jsonl

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

    def test_usage_error_exits_1(self):
        assert run_cli("prepare") == 1
        assert run_cli("not-a-command") == 1


CORPUS_FIELDS = ("id", "project", "code", "comment", "ast")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
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


def prepare_exits_cleanly(data: bytes) -> None:
    """prepare on a corpus file holding data exits 0 with nothing on
    stderr, or exits 2 with exactly one error: line."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.jsonl"
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run_cli("prepare", "--data", str(path), "--out",
                           str(Path(tmp) / "prep"), "--src-vocab", "20",
                           "--tgt-vocab", "20")
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
    def test_arbitrary_field_values(self, records):
        prepare_exits_cleanly("".join(
            json.dumps(r) + "\n" for r in records).encode())


class TestTrainPredictScore:
    def test_full_chain(self, tmp_path, prepared_dir):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--data", str(prepared_dir), "--out",
                       str(run_dir), "--seed", "3", "--epochs", "2",
                       "--epsilon", "0.1", *FAST_MODEL) == 0
        assert (run_dir / "checkpoint.json").exists()
        history = (run_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss_nats,val_acc,seconds"
        assert len(history) == 3

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
        ("--checkpoint", "missing.json"), ("--tgt-vocab", "missing.txt")])
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

    def test_non_utf8_source_vocabulary_exits_2(self, tmp_path, prepared_dir,
                                                 capsys):
        bad = copy_prepared(prepared_dir, tmp_path / "prep")
        with open(bad / "vocab.src.txt", "ab") as fh:
            fh.write(b"\xff\n")
        assert run_cli("train", "--data", str(bad), "--out",
                       str(tmp_path / "run"), "--epochs", "1",
                       *FAST_MODEL) == 2
        assert "vocab.src.txt" in assert_one_line_error(capsys)

    def test_non_utf8_target_vocabulary_exits_2(self, tmp_path, prepared_dir,
                                                 checkpoint, capsys):
        vocab = tmp_path / "tgt.txt"
        vocab.write_bytes((prepared_dir / "vocab.tgt.txt").read_bytes()
                          + b"\xff\n")
        assert run_cli("predict", "--data", str(prepared_dir), "--out",
                       str(tmp_path / "p.jsonl"), "--checkpoint",
                       str(checkpoint), "--tgt-vocab", str(vocab)) == 2
        assert "tgt.txt" in assert_one_line_error(capsys)

    def test_score_missing_predictions_exits_2(self, tmp_path, capsys):
        assert run_cli("score", "--predictions",
                       str(tmp_path / "nothere.jsonl"), "--out",
                       str(tmp_path / "scores")) == 2
        assert "nothere.jsonl" in assert_one_line_error(capsys)

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
        out = tmp_path / "pair"
        assert run_cli("compare", "--data", str(prepared_dir), "--out",
                       str(out), "--epsilon", "1.5", *FAST_MODEL) == 2
        assert_one_line_error(capsys)
        assert not list(tmp_path.rglob("checkpoint*.json"))


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

    @pytest.mark.parametrize("name", ["div.md", "div"])
    def test_out_written_as_csv_and_md(self, tmp_path, name, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": "a", "ref": ["x"],
                                     "pred": ["x", "y"]}) + "\n")
        assert run_cli("diversity", "--predictions", str(preds),
                       "--out", str(tmp_path / name)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "div.csv", "div.md", "preds.jsonl"]
        assert (tmp_path / "div.csv").read_text() == capsys.readouterr().out
        assert (tmp_path / "div.md").read_text().startswith("| file")

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


def test_console_entry_point(corpus_file, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "smoothsum.labcli", "prepare", "--data",
         str(corpus_file), "--out", str(tmp_path / "p"), "--seed", "1"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "prepared" in result.stdout
