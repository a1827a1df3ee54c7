import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smoothsum import models as M
from smoothsum import tensor as T
from smoothsum import trainer as TR
from smoothsum.corpus import (PAD, Sample, build_vocabulary,
                              build_token_vocabulary, sbt_tokens_for_sample)
from smoothsum.errors import ConfigurationError, DataError
from smoothsum.rng import Rng
from smoothsum.smoothing import loss_floor
from smoothsum.synthetic import generate_samples

from conftest import b64, samples_from_records


def small_corpus(n=24, seed=3):
    return samples_from_records(generate_samples(n, seed=seed,
                                                 unique_pairs=True))


def build_setup(corpus, epsilon=0.0, hidden=16, arch="attendgru"):
    src_vocab = build_vocabulary(corpus, 300, "source")
    tgt_vocab = build_vocabulary(corpus, 300, "target")
    ast_vocab = None
    if arch == "ast_attendgru":
        ast_vocab = build_token_vocabulary(
            [sbt_tokens_for_sample(s) for s in corpus], 300)
    config = M.ModelConfig(arch, src_vocab.size, tgt_vocab.size,
                           embed_dim=hidden, hidden_dim=hidden, code_len=24,
                           ast_len=40, comment_len=8, heads=2, layers=1,
                           dropout_rate=0.0, epsilon=epsilon,
                           ast_vocab=ast_vocab.size if ast_vocab else 0)
    dataset = TR.encode_corpus(corpus, config, src_vocab, tgt_vocab, ast_vocab)
    return config, dataset, src_vocab, tgt_vocab


class TestEncodeCorpus:
    def test_shapes_and_references(self):
        corpus = small_corpus()
        config, dataset, _, _ = build_setup(corpus)
        assert dataset.code.shape == (len(corpus), 24)
        assert dataset.comments.shape == (len(corpus), 8)
        assert len(dataset.references) == len(corpus)

    def test_no_ast_columns_without_ast_arch(self):
        for arch in ("attendgru", "transformer"):
            _, dataset, _, _ = build_setup(small_corpus(), arch=arch)
            assert dataset.ast.shape == (len(dataset), 0)
            assert dataset.ast.dtype == np.int64

    def test_ast_encoding(self):
        corpus = small_corpus()
        config, dataset, _, _ = build_setup(corpus, arch="ast_attendgru")
        assert dataset.ast is not None
        assert dataset.ast.shape == (len(corpus), 40)

    def test_invalid_ast_names_sample(self):
        sample = Sample(id="s7", project="p", code_tokens=["a"],
                        comment_tokens=["b"], ast_text="(a " * 300 + ")" * 300,
                        code_char_len=1)
        with pytest.raises(DataError, match=r"sample 's7'.*deeper than"):
            sbt_tokens_for_sample(sample)

    def test_missing_ast_rejected(self):
        sample = Sample(id="x", project="p", code_tokens=["a"],
                        comment_tokens=["b"], ast_text=None, code_char_len=1)
        corpus = [sample]
        with pytest.raises(DataError):
            build_setup(corpus, arch="ast_attendgru")

    def test_empty_corpus_rejected(self):
        corpus = small_corpus()
        config, _, src_vocab, tgt_vocab = build_setup(corpus)
        with pytest.raises(DataError):
            TR.encode_corpus([], config,
                             src_vocab, tgt_vocab)


class TestTrainingLoop:
    def test_loss_decreases_and_history_complete(self):
        corpus = small_corpus()
        config, dataset, _, _ = build_setup(corpus)
        model = M.build_model(config, seed=1)
        tc = TR.TrainConfig(epochs=5, batch_size=8, learning_rate=2e-3, seed=2)
        ckpt, history = TR.train(model, dataset, dataset, tc)
        assert [r.epoch for r in history.records] == [1, 2, 3, 4, 5]
        assert history.records[-1].loss_nats < history.records[0].loss_nats

    def test_bit_identical_reruns(self):
        corpus = small_corpus()
        outcomes = []
        for _ in range(2):
            config, dataset, _, _ = build_setup(corpus, epsilon=0.1)
            model = M.build_model(config, seed=7)
            tc = TR.TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3,
                                seed=7)
            ckpt, history = TR.train(model, dataset, dataset, tc)
            outcomes.append((
                tuple(r.loss_nats for r in history.records),
                tuple(r.val_accuracy for r in history.records),
                {n: ckpt.model.params[n].data.copy()
                 for n in ckpt.model.params.names()},
            ))
        assert outcomes[0][0] == outcomes[1][0]
        assert outcomes[0][1] == outcomes[1][1]
        for name in outcomes[0][2]:
            np.testing.assert_array_equal(outcomes[0][2][name],
                                          outcomes[1][2][name])

    def test_loss_floor_respected_every_epoch(self):
        corpus = small_corpus()
        config, dataset, _, _ = build_setup(corpus, epsilon=0.1)
        model = M.build_model(config, seed=4)
        tc = TR.TrainConfig(epochs=4, batch_size=8, learning_rate=2e-3, seed=4)
        _, history = TR.train(model, dataset, dataset, tc)
        floor = loss_floor(0.1, config.tgt_vocab)
        for record in history.records:
            assert record.loss_nats >= floor - 1e-9

    def test_pad_positions_contribute_nothing(self):
        corpus = small_corpus()
        config, dataset, src_vocab, tgt_vocab = build_setup(corpus)
        wide_config = M.ModelConfig(
            "attendgru", config.src_vocab, config.tgt_vocab, embed_dim=16,
            hidden_dim=16, code_len=24, comment_len=12, epsilon=0.0,
            dropout_rate=0.0)
        wide = TR.encode_corpus(corpus, wide_config, src_vocab, tgt_vocab)
        model_a = M.build_model(config, seed=5)
        model_b = M.build_model(wide_config, seed=5)
        # comment_len is not part of any parameter shape, so both models
        # share identical parameters; extra PAD columns must not move the
        # masked mean loss
        loss_a, count_a = M.sequence_loss(model_a, dataset.code, None,
                                          dataset.comments)
        loss_b, count_b = M.sequence_loss(model_b, wide.code, None,
                                          wide.comments)
        assert count_a == count_b
        assert abs(float(loss_a.data) - float(loss_b.data)) < 1e-12

    def test_divergence_names_batch(self):
        corpus = small_corpus()
        config, dataset, _, _ = build_setup(corpus)
        model = M.build_model(config, seed=1)
        model.params["out.w"].data[0, 0] = np.inf
        tc = TR.TrainConfig(epochs=1, batch_size=8, seed=1)
        from smoothsum.errors import NumericError
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="batch"):
                TR.train(model, dataset, dataset, tc)

    def test_selection_rule_prefers_earliest_best(self):
        corpus = small_corpus()
        config, dataset, _, _ = build_setup(corpus)
        model = M.build_model(config, seed=2)
        tc = TR.TrainConfig(epochs=6, batch_size=8, learning_rate=2e-3, seed=2)
        ckpt, history = TR.train(model, dataset, dataset, tc)
        accuracies = [r.val_accuracy for r in history.records]
        best = max(accuracies)
        assert ckpt.val_accuracy == best
        assert ckpt.epoch == accuracies.index(best) + 1

    def test_checkpoint_holds_best_epoch_parameters(self):
        corpus = small_corpus()
        config, dataset, _, _ = build_setup(corpus)

        def run(epochs):
            tc = TR.TrainConfig(epochs=epochs, batch_size=8,
                                learning_rate=5e-3, seed=2)
            return TR.train(M.build_model(config, seed=2), dataset, dataset,
                            tc)[0]

        ckpt = run(6)
        assert ckpt.epoch < 6
        shorter = run(ckpt.epoch)
        for name in ckpt.model.params.names():
            np.testing.assert_array_equal(ckpt.model.params[name].data,
                                          shorter.model.params[name].data)
        assert TR.validation_token_accuracy(ckpt.model, dataset, 64) == \
            ckpt.val_accuracy


class TestAdam:
    def test_matches_the_textbook_expression_bitwise(self):
        rng = Rng(6)
        store = T.ParamStore()
        for name, shape in (("w", (3, 4)), ("b", (4,))):
            store.add(name, rng.uniform_array(shape) * 2 - 1)
        expected = {n: t.data.copy() for n, t in store.items()}
        m = {n: np.zeros_like(v) for n, v in expected.items()}
        v = {n: np.zeros_like(value) for n, value in expected.items()}
        optimizer = TR.Adam(store, learning_rate=3e-3)
        b1, b2 = TR.ADAM_BETA1, TR.ADAM_BETA2
        for step in range(1, 4):
            for name, t in store.items():
                t.grad = rng.uniform_array(t.data.shape) * 2 - 1
                g = t.grad
                m[name] = b1 * m[name] + (1 - b1) * g
                v[name] = b2 * v[name] + (1 - b2) * g * g
                m_hat = m[name] / (1.0 - b1 ** step)
                v_hat = v[name] / (1.0 - b2 ** step)
                expected[name] = expected[name] - 3e-3 * m_hat / (
                    np.sqrt(v_hat) + TR.ADAM_EPS)
            optimizer.step()
            for name, t in store.items():
                np.testing.assert_array_equal(t.data, expected[name])
                np.testing.assert_array_equal(optimizer.m[name], m[name])
                np.testing.assert_array_equal(optimizer.v[name], v[name])


class TestValidationAccuracy:
    def test_untrained_near_chance(self):
        rng = Rng(31)
        n_vocab = 50
        config = M.ModelConfig("attendgru", n_vocab, n_vocab, embed_dim=8,
                               hidden_dim=8, code_len=6, comment_len=8,
                               dropout_rate=0.0)
        code = rng.uniform_array((40, 6))
        code_ids = (code * (n_vocab - 4) + 4).astype(np.int64)
        comments = (rng.uniform_array((40, 8)) * (n_vocab - 4) + 4)
        comments = comments.astype(np.int64)
        comments[:, 0] = 1
        dataset = TR.EncodedDataset(
            sample_ids=[str(i) for i in range(40)], code=code_ids,
            comments=comments, ast=np.zeros((40, 0), dtype=np.int64),
            references=[["x"]] * 40)
        model = M.build_model(config, seed=11)
        accuracy = TR.validation_token_accuracy(model, dataset, 64)
        positions = 40 * 7
        mean = positions / n_vocab
        sigma = (positions * (1 / n_vocab) * (1 - 1 / n_vocab)) ** 0.5
        assert accuracy * positions <= mean + 5 * sigma

    def test_bounds(self):
        corpus = small_corpus()
        config, dataset, _, _ = build_setup(corpus)
        model = M.build_model(config, seed=1)
        acc = TR.validation_token_accuracy(model, dataset, 64)
        assert 0.0 <= acc <= 1.0

    def test_empty_dataset_rejected(self):
        corpus = small_corpus()
        config, dataset, _, _ = build_setup(corpus)
        model = M.build_model(config, seed=1)
        empty = TR.EncodedDataset(sample_ids=[], code=np.zeros((0, 4)),
                                  comments=np.zeros((0, 4)),
                                  ast=np.zeros((0, 0)), references=[])
        with pytest.raises(DataError):
            TR.validation_token_accuracy(model, empty, 64)


class TestCheckpointFiles:
    def _checkpoint(self):
        corpus = small_corpus(n=12)
        config, dataset, _, _ = build_setup(corpus)
        model = M.build_model(config, seed=1)
        tc = TR.TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3, seed=1)
        ckpt, _ = TR.train(model, dataset, dataset, tc)
        return ckpt, dataset

    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt, _ = self._checkpoint()
        TR.save_checkpoint(ckpt, tmp_path / "a.json")
        loaded = TR.load_checkpoint(tmp_path / "a.json")
        TR.save_checkpoint(loaded, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_loaded_accuracy_consistent(self, tmp_path):
        ckpt, dataset = self._checkpoint()
        TR.save_checkpoint(ckpt, tmp_path / "c.json")
        loaded = TR.load_checkpoint(tmp_path / "c.json")
        recomputed = TR.validation_token_accuracy(loaded.model, dataset, 64)
        assert abs(recomputed - loaded.val_accuracy) < 1e-9

    def test_loaded_model_decodes_identically(self, tmp_path):
        ckpt, dataset = self._checkpoint()
        TR.save_checkpoint(ckpt, tmp_path / "d.json")
        loaded = TR.load_checkpoint(tmp_path / "d.json")
        for i in (0, 3, 7):
            a = M.greedy_decode(ckpt.model, dataset.code[i:i + 1], None)[0]
            b = M.greedy_decode(loaded.model, dataset.code[i:i + 1], None)[0]
            assert a == b

    def test_train_config_stored_once(self, tmp_path):
        ckpt, _ = self._checkpoint()
        TR.save_checkpoint(ckpt, tmp_path / "e.json")
        payload = json.loads((tmp_path / "e.json").read_text())
        assert payload["format_version"] == 3
        assert payload["train_config"] == {
            "epochs": 2, "batch_size": 8, "learning_rate": 1e-3, "seed": 1}
        assert payload["config"]["epsilon"] == 0.0

    def test_missing_fields_rejected(self, tmp_path):
        ckpt, _ = self._checkpoint()
        import json
        payload = M.model_to_dict(ckpt.model)
        (tmp_path / "bare.json").write_text(json.dumps(payload))
        with pytest.raises(DataError):
            TR.load_checkpoint(tmp_path / "bare.json")

    def test_history_csv_format(self, tmp_path):
        corpus = small_corpus(n=12)
        config, dataset, _, _ = build_setup(corpus)
        model = M.build_model(config, seed=1)
        tc = TR.TrainConfig(epochs=2, batch_size=8, seed=1)
        _, history = TR.train(model, dataset, dataset, tc)
        history.write_csv(tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss_nats,val_acc"
        assert len(lines) == 3
        assert lines[1].startswith("1,")


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TR.TrainConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        TR.TrainConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        TR.TrainConfig(learning_rate=0.0)


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None,
                             derandomize=True)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


def valid_checkpoint_payload():
    config = M.ModelConfig("attendgru", src_vocab=6, tgt_vocab=6, embed_dim=2,
                           hidden_dim=2, code_len=3, comment_len=3)
    ckpt = TR.Checkpoint(model=M.build_model(config, seed=0),
                         train_config=TR.TrainConfig(), epoch=1,
                         val_accuracy=0.5)
    with tempfile.TemporaryDirectory() as tmp:
        TR.save_checkpoint(ckpt, Path(tmp) / "c.json")
        return json.loads((Path(tmp) / "c.json").read_text())


VALID_PAYLOAD = valid_checkpoint_payload()


def edited(path, value):
    """The valid payload with the field at path replaced by value."""
    payload = json.loads(json.dumps(VALID_PAYLOAD))
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return payload


def edited_payloads():
    """The valid payload with one field replaced by arbitrary JSON: a
    top-level field, a config or train_config field, or a parameter
    entry, its shape or its data; or a parameter's data replaced by the
    base64 of arbitrary bytes."""
    data_paths = [("params", n, "data") for n in VALID_PAYLOAD["params"]]
    paths = ([(k,) for k in VALID_PAYLOAD if k != "format_version"]
             + [(k, f) for k in ("config", "train_config")
                for f in VALID_PAYLOAD[k]]
             + [("params", n, "shape") for n in VALID_PAYLOAD["params"]]
             + data_paths
             + [("params", n) for n in VALID_PAYLOAD["params"]])
    return st.one_of(
        st.builds(edited, st.sampled_from(paths), JSON_VALUES),
        st.builds(edited, st.sampled_from(data_paths),
                  st.binary(max_size=64).map(b64)))


INFINITE_OUT_B = edited(("params", "out.b", "data"),
                        b64(np.full(6, np.inf).tobytes()))


def load_or_data_error(payload_bytes):
    """load_checkpoint either loads the file or raises DataError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        path.write_bytes(payload_bytes)
        try:
            return TR.load_checkpoint(path)
        except DataError as exc:
            assert str(exc)
            return None


class TestLoadCheckpointProperties:
    @PROPERTY_SETTINGS
    @given(st.one_of(st.text(max_size=60).map(str.encode),
                     st.binary(max_size=40)))
    @example(b"[" * 100000)
    @example(b"\xff{}")
    def test_arbitrary_text(self, data):
        load_or_data_error(data)

    @PROPERTY_SETTINGS
    @given(st.one_of(
        st.dictionaries(st.sampled_from(sorted(VALID_PAYLOAD)) | st.text(
            max_size=6), JSON_VALUES, max_size=6),
        edited_payloads()))
    @example(edited(("epoch",), float("inf")))
    @example(edited(("config", "hidden_dim"), 2.0))
    @example(edited(("config", "code_len"), 2.5))
    @example(edited(("train_config", "epochs"), True))
    @example(INFINITE_OUT_B)
    def test_arbitrary_objects_with_valid_version(self, payload):
        payload = {**payload, "format_version": M.CHECKPOINT_FORMAT_VERSION}
        loaded = load_or_data_error(json.dumps(payload).encode())
        if loaded is not None:
            assert loaded.model.params.names() == sorted(payload["params"])

    def test_valid_payload_loads(self):
        loaded = load_or_data_error(json.dumps(VALID_PAYLOAD).encode())
        assert loaded is not None and loaded.epoch == 1

    def test_infinite_parameter_rejected(self):
        assert load_or_data_error(json.dumps(INFINITE_OUT_B).encode()) is None
