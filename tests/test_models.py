from dataclasses import replace

import numpy as np
import pytest

from smoothsum import models as M
from smoothsum import tensor as T
from smoothsum import trainer as TR
from smoothsum.corpus import PAD, START, END
from smoothsum.errors import ConfigurationError, DataError
from smoothsum.rng import Rng

from conftest import (reference_attention, reference_dot_attention,
                      reference_gru_attention, reference_gru_step,
                      reference_linear, reference_matmul,
                      reference_split_heads, taped_nodes, total_size)


def tiny_config(arch, **overrides):
    base = dict(arch=arch, src_vocab=12, tgt_vocab=11, embed_dim=6,
                hidden_dim=6, code_len=5, ast_len=6, comment_len=5,
                heads=2, layers=1, dropout_rate=0.0, epsilon=0.0)
    if arch == "ast_attendgru":
        base["ast_vocab"] = 12
    base.update(overrides)
    return M.ModelConfig(**base)


CODE = np.array([[4, 5, 6, 0, 0], [7, 8, 9, 10, 0]])
AST = np.array([[4, 5, 6, 7, 0, 0], [5, 6, 7, 8, 9, 0]])
COMMENTS = np.array([[START, 4, 5, END, PAD], [START, 6, 7, 8, END]])


class TestBuildModel:
    def test_attendgru_parameter_count(self):
        # independent arithmetic: embeddings 2*(20*8); two GRU stacks of
        # 3*(8*8) + 3*(8*8) + 3*8 each; output dense (16*20 + 20)
        config = M.ModelConfig("attendgru", src_vocab=20, tgt_vocab=20,
                               embed_dim=8, hidden_dim=8, code_len=4,
                               comment_len=4)
        expected = 2 * 20 * 8 + 2 * (3 * 64 + 3 * 64 + 3 * 8) + 16 * 20 + 20
        model = M.build_model(config, seed=0)
        assert total_size(model.params) == expected

    def test_transformer_parameter_count(self):
        # embeddings 2*(16*8); per layer the encoder has 4 attention mats
        # (8*8), ff 8*32 + 32 + 32*8 + 8 and two norms (2*8 each); the
        # decoder adds a second attention block and a third norm; output
        # dense 8*16 + 16
        config = M.ModelConfig("transformer", src_vocab=16, tgt_vocab=16,
                               embed_dim=8, hidden_dim=8, code_len=4,
                               comment_len=4, heads=2, layers=2)
        enc = 4 * 64 + (8 * 32 + 32 + 32 * 8 + 8) + 2 * 16
        dec = 8 * 64 + (8 * 32 + 32 + 32 * 8 + 8) + 3 * 16
        expected = 2 * 16 * 8 + 2 * (enc + dec) + 8 * 16 + 16
        model = M.build_model(config, seed=0)
        assert total_size(model.params) == expected

    def test_same_seed_identical(self):
        a = M.build_model(tiny_config("attendgru"), seed=9)
        b = M.build_model(tiny_config("attendgru"), seed=9)
        for name in a.params.names():
            np.testing.assert_array_equal(a.params[name].data,
                                          b.params[name].data)

    def test_different_seed_differs(self):
        a = M.build_model(tiny_config("attendgru"), seed=1)
        b = M.build_model(tiny_config("attendgru"), seed=2)
        assert any(not np.array_equal(a.params[n].data, b.params[n].data)
                   for n in a.params.names())

    def test_ast_variant_name_superset(self):
        plain = M.build_model(tiny_config("attendgru"), seed=0)
        ast = M.build_model(tiny_config("ast_attendgru"), seed=0)
        assert set(plain.params.names()) < set(ast.params.names())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_config("lstm")
        with pytest.raises(ConfigurationError):
            tiny_config("transformer", heads=4, hidden_dim=6)
        with pytest.raises(ConfigurationError):
            tiny_config("transformer", embed_dim=4, hidden_dim=8, heads=2)
        with pytest.raises(ConfigurationError):
            tiny_config("attendgru", dropout_rate=1.0)
        with pytest.raises(ConfigurationError):
            tiny_config("attendgru", epsilon=-0.2)
        with pytest.raises(ConfigurationError, match="code_len"):
            tiny_config("attendgru", code_len=1)


class TestForward:
    @pytest.mark.parametrize("arch", ["attendgru", "ast_attendgru",
                                      "transformer"])
    def test_rows_are_distributions(self, arch):
        model = M.build_model(tiny_config(arch), seed=5)
        ast = AST if arch == "ast_attendgru" else None
        probs = M.forward_step(model, CODE, ast, COMMENTS[:, :-1])
        assert probs.shape == (2, 4, 11)
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones((2, 4)),
                                   atol=1e-9)
        assert (probs >= 0).all()

    @pytest.mark.parametrize("arch", ["attendgru", "ast_attendgru",
                                      "transformer"])
    def test_consecutive_decoder_calls_match_one_call(self, arch):
        # the positions of later calls follow those of earlier ones: the
        # GRU state and the transformer's key/value caches carry over
        model = M.build_model(tiny_config(arch, comment_len=8), seed=9)
        ast = AST if arch == "ast_attendgru" else None
        prefix = np.array([[START, 4, 5, 6, 7, 8, 9],
                           [START, 9, 8, 7, 6, 5, 4]])
        with T.no_grad():
            whole = M._decoder(model, CODE, ast)(prefix).data
            decode = M._decoder(model, CODE, ast)
            parts = [decode(prefix[:, cut]).data for cut in
                     (slice(0, 2), slice(2, 3), slice(3, None))]
        np.testing.assert_allclose(np.concatenate(parts, axis=1), whole,
                                   rtol=0, atol=1e-12)

    def test_transformer_causal_integrity(self):
        model = M.build_model(tiny_config("transformer"), seed=6)
        prefix = np.array([[START, 4, 5, 6]])
        base = M.forward_step(model, CODE[:1], None, prefix)
        for t in range(3):
            tampered = prefix.copy()
            tampered[0, t + 1:] = 9
            probs = M.forward_step(model, CODE[:1], None, tampered)
            np.testing.assert_allclose(probs[0, t], base[0, t], atol=1e-10)

    def test_gru_decoder_no_peek(self):
        model = M.build_model(tiny_config("attendgru"), seed=6)
        prefix = np.array([[START, 4, 5, 6]])
        base = M.forward_step(model, CODE[:1], None, prefix)
        tampered = prefix.copy()
        tampered[0, 2:] = 8
        probs = M.forward_step(model, CODE[:1], None, tampered)
        np.testing.assert_allclose(probs[0, :2], base[0, :2], atol=1e-12)

    def test_zero_params_uniform(self):
        model = M.build_model(tiny_config("attendgru"), seed=0)
        for name, tensor in model.params.items():
            tensor.data[:] = 0.0
        probs = M.forward_step(model, CODE, None, COMMENTS[:, :-1])
        np.testing.assert_allclose(probs, np.full_like(probs, 1 / 11),
                                   atol=1e-12)

    def test_out_of_range_ids_rejected(self):
        model = M.build_model(tiny_config("attendgru"), seed=0)
        with pytest.raises(DataError):
            M.forward_step(model, np.array([[99, 0, 0, 0, 0]]), None,
                           COMMENTS[:1, :-1])

    def test_ast_arch_requires_ast(self):
        model = M.build_model(tiny_config("ast_attendgru"), seed=0)
        with pytest.raises(DataError):
            M.forward_step(model, CODE, None, COMMENTS[:, :-1])


def stepper_rows(model, code_ids, ast_ids, ids):
    """The decoder's next-token rows (B, L, V), called one position at a
    time, when fed START and then ids[:, :-1], the path greedy decoding
    takes to emit ids (B, L)."""
    with T.no_grad():
        decode = M._decoder(model, code_ids, ast_ids)
        tokens = np.full(len(code_ids), START)
        rows = []
        for t in range(ids.shape[1]):
            logits = decode(tokens[:, None])
            rows.append(T.softmax(logits, axis=-1).data[:, 0])
            tokens = ids[:, t]
    return np.stack(rows, axis=1)


class TestGreedyDecode:
    def test_max_len_one(self):
        model = M.build_model(tiny_config("attendgru", comment_len=2), seed=3)
        result = M.greedy_decode(model, CODE[0:1], None)[0]
        assert len(result) == 1

    def test_deterministic(self):
        model = M.build_model(tiny_config("transformer"), seed=3)
        a = M.greedy_decode(model, CODE[0:1], None)[0]
        b = M.greedy_decode(model, CODE[0:1], None)[0]
        assert a == b

    def test_ties_break_to_lowest_index(self):
        model = M.build_model(tiny_config("attendgru", comment_len=3), seed=0)
        for name, tensor in model.params.items():
            tensor.data[:] = 0.0
        result = M.greedy_decode(model, CODE[0:1], None)[0]
        assert result == [PAD, PAD]  # uniform rows tie toward index 0

    def test_argmax_of_logits_not_of_rounded_probabilities(self):
        # logits 0 and 5e-324 are distinct, but their softmax rounds them
        # to one probability, whose argmax would pick index 4
        model = M.build_model(tiny_config("attendgru", comment_len=3), seed=0)
        model.params["out.w"].data[:] = 0.0
        model.params["out.b"].data[:] = -10.0
        model.params["out.b"].data[4] = 0.0
        model.params["out.b"].data[5] = 5e-324
        assert M.greedy_decode(model, CODE[0:1], None)[0] == [5, 5]

    def test_logit_shift_invariance(self):
        model = M.build_model(tiny_config("attendgru"), seed=4)
        baseline = M.greedy_decode(model, CODE[0:1], None)[0]
        model.params["out.b"].data += 7.5  # uniform shift of every logit
        shifted = M.greedy_decode(model, CODE[0:1], None)[0]
        assert baseline == shifted

    @pytest.mark.parametrize("arch", ["attendgru", "ast_attendgru",
                                      "transformer"])
    def test_gru_steps_match_teacher_forcing(self, arch):
        # greedy decoding calls the decoder that forward_step calls once
        # over the prefix one position at a time, so each decoded
        # distribution equals the teacher-forced row for the decoded prefix
        model = M.build_model(tiny_config(arch, comment_len=9), seed=7)
        model.params["out.b"].data[END] -= 50.0  # decode the full length
        ast = AST[:1] if arch == "ast_attendgru" else None
        result = M.greedy_decode(model, CODE[0:1], ast)[0]
        assert len(result) == 8
        prefix = np.array([[START] + result[:-1]])
        probs = M.forward_step(model, CODE[:1], ast, prefix)[0]
        decoded = stepper_rows(model, CODE[:1], ast, np.array([result]))[0]
        np.testing.assert_allclose(decoded, probs, rtol=0, atol=1e-12)
        assert result == probs.argmax(axis=-1).tolist()

    def test_respects_end_token(self):
        model = M.build_model(tiny_config("attendgru"), seed=5)
        result = M.greedy_decode(model, CODE[0:1], None)[0]
        if END in result:
            assert result[-1] == END
        assert len(result) <= 4
        assert END not in [i for i in result if i not in (PAD, START, END)]


BATCH_CODE = np.array([[10, 9, 8, 0, 0], [4, 4, 4, 0, 0], [9, 11, 8, 0, 11],
                       [9, 9, 8, 8, 11], [6, 10, 9, 0, 7], [10, 8, 4, 10, 0],
                       [10, 5, 4, 0, 4], [8, 4, 6, 7, 7]])
BATCH_AST = np.array([[5, 11, 7, 6, 4, 9], [8, 10, 4, 5, 11, 6],
                      [4, 7, 9, 10, 5, 8], [6, 6, 11, 4, 7, 10],
                      [9, 5, 8, 11, 6, 4], [7, 4, 10, 9, 8, 5],
                      [11, 8, 5, 7, 9, 6], [10, 9, 6, 8, 4, 7]])


class TestBatchedDecode:
    # seed and END bias chosen so that the rows stop at different steps
    @pytest.mark.parametrize("arch, seed, end_bias", [
        ("attendgru", 2, 0.0), ("ast_attendgru", 2, 0.0),
        ("transformer", 0, 0.25)])
    def test_batch_matches_single_rows(self, arch, seed, end_bias):
        model = M.build_model(tiny_config(arch, comment_len=9), seed=seed)
        model.params["out.b"].data[END] += end_bias
        ast = BATCH_AST if arch == "ast_attendgru" else None
        batch = M.greedy_decode(model, BATCH_CODE, ast)
        singles = [M.greedy_decode(model, BATCH_CODE[i:i + 1],
                                   None if ast is None else ast[i:i + 1])[0]
                   for i in range(len(BATCH_CODE))]
        assert len({len(r) for r in singles}) >= 3
        assert isinstance(batch, list) and len(batch) == len(singles)
        assert all(isinstance(r, list) for r in singles + batch)
        padded = np.full((len(singles), model.config.comment_len - 1), PAD)
        for row, want in enumerate(singles):
            padded[row, :len(want)] = want
        batch_rows = stepper_rows(model, BATCH_CODE, ast, padded)
        for row, (got, want) in enumerate(zip(batch, singles)):
            assert got == want
            length = len(want)
            single_rows = stepper_rows(
                model, BATCH_CODE[row:row + 1],
                None if ast is None else ast[row:row + 1],
                padded[row:row + 1, :length])[0]
            assert want == single_rows.argmax(axis=-1).tolist()
            np.testing.assert_allclose(batch_rows[row, :length], single_rows,
                                       rtol=0, atol=1e-12)

    def test_bad_shapes_rejected(self):
        model = M.build_model(tiny_config("ast_attendgru"), seed=1)
        with pytest.raises(ConfigurationError):
            M.greedy_decode(model, CODE[None], AST[None])
        with pytest.raises(ConfigurationError):
            M.greedy_decode(model, CODE, AST[:1])
        transformer = M.build_model(tiny_config("transformer"), seed=1)
        with pytest.raises(ConfigurationError):  # one (T,) row
            M.greedy_decode(transformer, CODE[0], None)
        with pytest.raises(ConfigurationError):  # a 3-D code array
            M.greedy_decode(transformer, CODE[None], None)

    def test_decode_records_no_tape(self, monkeypatch):
        model = M.build_model(tiny_config("transformer"), seed=1)
        built = []
        original = T.Tensor.__init__

        def recording_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            built.append(obj)

        monkeypatch.setattr(T.Tensor, "__init__", recording_init)
        M.greedy_decode(model, CODE, None)
        assert built
        assert not any(t.requires_grad or t._parents for t in built)


def save_as_checkpoint(model, path):
    TR.save_checkpoint(TR.Checkpoint(model=model, train_config=TR.TrainConfig(),
                                     epoch=1, val_accuracy=0.0), path)


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("arch", ["attendgru", "transformer"])
    def test_bit_identical_forward(self, tmp_path, arch):
        model = M.build_model(tiny_config(arch), seed=8)
        path = tmp_path / "model.json"
        save_as_checkpoint(model, path)
        loaded = TR.load_checkpoint(path).model
        before = M.forward_step(model, CODE, None, COMMENTS[:, :-1])
        after = M.forward_step(loaded, CODE, None, COMMENTS[:, :-1])
        np.testing.assert_array_equal(before, after)

    def test_extreme_values_bit_identical(self, tmp_path):
        model = M.build_model(tiny_config("attendgru"), seed=8)
        values = np.array([-0.0, 0.0, 5e-324, 2.2250738585072e-309,
                           1.7976931348623157e308, -1.7976931348623157e308,
                           1.0, -2.5, 1 / 3, 1e-300, 123456.789])
        model.params["out.b"].data = values.copy()
        save_as_checkpoint(model, tmp_path / "x.json")
        loaded = TR.load_checkpoint(tmp_path / "x.json").model
        for name, tensor in model.params.items():
            np.testing.assert_array_equal(
                loaded.params[name].data.view(np.uint64),
                tensor.data.view(np.uint64))

    def test_save_is_canonical(self, tmp_path):
        model = M.build_model(tiny_config("attendgru"), seed=8)
        save_as_checkpoint(model, tmp_path / "a.json")
        loaded = TR.load_checkpoint(tmp_path / "a.json").model
        save_as_checkpoint(loaded, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_corrupted_shape_rejected(self):
        model = M.build_model(tiny_config("attendgru"), seed=8)
        payload = M.model_to_dict(model)
        payload["params"]["out.b"]["shape"] = [3]
        with pytest.raises(DataError):
            M.model_from_dict(payload)

    def test_version_mismatch_rejected(self):
        model = M.build_model(tiny_config("attendgru"), seed=8)
        payload = M.model_to_dict(model)
        payload["format_version"] = 99
        with pytest.raises(DataError):
            M.model_from_dict(payload)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{broken")
        with pytest.raises(DataError):
            TR.load_checkpoint(path)


def reference_forward_gru(model, code_ids, ast_ids, prefix_ids):
    """The GRU models as a composition of per-op tape nodes, one GRU step
    per position in each encoder and in the decoder, and attention and the
    output projection per decoder step: the reference that the sequence
    kernel path is pinned to."""
    p = model.params
    batch = code_ids.shape[0]

    def encode(prefix, embed_name, ids):
        gru = {key: p[f"{prefix}.{key}"] for key in T.GRU_KEYS}
        state = T.Tensor(np.zeros((batch, model.config.hidden_dim)))
        states = []
        for t in range(ids.shape[1]):
            state = reference_gru_step(T.embedding(p[embed_name], ids[:, t]),
                                       state, gru)
            states.append(T.reshape(state, (batch, 1, -1)))
        return T.concat(states, axis=1), state

    src_states, state = encode("enc_gru", "src_embed", code_ids)
    memories = [(src_states, code_ids != PAD)]
    if model.config.arch == "ast_attendgru":
        memories.append((encode("ast_gru", "ast_embed", ast_ids)[0],
                         ast_ids != PAD))
    dec_gru = {key: p[f"dec_gru.{key}"] for key in T.GRU_KEYS}
    logits = []
    for t in range(prefix_ids.shape[1]):
        embedded = T.embedding(p["tgt_embed"], prefix_ids[:, t])
        state = reference_gru_step(embedded, state, dec_gru)
        contexts = [reference_dot_attention(state, states, mask)
                    for states, mask in memories]
        step = T.add(T.matmul(T.concat(contexts + [state], axis=-1),
                              p["out.w"]), p["out.b"])
        logits.append(T.reshape(step, (batch, 1, -1)))
    return T.concat(logits, axis=1)


class TestGruSequencePath:
    @pytest.mark.parametrize("arch", ["attendgru", "ast_attendgru"])
    def test_loss_and_gradients_match_per_op_reference(self, arch,
                                                       monkeypatch):
        model = M.build_model(tiny_config(arch, epsilon=0.1, embed_dim=8,
                                          hidden_dim=8), seed=11)
        ast = AST if arch == "ast_attendgru" else None

        def reference_decoder(model, code_ids, ast_ids):
            return lambda prefix_ids: reference_forward_gru(
                model, code_ids, ast_ids, prefix_ids)

        results = []
        for decoder in (reference_decoder, M._gru_decoder):
            monkeypatch.setattr(M, "_gru_decoder", decoder)
            model.params.zero_grads()
            loss, _ = M.sequence_loss(model, CODE, ast, COMMENTS)
            T.backward(loss, model.params)
            results.append((float(loss.data), {
                n: t.grad.copy() for n, t in model.params.items()}))
        (ref_loss, ref_grads), (loss, grads) = results
        assert loss == ref_loss
        for name in model.params.names():
            scale = max(np.abs(ref_grads[name]).max(), 1e-300)
            assert np.abs(grads[name] - ref_grads[name]).max() \
                <= 1e-12 * scale, name

    def test_forward_tape_has_no_per_step_nodes(self, monkeypatch):
        # the tape of a training forward pass does not grow with the code
        # or comment length
        built = []
        original = T.Tensor.__init__

        def recording_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            if obj._parents:
                built.append(obj)

        monkeypatch.setattr(T.Tensor, "__init__", recording_init)
        counts = []
        for length in (5, 13):
            model = M.build_model(tiny_config("attendgru", code_len=length,
                                              comment_len=length), seed=1)
            code = np.full((2, length), 4)
            comments = np.full((2, length), 5)
            comments[:, 0], comments[:, -1] = START, END
            built.clear()
            M.sequence_loss(model, code, None, comments)
            counts.append(len(built))
        assert counts[0] == counts[1]


class TestTapeFreed:
    def test_backward_frees_every_node_of_a_transformer_step(self,
                                                             monkeypatch):
        taped = []
        original = T.Tensor.__init__

        def recording_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            if obj._backward_fn is not None:
                taped.append(obj)

        monkeypatch.setattr(T.Tensor, "__init__", recording_init)
        model = M.build_model(tiny_config("transformer", dropout_rate=0.1,
                                          epsilon=0.1), seed=4)
        model.params.zero_grads()
        loss, _ = M.sequence_loss(model, CODE, None, COMMENTS, rng=Rng(5))
        assert {id(t) for t in taped} == {id(t) for t in taped_nodes(loss)}
        T.backward(loss, model.params)
        for node in taped:
            assert node._backward_fn is T._spent and node._parents == ()
            assert node.grad is None or node is loss
        assert loss.grad is not None
        for name, t in model.params.items():
            assert t.grad.shape == t.data.shape, name


class TestFoldedMatmul:
    """The transformer through T.matmul, whose products with a weight run
    over folded rows, against the same model through one numpy product per
    item."""

    @staticmethod
    def _run(model):
        model.params.zero_grads()
        loss, _ = M.sequence_loss(model, CODE, None, COMMENTS, rng=Rng(5))
        T.backward(loss, model.params)
        grads = {n: t.grad for n, t in model.params.items()}
        return float(loss.data), grads, M.greedy_decode(model, CODE, None)

    def test_gradients_and_decoded_ids_match_per_item_products(
            self, monkeypatch):
        model = M.build_model(tiny_config("transformer", layers=2,
                                          dropout_rate=0.1, epsilon=0.1),
                              seed=4)
        loss, grads, ids = self._run(model)
        monkeypatch.setattr(T, "matmul", reference_matmul)
        monkeypatch.setattr(T, "linear", lambda x, w, b: T.add(
            reference_matmul(x, w), b))
        ref_loss, ref_grads, ref_ids = self._run(model)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, ref in ref_grads.items():
            assert np.abs(grads[name] - ref).max() \
                <= 1e-12 * np.abs(ref).max(), name
        assert ids == ref_ids


class TestFusedTransformerNodes:
    """The transformer through its fused nodes (one per attention core,
    head split and biased linear layer) against the same model through
    the per-op compositions that they replace."""

    @staticmethod
    def _model():
        return M.build_model(tiny_config("transformer", layers=2,
                                         dropout_rate=0.1, epsilon=0.1),
                             seed=4)

    def test_loss_gradients_and_decoded_ids_are_bitwise_equal(
            self, monkeypatch):
        model = self._model()
        results = [TestFoldedMatmul._run(model)]
        monkeypatch.setattr(T, "scaled_dot_attention", reference_attention)
        monkeypatch.setattr(T, "split_heads", reference_split_heads)
        monkeypatch.setattr(T, "linear", reference_linear)
        results.append(TestFoldedMatmul._run(model))
        (loss, grads, ids), (ref_loss, ref_grads, ref_ids) = results
        assert loss == ref_loss
        for name, ref in ref_grads.items():
            assert grads[name].tobytes() == ref.tobytes(), name
        assert ids == ref_ids

    def test_forward_step_matches_softmax_node(self):
        model = self._model()
        probs = M.forward_step(model, CODE, None, COMMENTS[:, :-1])
        with T.no_grad():
            logits = M.forward_logits(model, CODE, None, COMMENTS[:, :-1])
        assert probs.tobytes() == T.softmax(logits, axis=-1).data.tobytes()

    def test_step_tape_size(self):
        # the per-op compositions taped 161 nodes for this step
        model = self._model()
        loss, _ = M.sequence_loss(model, CODE, None, COMMENTS, rng=Rng(5))
        assert len(taped_nodes(loss)) == 92

    @pytest.mark.parametrize("arch", ["transformer", "attendgru"])
    def test_no_gradient_shares_memory(self, arch):
        # backward without zero_grads, so every parameter's first gradient
        # is handed over by a closure; may_share_memory also flags disjoint
        # slices of one buffer, such as the GRU's packed gate gradients
        model = M.build_model(tiny_config(arch, dropout_rate=0.1,
                                          epsilon=0.1), seed=4)
        loss, _ = M.sequence_loss(model, CODE, None, COMMENTS, rng=Rng(5))
        T.backward(loss, model.params)
        items = model.params.items()
        for name, t in items:
            for other_name, other in items:
                assert not np.may_share_memory(t.grad, other.data), \
                    (name, other_name)
                assert other is t or not np.may_share_memory(
                    t.grad, other.grad), (name, other_name)


class TestFusedGruAttention:
    """The GRU models through T.dot_attention, the attention node of the
    transformer over one head, against the same models through the per-op
    chain that it replaces."""

    @staticmethod
    def _run(model, ast):
        model.params.zero_grads()
        loss, _ = M.sequence_loss(model, CODE, ast, COMMENTS)
        T.backward(loss, model.params)
        grads = {n: t.grad for n, t in model.params.items()}
        return float(loss.data), grads, M.greedy_decode(model, CODE, ast)

    @pytest.mark.parametrize("arch", ["attendgru", "ast_attendgru"])
    def test_loss_gradients_and_decoded_ids_are_bitwise_equal(
            self, arch, monkeypatch):
        model = M.build_model(tiny_config(arch, epsilon=0.1), seed=4)
        ast = AST if arch == "ast_attendgru" else None
        results = [self._run(model, ast)]
        monkeypatch.setattr(T, "dot_attention", reference_gru_attention)
        results.append(self._run(model, ast))
        (loss, grads, ids), (ref_loss, ref_grads, ref_ids) = results
        assert loss == ref_loss
        for name, ref in ref_grads.items():
            assert grads[name].tobytes() == ref.tobytes(), name
        assert ids == ref_ids

    @pytest.mark.parametrize("arch, nodes", [("attendgru", 13),
                                             ("ast_attendgru", 18)])
    def test_step_tape_size(self, arch, nodes):
        # the per-op chain taped 15 and 22 nodes for this step
        model = M.build_model(tiny_config(arch, epsilon=0.1), seed=4)
        ast = AST if arch == "ast_attendgru" else None
        loss, _ = M.sequence_loss(model, CODE, ast, COMMENTS)
        assert len(taped_nodes(loss)) == nodes


class TestSequenceLoss:
    def test_matches_manual_composition(self):
        from smoothsum.smoothing import cross_entropy, smooth_targets
        model = M.build_model(tiny_config("attendgru", epsilon=0.1), seed=2)
        loss, count = M.sequence_loss(model, CODE, None, COMMENTS)
        probs = M.forward_step(model, CODE, None, COMMENTS[:, :-1])
        targets = COMMENTS[:, 1:]
        manual = []
        for b in range(2):
            for t in range(4):
                if targets[b, t] == PAD:
                    continue
                manual.append(cross_entropy(
                    probs[b, t], smooth_targets(int(targets[b, t]), 11, 0.1)))
        assert count == len(manual)
        assert abs(float(loss.data) - np.mean(manual)) < 1e-9

    def test_gradients_match_finite_differences(self):
        model = M.build_model(tiny_config("attendgru", epsilon=0.1), seed=2)
        assert M.grad_check_model(model, CODE, None, COMMENTS) < 1e-4

    @staticmethod
    def _loss_and_grads(model, ast, rng):
        model.params.zero_grads()
        loss, _ = M.sequence_loss(model, CODE, ast, COMMENTS, rng=rng)
        T.backward(loss, model.params)
        return float(loss.data), {n: t.grad.tobytes()
                                  for n, t in model.params.items()}

    @pytest.mark.parametrize("arch, dropout", [("transformer", 0.0),
                                               ("attendgru", 0.1),
                                               ("ast_attendgru", 0.1)])
    def test_pass_without_rng_equals_pass_with_one(self, arch, dropout):
        # a transformer at dropout 0, and the GRU models at any rate,
        # train exactly as they infer
        model = M.build_model(tiny_config(arch, epsilon=0.1,
                                          dropout_rate=dropout), seed=3)
        ast = AST if arch == "ast_attendgru" else None
        assert self._loss_and_grads(model, ast, None) \
            == self._loss_and_grads(model, ast, Rng(5))

    def test_transformer_pass_without_rng_applies_no_dropout(self):
        config = tiny_config("transformer", epsilon=0.1, dropout_rate=0.3)
        model = M.build_model(config, seed=3)
        plain = M.Model(config=replace(config, dropout_rate=0.0),
                        params=model.params)
        inference = self._loss_and_grads(model, None, None)
        assert inference == self._loss_and_grads(plain, None, Rng(5))
        assert inference[0] != self._loss_and_grads(model, None, Rng(5))[0]

    def test_target_outside_vocabulary_rejected(self):
        # the last position is a target only, never part of the prefix
        comments = COMMENTS.copy()
        comments[1, -1] = 11
        model = M.build_model(tiny_config("attendgru"), seed=2)
        with pytest.raises(DataError, match="comment id outside"):
            M.sequence_loss(model, CODE, None, comments)
