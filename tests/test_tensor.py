import math
import warnings

import numpy as np
import pytest

from smoothsum import tensor as T
from smoothsum.corpus import PAD
from smoothsum.errors import ConfigurationError, NumericError
from smoothsum.rng import Rng, stable_token_seed, uniform_rows
from smoothsum.trainer import GRAD_CLIP_NORM

from conftest import (mul, reference_attention, reference_gru_step,
                      reference_linear, reference_linear_relu,
                      reference_residual_layer_norm, reference_smoothed_loss,
                      reference_split_heads, reference_weight_grad,
                      swap_heads_and_positions, tanh, tensor_sum)


def zero_gru_params(in_dim, hid):
    params = {}
    for key in ("wz", "uz", "wr", "ur", "wh", "uh"):
        rows = in_dim if key.startswith("w") else hid
        params[key] = T.Tensor(np.zeros((rows, hid)))
    for key in ("bz", "br", "bh"):
        params[key] = T.Tensor(np.zeros(hid))
    return params


def random_gru_store(rng, in_dim, hid, scale=1.0):
    """A ParamStore holding the nine GRU parameters, drawn uniformly from
    [-scale, scale)."""
    store = T.ParamStore()
    for key in T.GRU_KEYS:
        shape = ((in_dim if key.startswith("w") else hid, hid)
                 if key[0] in "wu" else (hid,))
        store.add(key, (rng.uniform_array(shape) * 2 - 1) * scale)
    return store


# fused node -> the per-op reference it is pinned to
FUSED_AND_REFERENCE = {
    "linear": (T.linear, reference_linear),
    "linear_relu": (T.linear_relu, reference_linear_relu),
    "attention": (T.scaled_dot_attention, reference_attention),
    "residual": (T.residual_layer_norm, reference_residual_layer_norm),
}


class TestRng:
    def test_identical_seed_identical_stream(self):
        a = [Rng(99).next_u64() for _ in range(5)]
        b = [Rng(99).next_u64() for _ in range(5)]
        assert a == b

    def test_vectorized_matches_scalar(self):
        r1, r2 = Rng(7), Rng(7)
        scalars = [r1.random() for _ in range(33)]
        block = r2.uniform_array((33,))
        np.testing.assert_array_equal(scalars, block)

    def test_uniform_rows_match_per_seed_streams_bitwise(self):
        seeds = [0, 1, 42, -3, (1 << 64) - 1, 1 << 70,
                 stable_token_seed("token-embed:file")]
        for n in (1, 5, 64):
            block = uniform_rows(seeds, n)
            assert block.shape == (len(seeds), n)
            for row, seed in zip(block, seeds):
                assert (row.tobytes()
                        == Rng(seed).uniform_array((n,)).tobytes())
        assert uniform_rows([], 4).shape == (0, 4)

    def test_frozen_first_draws(self):
        # golden values pin the generator across platforms and releases
        rng = Rng(42)
        assert [rng.next_u64() for _ in range(3)] == [
            10996452266160306281, 2958219263312191191, 3069497704473277141]

    def test_derive_is_stable_and_separate(self):
        base = Rng(5)
        a = base.derive("x").random()
        b = base.derive("x").random()
        c = base.derive("y").random()
        assert a == b and a != c

    def test_shuffle_deterministic_permutation(self):
        items = list(range(10))
        Rng(3).shuffle(items)
        again = list(range(10))
        Rng(3).shuffle(again)
        assert items == again and sorted(items) == list(range(10))

    def test_choose_indices(self):
        out = Rng(1).choose_indices(50, 10)
        assert len(out) == 10 and out == sorted(out)
        assert Rng(1).choose_indices(5, 9) == list(range(5))


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(T.softmax(T.Tensor([1., 1, 1, 1])).data,
                                   [0.25] * 4, atol=1e-15)

    def test_analytic(self):
        np.testing.assert_allclose(
            T.softmax(T.Tensor([0.0, math.log(3)])).data, [0.25, 0.75],
            atol=1e-12)

    def test_normalized_and_argmax_preserving(self):
        rng = Rng(12)
        for _ in range(100):
            x = rng.uniform_array((3 + rng.randint(40),)) * 200 - 100
            p = T.softmax(T.Tensor(x)).data
            assert abs(p.sum() - 1.0) < 1e-12
            assert int(np.argmax(p)) == int(np.argmax(x))


class TestSigmoid:
    def test_matches_three_exp_expression_bitwise(self):
        x = np.concatenate([Rng(18).uniform_array((10000,)) * 120 - 60,
                            [0.0, -0.0, 60.0, -60.0]])
        reference = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                             np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        assert np.array_equal(T._sigmoid(x), reference)


class TestGruStep:
    def test_zero_params_halve_state(self):
        params = zero_gru_params(1, 1)
        out = T.gru_step(T.Tensor([[3.0]]), T.Tensor([[0.4]]), params)
        np.testing.assert_allclose(out.data, [[0.2]], atol=1e-15)

    def test_all_zero(self):
        params = zero_gru_params(2, 2)
        out = T.gru_step(T.Tensor([[0.0, 0.0]]), T.Tensor([[0.0, 0.0]]),
                         params)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_output_bounded(self):
        rng = Rng(13)
        for _ in range(50):
            d, h = 1 + rng.randint(6), 1 + rng.randint(6)
            params = {}
            for key in ("wz", "uz", "wr", "ur", "wh", "uh"):
                rows = d if key.startswith("w") else h
                params[key] = T.Tensor(rng.uniform_array((rows, h)) * 4 - 2)
            for key in ("bz", "br", "bh"):
                params[key] = T.Tensor(rng.uniform_array((h,)) * 2 - 1)
            x = rng.uniform_array((1, d)) * 6 - 3
            state = rng.uniform_array((1, h)) * 6 - 3
            out = T.gru_step(T.Tensor(x), T.Tensor(state), params).data
            bound = np.maximum(np.abs(state), 1.0)
            assert (np.abs(out) <= bound + 1e-12).all()

    def test_dimension_mismatch(self):
        params = zero_gru_params(3, 2)
        with pytest.raises(ConfigurationError):
            T.gru_step(T.Tensor([[1.0]]), T.Tensor([[0.0, 0.0]]), params)

    @pytest.mark.parametrize("x_shape, h_shape", [((4, 2), (4, 3)),
                                                  ((4, 3), (4, 2))])
    def test_mismatch_rejected_like_per_op_step(self, x_shape, h_shape):
        store = random_gru_store(Rng(20), 3, 3)
        x, h = T.Tensor(np.ones(x_shape)), T.Tensor(np.ones(h_shape))
        with pytest.raises(ConfigurationError):
            reference_gru_step(x, h, dict(store.items()))
        with pytest.raises(ConfigurationError):
            T.gru_step(x, h, dict(store.items()))

    @pytest.mark.parametrize("x_shape, h_shape", [((4, 3), (5, 3)),
                                                  ((4, 1, 3), (4, 3))])
    def test_batch_or_rank_mismatch_rejected(self, x_shape, h_shape):
        weights = dict(random_gru_store(Rng(20), 3, 3).items())
        with pytest.raises(ConfigurationError):
            T.gru_step(T.Tensor(np.ones(x_shape)), T.Tensor(np.ones(h_shape)),
                       weights)

    def test_matches_per_op_step(self):
        # the old composition of per-op nodes is the reference: states and
        # the gradients of x, h and all nine parameters agree to 1e-12
        rng = Rng(21)
        for batch, in_dim, hid in ((1, 1, 1), (3, 5, 4), (7, 4, 6)):
            store = random_gru_store(rng, in_dim, hid, scale=2.0)
            store.add("x", rng.uniform_array((batch, in_dim)) * 6 - 3)
            store.add("h", rng.uniform_array((batch, hid)) * 2 - 1)
            mix = rng.uniform_array((batch, hid)) - 0.5
            results = []
            for step in (reference_gru_step, T.gru_step):
                store.zero_grads()
                out = step(store["x"], store["h"], dict(store.items()))
                T.backward(tensor_sum(mul(out, mix)), store)
                results.append((out.data, {n: t.grad.copy()
                                           for n, t in store.items()}))
            (ref, ref_grads), (got, got_grads) = results
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
            for name in store.names():
                scale = max(np.abs(ref_grads[name]).max(), 1e-300)
                assert np.abs(got_grads[name] - ref_grads[name]).max() \
                    <= 1e-12 * scale, name


class TestGruSequence:
    @pytest.mark.parametrize("steps", [1, 5])
    def test_gradients_match_finite_differences(self, steps):
        # x, h0 and all nine parameters, against the C2 bound
        rng = Rng(22 + steps)
        store = random_gru_store(rng, 3, 4)
        store.add("x", rng.uniform_array((2, steps, 3)) * 2 - 1)
        store.add("h0", rng.uniform_array((2, 4)) * 2 - 1)
        mix = rng.uniform_array((2, steps, 4)) - 0.5

        def loss_fn():
            states = T.gru_sequence(store["x"], store["h0"],
                                    dict(store.items()))
            return tensor_sum(mul(states, mix))

        assert T.grad_check(loss_fn, store) < 1e-4

    def test_matches_stepping(self):
        # every state of the sequence equals gru_step applied in turn
        rng = Rng(23)
        weights = dict(random_gru_store(rng, 3, 4).items())
        x = rng.uniform_array((2, 6, 3)) * 2 - 1
        state = T.Tensor(rng.uniform_array((2, 4)))
        states = T.gru_sequence(T.Tensor(x), state, weights).data
        for t in range(6):
            state = T.gru_step(T.Tensor(x[:, t]), state, weights)
            np.testing.assert_allclose(states[:, t], state.data, rtol=0,
                                       atol=1e-15)

    def test_reads_the_current_parameter_values(self):
        # an in-place update between two calls reaches the packed input
        # weights of the second call
        rng = Rng(24)
        params = dict(random_gru_store(rng, 3, 4).items())
        x = rng.uniform_array((2, 5, 3)) * 2 - 1
        h0 = rng.uniform_array((2, 4))
        first = T.gru_sequence(x, h0, params).data
        params["wz"].data += rng.uniform_array((3, 4)) - 0.5
        second = T.gru_sequence(x, h0, params).data
        state = T.Tensor(h0)
        for t in range(5):
            state = reference_gru_step(x[:, t], state, params)
            np.testing.assert_allclose(second[:, t], state.data, rtol=1e-12,
                                       atol=1e-15)
        assert np.abs(second - first).max() > 1e-3


class TestDotAttention:
    def test_identical_rows_uniform_weights(self):
        enc = T.Tensor(np.tile([1.0, 2.0], (1, 4, 1)))
        ctx = T.dot_attention(T.Tensor([[[0.3, -0.1]]]), enc)
        np.testing.assert_allclose(ctx.data, [[[1.0, 2.0]]], atol=1e-12)

    def test_sharp_scores_approach_one_hot(self):
        # the context approaches the memory row that the query selects
        enc = T.Tensor(np.array([[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]]))
        previous_gap = 1.0
        for scale in (5.0, 10.0, 100.0):
            ctx = T.dot_attention(T.Tensor([[[scale, 0.0]]]), enc)
            gap = np.abs(ctx.data[0, 0] - enc.data[0, 0]).max()
            assert gap <= previous_gap
            previous_gap = gap
        assert previous_gap < 1e-12

    def test_uniform_weights_give_row_mean(self):
        rng = Rng(14)
        enc = rng.uniform_array((1, 5, 3))
        ctx = T.dot_attention(T.Tensor(np.zeros((1, 1, 3))), T.Tensor(enc))
        np.testing.assert_allclose(ctx.data[:, 0], enc.mean(axis=1),
                                   atol=1e-12)

    def test_mask_excludes_positions(self):
        # the masked row's values do not move the context
        enc = np.array([[[5.0, 0.0], [1.0, 1.0], [0.0, 5.0]]])
        mask = np.array([[[True, True, False]]])
        contexts = []
        for masked_row in ([0.0, 5.0], [-40.0, 90.0]):
            enc[0, 2] = masked_row
            contexts.append(T.dot_attention(T.Tensor([[[1.0, 1.0]]]),
                                            T.Tensor(enc), mask=mask).data)
        np.testing.assert_array_equal(contexts[0], contexts[1])
        unmasked = T.dot_attention(T.Tensor([[[1.0, 1.0]]]),
                                   T.Tensor(enc[:, :2])).data
        np.testing.assert_allclose(contexts[0], unmasked, rtol=0, atol=1e-15)

    def test_query_positions_attend_independently(self):
        # each of L query rows gets the context it would get alone, under
        # the same per-batch key mask
        rng = Rng(24)
        queries = rng.uniform_array((2, 4, 3)) * 2 - 1
        enc = T.Tensor(rng.uniform_array((2, 5, 3)) * 2 - 1)
        mask = np.array([[[True, True, True, False, False]], [[True] * 5]])
        ctx = T.dot_attention(T.Tensor(queries), enc, mask=mask)
        for row in range(4):
            one_ctx = T.dot_attention(T.Tensor(queries[:, row:row + 1]), enc,
                                      mask=mask)
            np.testing.assert_allclose(ctx.data[:, row:row + 1], one_ctx.data,
                                       rtol=0, atol=1e-15)

    def test_two_dim_queries_rejected(self):
        enc = T.Tensor(np.ones((2, 3, 2)))
        with pytest.raises(ConfigurationError):
            T.dot_attention(T.Tensor(np.ones((2, 2))), enc)

    def test_fully_masked_errors(self):
        enc = T.Tensor(np.ones((1, 3, 2)))
        with pytest.raises(NumericError):
            T.dot_attention(T.Tensor([[[1.0, 0.0]]]), enc,
                            mask=np.array([[[False, False, False]]]))


class TestMultiHeadAttention:
    def _identity_weights(self, d):
        eye = T.Tensor(np.eye(d))
        return eye, eye, eye, eye

    def test_single_head_identity_reduces_to_scaled_dot(self):
        rng = Rng(15)
        d = 4
        q = rng.uniform_array((3, d))
        kv = rng.uniform_array((5, d))
        wq, wk, wv, wo = self._identity_weights(d)
        out = T.multi_head_attention(T.Tensor(q), T.Tensor(kv), T.Tensor(kv),
                                     1, wq, wk, wv, wo).data
        for row in range(3):
            scores = kv @ q[row] / math.sqrt(d)
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            np.testing.assert_allclose(out[row], weights @ kv, atol=1e-12)

    def test_causal_mask_blocks_future(self):
        rng = Rng(16)
        d, length = 4, 6
        wq, wk, wv, wo = (T.Tensor(rng.uniform_array((d, d)) - 0.5)
                          for _ in range(4))
        x = rng.uniform_array((length, d))
        base = T.multi_head_attention(T.Tensor(x), T.Tensor(x), T.Tensor(x),
                                      2, wq, wk, wv, wo,
                                      mask=T.causal_mask(length)).data
        for t in range(length - 1):
            perturbed = x.copy()
            perturbed[t + 1:] += 3.0
            out = T.multi_head_attention(
                T.Tensor(perturbed), T.Tensor(perturbed), T.Tensor(perturbed),
                2, wq, wk, wv, wo, mask=T.causal_mask(length)).data
            np.testing.assert_allclose(out[t], base[t], atol=1e-10)

    def test_causal_mask_after_past_positions(self):
        # each of 2 new positions sees the 3 earlier ones and itself
        np.testing.assert_array_equal(T.causal_mask(2, 3), [
            [True, True, True, True, False], [True, True, True, True, True]])

    def test_zero_values_zero_output(self):
        rng = Rng(17)
        d = 4
        wq, wk, wv, wo = self._identity_weights(d)
        out = T.multi_head_attention(
            T.Tensor(rng.uniform_array((3, d))),
            T.Tensor(rng.uniform_array((3, d))),
            T.Tensor(np.zeros((3, d))), 2, wq, wk, wv, wo).data
        np.testing.assert_array_equal(out, np.zeros((3, d)))

    def test_indivisible_heads(self):
        eye = T.Tensor(np.eye(4))
        x = T.Tensor(np.zeros((2, 4)))
        with pytest.raises(ConfigurationError):
            T.multi_head_attention(x, x, x, 3, eye, eye, eye, eye)


class TestPositionalEncoding:
    def test_row_zero_alternates(self):
        table = T.positional_encoding(5, 8)
        np.testing.assert_array_equal(table[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_bounded(self):
        table = T.positional_encoding(64, 10)
        assert (table >= -1).all() and (table <= 1).all()

    def test_sin_of_one(self):
        assert abs(T.positional_encoding(2, 4)[1, 0] - math.sin(1.0)) < 1e-12

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            T.positional_encoding(4, 7)


def residual_operands(shape, seed):
    """x, y, gain and bias leaves of T.residual_layer_norm over shape."""
    rng = Rng(seed)
    return [T.Tensor(rng.uniform_array(s) * 2 - 1, requires_grad=True)
            for s in (shape, shape, shape[-1:], shape[-1:])]


class TestDropout:
    """The inverted dropout of T.residual_layer_norm on its branch y."""

    def test_rate_zero_identity(self):
        # rate 0 adds the branch as it is and draws nothing
        x, y, gain, bias = residual_operands((3, 6), seed=41)
        rng = Rng(1)
        out = T.residual_layer_norm(x, y, gain, bias, 0.0, rng)
        np.testing.assert_array_equal(
            out.data, T.layer_norm(T.add(x, y), gain, bias).data)
        assert rng.random() == Rng(1).random()

    def test_inference_identity(self, monkeypatch):
        # without a stream, the branch is added as it is and nothing drawn
        def no_draw(*args):
            raise AssertionError("inference dropout drew from a stream")

        x, y, gain, bias = residual_operands((3, 6), seed=42)
        for method in ("uniform_array", "next_u64", "random"):
            monkeypatch.setattr(Rng, method, no_draw)
        plain = T.layer_norm(T.add(x, y), gain, bias).data
        for rate in (0.0, 0.3, 0.9):
            out = T.residual_layer_norm(x, y, gain, bias, rate, None)
            np.testing.assert_array_equal(out.data, plain)

    def test_expectation_preserved(self):
        # the branch's gradient is the sum's times the scaled keep-mask,
        # which is 0 or 1 / (1 - rate) and 1 on average
        rng = Rng(2)
        rate = 0.3
        ratios = []
        for _ in range(200):
            x, y, gain, bias = residual_operands((4, 100), seed=43)
            T.backward(tensor_sum(T.residual_layer_norm(x, y, gain, bias,
                                                        rate, rng)))
            ratios.append(y.grad / x.grad)
        ratios = np.stack(ratios)
        kept = ratios != 0
        np.testing.assert_allclose(ratios[kept], 1.0 / (1 - rate),
                                   rtol=1e-12)
        # per-element variance of the scaled mask: rate/(1-rate)
        sigma = math.sqrt(rate / (1 - rate) / ratios.size)
        assert abs(ratios.mean() - 1.0) < 3 * sigma + 1e-9

    def test_deterministic_masks(self):
        operands = residual_operands((4, 16), seed=44)
        a = T.residual_layer_norm(*operands, 0.4, Rng(9)).data
        b = T.residual_layer_norm(*operands, 0.4, Rng(9)).data
        np.testing.assert_array_equal(a, b)

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError, match="dropout rate"):
            T.residual_layer_norm(*residual_operands((2, 4), seed=45), 1.0,
                                  Rng(0))


class TestBackward:
    def test_linear_case(self):
        store = T.ParamStore()
        w = store.add("w", np.ones((3, 2)))
        x = T.Tensor(np.array([[2.0, -1.0, 0.5]]))
        loss = tensor_sum(T.matmul(x, w))
        T.backward(loss, store)
        np.testing.assert_allclose(w.grad, np.tile([[2.0], [-1.0], [0.5]],
                                                   (1, 2)))

    def test_constant_graph_zero_gradient(self):
        store = T.ParamStore()
        w = store.add("w", np.ones(4))
        loss = tensor_sum(T.Tensor(np.ones(3)))
        T.backward(loss, store)
        np.testing.assert_array_equal(w.grad, np.zeros(4))

    def test_shared_node_accumulates(self):
        store = T.ParamStore()
        w = store.add("w", np.array([3.0]))
        loss = tensor_sum(T.add(mul(w, 2.0), mul(w, 5.0)))
        T.backward(loss, store)
        np.testing.assert_allclose(w.grad, [7.0])

    @pytest.mark.parametrize("case", sorted(FUSED_AND_REFERENCE))
    def test_input_used_twice_by_fused_nodes_accumulates(self, case):
        # h and b take their first gradient over, without a copy, from a
        # fused node; the second use must add to it and nothing else
        rng = Rng(34)
        w_data = rng.uniform_array((2, 2, 3, 3)) * 2 - 1
        weights = [T.Tensor(rng.uniform_array((3, 3)) * 2 - 1)
                   for _ in range(2)]
        g = rng.uniform_array((2, 2, 3, 3)) * 2 - 1
        grads = []
        for node in FUSED_AND_REFERENCE[case]:
            w = T.Tensor(w_data.copy(), requires_grad=True)
            b = T.Tensor(np.linspace(-1.0, 1.0, 3), requires_grad=True)
            h = mul(w, 2.0)
            if case.startswith("linear"):
                out = T.add(node(h, weights[0], b), node(h, weights[1], b))
            elif case == "attention":
                out = T.add(T.reshape(node(h, h, h), g.shape), b)
            else:
                out = node(h, h, b, b, 0.3, Rng(53))
            T.backward(tensor_sum(mul(out, g)))
            grads.append(w.grad.tobytes() + b.grad.tobytes())
        assert grads[0] == grads[1]

    def test_nonfinite_gradient_names_parameter(self):
        store = T.ParamStore()
        bad = store.add("bad_param", np.array([1.0]))
        loss = tensor_sum(mul(bad, np.array([np.inf])))
        with pytest.raises(NumericError, match="bad_param"):
            T.backward(loss, store)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ConfigurationError):
            T.backward(T.Tensor(np.ones(3)))

    def test_grad_check_on_composite(self):
        rng = Rng(21)
        store = T.ParamStore()
        w1 = store.add("w1", T.glorot_uniform(rng, (4, 5)))
        w2 = store.add("w2", T.glorot_uniform(rng, (5, 3)))
        gain = store.add("gain", np.ones(5))
        bias = store.add("bias", np.zeros(5))
        x = rng.uniform_array((2, 4))

        def loss_fn():
            h = T.layer_norm(tanh(T.matmul(T.Tensor(x), w1)), gain, bias)
            p = T.log_softmax(T.matmul(h, w2), axis=-1)
            return mul(tensor_sum(p), -0.5)

        assert T.grad_check(loss_fn, store) < 1e-5

    def test_gradient_handed_to_both_parents_is_not_shared(self):
        # add hands one gradient to p and q; p then takes more from a
        # second consumer, which must not reach q
        p = T.Tensor(np.zeros(2), requires_grad=True)
        q = T.Tensor(np.zeros(2), requires_grad=True)
        T.backward(tensor_sum(T.add(T.add(p, q), mul(p, 3.0))))
        np.testing.assert_array_equal(p.grad, [4.0, 4.0])
        np.testing.assert_array_equal(q.grad, [1.0, 1.0])

    def test_second_backward_over_freed_graph_raises(self):
        store = T.ParamStore()
        w = store.add("w", np.array([3.0]))
        shared = mul(w, 2.0)
        loss = tensor_sum(shared)
        T.backward(loss, store)
        with pytest.raises(ConfigurationError, match="once"):
            T.backward(loss, store)
        # a second graph over a node the first backward freed, with a
        # fresh branch into w: it raises before any gradient changes
        with pytest.raises(ConfigurationError, match="once"):
            T.backward(tensor_sum(T.add(mul(w, 7.0),
                                        mul(shared, 5.0))), store)
        np.testing.assert_array_equal(w.grad, [2.0])


def assert_close_12(value, reference):
    assert value.shape == reference.shape
    assert np.abs(value - reference).max() <= 1e-12 * np.abs(reference).max()


class TestMatmulBackward:
    @staticmethod
    def _operands(a_shape, swapped):
        """a of a_shape (heads and positions swapped by a strided view when
        swapped), a (4, 6) weight and an output gradient of the product's
        shape, as a strided view when swapped."""
        rng = Rng(30)
        a = T.Tensor(rng.uniform_array(a_shape) * 2 - 1, requires_grad=True)
        b = T.Tensor(rng.uniform_array((4, 6)) * 2 - 1, requires_grad=True)
        x = swap_heads_and_positions(a) if swapped else a
        g = rng.uniform_array(x.data.shape[:-1] + (6,)) * 2 - 1
        if swapped:
            g = np.swapaxes(np.swapaxes(g, -2, -3).copy(), -2, -3)
        return a, b, x, g

    @pytest.mark.parametrize("a_shape", [(3, 5, 4), (2, 3, 5, 4)])
    def test_gradients_match_batched_reduction(self, a_shape):
        self._check_gradients(a_shape, swapped=False)

    @pytest.mark.parametrize("a_shape, swapped", [
        ((2, 3, 5, 4), True), ((5, 4), False)])
    def test_gradients_of_strided_and_2d_operands(self, a_shape, swapped):
        self._check_gradients(a_shape, swapped)

    def _check_gradients(self, a_shape, swapped):
        a, b, x, g = self._operands(a_shape, swapped)
        assert x.data.flags.c_contiguous != swapped
        assert g.flags.c_contiguous != swapped
        T.backward(tensor_sum(mul(T.matmul(x, b), g)))
        assert_close_12(b.grad, reference_weight_grad(x.data, g))
        reference = np.matmul(g, b.data.T)
        if swapped:
            reference = np.swapaxes(reference, -2, -3)
        assert_close_12(a.grad, reference)

    @pytest.mark.parametrize("a_shape, swapped", [
        ((3, 5, 4), False), ((2, 3, 5, 4), False), ((2, 3, 5, 4), True)])
    def test_forward_matches_numpy(self, a_shape, swapped):
        _, b, x, _ = self._operands(a_shape, swapped)
        assert_close_12(T.matmul(x, b).data, np.matmul(x.data, b.data))

    def test_right_operand_of_more_than_two_dims_rejected(self):
        with pytest.raises(ConfigurationError, match="2-D right operand"):
            T.matmul(np.ones((2, 3, 5, 4)), np.ones((2, 3, 4, 6)))

    def test_broadcast_right_operand_of_three_dims_rejected(self):
        with pytest.raises(ConfigurationError, match="2-D right operand"):
            T.matmul(np.ones((2, 3, 4, 5)), np.ones((3, 5, 6)))


def forward_and_gradients(build, shapes, seed):
    """Forward value and leaf gradients, as bytes, of build over fresh
    leaves of the given shapes, backpropagated from a random weighted sum
    of the output."""
    rng = Rng(seed)
    values = [rng.uniform_array(shape) * 2 - 1 for shape in shapes]
    leaves = [T.Tensor(v, requires_grad=True) for v in values]
    out = build(*leaves)
    weights = rng.uniform_array(out.data.shape) * 2 - 1
    T.backward(tensor_sum(mul(out, weights)))
    return [out.data.shape, out.data.tobytes()] + [
        leaf.grad.tobytes() for leaf in leaves]


ATTENTION_CASES = {
    # (query, key/value) shapes before the head split, heads, mask
    "key-mask": ((2, 3, 8), (2, 5, 8), 2,
                 np.array([[[True] * 3 + [False] * 2], [[True] * 5]])),
    "no-mask": ((2, 3, 8), (2, 5, 8), 2, None),
    "causal-after-past": ((2, 2, 8), (2, 5, 8), 4, T.causal_mask(2, 3)),
    "3-d": ((4, 6), (4, 6), 3, T.causal_mask(4)),
    "4-d-self": ((3, 4, 6), (3, 4, 6), 2, T.causal_mask(4)),
}


class TestFusedNodes:
    """scaled_dot_attention, split_heads and linear, one tape node each,
    against the per-op compositions they replace: forward values and every
    gradient bitwise equal."""

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_attention_matches_per_op_composition(self, case):
        q_shape, kv_shape, heads, mask = ATTENTION_CASES[case]
        results = []
        for split, attention in ((T.split_heads, T.scaled_dot_attention),
                                 (reference_split_heads, reference_attention)):
            def build(q, k, v):
                return attention(split(q, heads), split(k, heads),
                                 split(v, heads), mask)

            results.append(forward_and_gradients(
                build, (q_shape, kv_shape, kv_shape), seed=35))
        assert results[0] == results[1]

    def test_attention_of_head_split_leaves(self):
        # contiguous operands, as a decoder's self-attention keys and
        # values are once its cache is concatenated in front of them
        results = [forward_and_gradients(
            lambda q, k, v: attention(q, k, v, T.causal_mask(3, 2)),
            ((2, 2, 3, 4), (2, 2, 5, 4), (2, 2, 5, 4)), seed=36)
            for attention in (T.scaled_dot_attention, reference_attention)]
        assert results[0] == results[1]

    @pytest.mark.parametrize("x_shape", [(2, 3, 4), (5, 4), (2, 1, 3, 4)])
    def test_linear_matches_matmul_and_add(self, x_shape):
        results = [forward_and_gradients(
            linear, (x_shape, (4, 6), (6,)), seed=37)
            for linear in (T.linear, reference_linear)]
        assert results[0] == results[1]

    @pytest.mark.parametrize("x_shape", [(2, 3, 4), (5, 4)])
    def test_linear_relu_matches_linear_and_relu(self, x_shape):
        results = [forward_and_gradients(
            linear_relu, (x_shape, (4, 6), (6,)), seed=46)
            for linear_relu in (T.linear_relu, reference_linear_relu)]
        assert results[0] == results[1]

    @pytest.mark.parametrize("shape", [(5, 8), (2, 3, 8)])
    @pytest.mark.parametrize("rate, stream", [(0.3, True), (0.0, True),
                                              (0.3, False)])
    def test_residual_layer_norm_matches_per_op_chain(self, shape, rate,
                                                       stream):
        # values, the gradients of x, y, gain and bias, and the stream's
        # next draw after the node
        results = []
        for residual in (T.residual_layer_norm,
                         reference_residual_layer_norm):
            rng = Rng(47) if stream else None
            results.append(forward_and_gradients(
                lambda x, y, gain, bias: residual(x, y, gain, bias, rate,
                                                  rng),
                (shape, shape, shape[-1:], shape[-1:]), seed=48)
                + [rng and rng.random()])
        assert results[0] == results[1]

    def test_residual_keeps_the_mask_as_bytes(self):
        # backward reads a one-byte keep-mask, the normalized values and
        # the inverse deviations, not the dropped-out branch or the sum
        x, y, gain, bias = residual_operands((2, 3, 8), seed=49)
        out = T.residual_layer_norm(x, y, gain, bias, 0.3, Rng(50))
        kept = [cell.cell_contents for cell in out._backward_fn.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        assert sorted((a.dtype.str, a.shape) for a in kept) == [
            ("<f8", (2, 3, 1)), ("<f8", (2, 3, 8)), ("|b1", (2, 3, 8))]

    def test_residual_shape_mismatch_rejected(self):
        x, _, gain, bias = residual_operands((2, 4), seed=51)
        with pytest.raises(ConfigurationError, match="residual shapes"):
            T.residual_layer_norm(x, np.ones((1, 4)), gain, bias)

    def test_attention_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="attention dims"):
            T.scaled_dot_attention(np.ones((2, 3, 4)), np.ones((2, 5, 3)),
                                   np.ones((2, 5, 3)))

    def test_linear_bias_must_match_columns(self):
        with pytest.raises(ConfigurationError, match="linear shapes"):
            T.linear(np.ones((2, 4)), np.ones((4, 6)), np.ones(4))


class TestConstantOperands:
    @staticmethod
    def _loss(w, x, scale, mask, table):
        """x @ w masked, scaled and shifted by a table, so that constants
        stand on either side of add and mul and left of matmul."""
        h = T.matmul(x, w)
        h = mul(scale, T.add(table, mul(h, mask)))
        return tensor_sum(T.matmul(T.add(h, table), T.reshape(w, (4, 3))))

    def test_no_gradient_is_formed_for_a_constant(self, monkeypatch):
        rng = Rng(33)
        values = [rng.uniform_array(shape) for shape in
                  ((3, 4), (2, 5, 3), (1,), (2, 5, 4), (5, 4))]
        reached = []
        accumulate = T._accumulate

        def recording(tensor, grad, fresh=False):
            reached.append(tensor)
            accumulate(tensor, grad, fresh)

        monkeypatch.setattr(T, "_accumulate", recording)
        grads = []
        for constant_grad in (True, False):
            tensors = [T.Tensor(v.copy(), requires_grad=i == 0
                                or constant_grad)
                       for i, v in enumerate(values)]
            reached.clear()
            T.backward(self._loss(*tensors))
            grads.append(tensors[0].grad)
        np.testing.assert_array_equal(grads[0], grads[1])
        for constant in tensors[1:]:
            assert constant.grad is None
            assert all(t is not constant for t in reached)

    FUSED_NODES = {
        "linear": (T.linear, [(2, 3, 4), (4, 5), (5,)]),
        "linear_relu": (T.linear_relu, [(2, 3, 4), (4, 5), (5,)]),
        "attention": (T.scaled_dot_attention, [(2, 2, 3, 4)] * 3),
        "residual": (lambda x, y, gain, bias: T.residual_layer_norm(
            x, y, gain, bias, 0.3, Rng(52)), [(2, 3, 4)] * 2 + [(4,)] * 2),
    }

    @pytest.mark.parametrize("node", sorted(FUSED_NODES))
    def test_fused_node_forms_no_gradient_for_a_constant(self, node,
                                                          monkeypatch):
        rng = Rng(38)
        reached = []
        accumulate = T._accumulate

        def recording(tensor, grad, fresh=False):
            reached.append(tensor)
            accumulate(tensor, grad, fresh)

        monkeypatch.setattr(T, "_accumulate", recording)
        fn, shapes = self.FUSED_NODES[node]
        for trained in range(len(shapes)):
            tensors = [T.Tensor(rng.uniform_array(shape), requires_grad=i
                                == trained) for i, shape in enumerate(shapes)]
            reached.clear()
            T.backward(tensor_sum(fn(*tensors)))
            assert tensors[trained].grad is not None
            for i, constant in enumerate(tensors):
                if i != trained:
                    assert constant.grad is None
                    assert all(t is not constant for t in reached)


class TestEmbedding:
    @pytest.mark.parametrize("ids_shape", [(4, 6), (12,)])
    def test_scatter_matches_add_at_bitwise(self, ids_shape):
        # repeated ids, whose rows sum in id order, and id 5's one row of
        # -0.0, which sums to 0.0 as np.add.at adds it into zeros
        rng = Rng(54)
        table = T.Tensor(rng.uniform_array((7, 5)), requires_grad=True)
        ids = (rng.uniform_array(ids_shape) * 4).astype(np.int64)
        ids.reshape(-1)[:3] = 6
        ids.reshape(-1)[3] = 5
        g = (rng.uniform_array(ids_shape + (5,)) * 2 - 1) * 10.0 ** (
            rng.uniform_array(ids_shape + (1,)) * 12 - 6)
        g.reshape(-1, 5)[3] = -0.0
        expected = np.zeros_like(table.data)
        np.add.at(expected, ids, g)
        for grad in (None, np.zeros_like(table.data)):  # as zero_grads
            table.grad = grad
            T.backward(tensor_sum(mul(T.embedding(table, ids), g)))
            assert table.grad.tobytes() == expected.tobytes()
        assert not np.signbit(table.grad[5]).any()


def copying_smoothed_cross_entropy(logits, targets, epsilon, mask):
    """T.smoothed_cross_entropy as it was before it consumed its logits:
    the same closed form over a copy of them, the reference that the
    in-place loss is pinned to."""
    logits = T._coerce(logits)
    targets = np.asarray(targets, dtype=np.int64)[..., None]
    mask = np.asarray(mask, dtype=np.float64)
    vocab = logits.data.shape[-1]
    off = epsilon / (vocab - 1)
    gold_extra = 1.0 - epsilon - off
    probs = logits.data - logits.data.max(axis=-1, keepdims=True)
    shifted_sum = probs.sum(axis=-1)
    shifted_gold = np.take_along_axis(probs, targets, axis=-1)[..., 0]
    np.exp(probs, out=probs)
    total = probs.sum(axis=-1, keepdims=True)
    probs /= total
    lse = np.log(total[..., 0])
    per_position = (off * (shifted_sum - vocab * lse)
                    + gold_extra * (shifted_gold - lse))
    scale = 1.0 / mask.sum()

    def bw(g):
        np.subtract(probs, off, out=probs)
        gold = np.take_along_axis(probs, targets, axis=-1)
        np.put_along_axis(probs, targets, gold - gold_extra, axis=-1)
        np.multiply(probs, (mask * (scale * g))[..., None], out=probs)
        T._accumulate(logits, probs, fresh=True)

    return T.Tensor((per_position * mask).sum() * -scale, parents=(logits,),
                    backward_fn=bw)


class TestSmoothedCrossEntropy:
    LOGITS = (Rng(31).uniform_array((3, 4, 9)) * 2 - 1) * 5
    TARGETS = np.array([[1, 4, 8, PAD], [2, 2, PAD, PAD], [5, 3, 7, 6]])

    def _run(self, loss_fn, epsilon):
        mask = (self.TARGETS != PAD).astype(np.float64)
        logits = T.Tensor(self.LOGITS.copy(), requires_grad=True)
        loss = loss_fn(logits, self.TARGETS, epsilon, mask)
        T.backward(loss)
        return float(loss.data), logits.grad

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
    def test_matches_dense_target_chain(self, epsilon):
        (ref_loss, ref_grad), (loss, grad) = [
            self._run(loss_fn, epsilon)
            for loss_fn in (reference_smoothed_loss, T.smoothed_cross_entropy)]
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
        assert not grad[self.TARGETS == PAD].any()

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
    def test_in_place_matches_copying_loss_bitwise(self, epsilon):
        (ref_loss, ref_grad), (loss, grad) = [
            self._run(loss_fn, epsilon)
            for loss_fn in (copying_smoothed_cross_entropy,
                            T.smoothed_cross_entropy)]
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()

    def test_consumes_its_logits(self):
        # the probabilities, and then the gradient, take the logits' memory
        mask = (self.TARGETS != PAD).astype(np.float64)
        logits = T.Tensor(self.LOGITS.copy(), requires_grad=True)
        memory = logits.data
        loss = T.smoothed_cross_entropy(logits, self.TARGETS, 0.1, mask)
        np.testing.assert_allclose(memory.sum(axis=-1), 1.0, rtol=1e-12)
        T.backward(loss)
        assert logits.grad is memory


class TestNoGrad:
    @staticmethod
    def _model():
        rng = Rng(4)
        store = T.ParamStore()
        w = store.add("w", T.glorot_uniform(rng, (3, 4)))
        gain = store.add("gain", np.ones(4))
        bias = store.add("bias", np.zeros(4))
        x = rng.uniform_array((2, 3))

        def loss():
            h = T.layer_norm(tanh(T.matmul(T.Tensor(x), w)), gain, bias)
            return tensor_sum(T.log_softmax(h, axis=-1))

        return store, loss

    def test_tensors_inside_record_no_tape(self):
        store, loss = self._model()
        with T.no_grad():
            out = loss()
            chained = mul(store["w"], 2.0)
        for t in (out, chained):
            assert not t.requires_grad
            assert t._parents == () and t._backward_fn is None
        assert mul(store["w"], 2.0).requires_grad  # taping resumes

    def test_mode_restored_after_exception(self):
        store, _ = self._model()
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside")
        out = mul(store["w"], 2.0)
        assert out.requires_grad and out._parents

    def test_backward_after_block_unchanged(self):
        store, loss = self._model()
        store.zero_grads()
        T.backward(loss(), store)
        plain = {n: t.grad.copy() for n, t in store.items()}
        taped_before = loss()
        with T.no_grad():
            loss()
        for taped in (taped_before, loss()):
            store.zero_grads()
            T.backward(taped, store)
            for name, t in store.items():
                np.testing.assert_array_equal(t.grad, plain[name])


class TestParamStore:
    def test_duplicate_name(self):
        store = T.ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ConfigurationError):
            store.add("w", np.zeros(2))

    def test_load_values_shape_check(self):
        store = T.ParamStore()
        store.add("w", np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            store.load_values({"w": np.zeros(3)})

    def test_grad_norm_and_scaling(self):
        store = T.ParamStore()
        w = store.add("w", np.zeros(4))
        store.zero_grads()
        w.grad[:] = 3.0
        assert abs(store.global_grad_norm() - 6.0) < 1e-12
        store.scale_grads(0.5)
        np.testing.assert_allclose(w.grad, np.full(4, 1.5))

    def test_clip_of_an_overflowing_norm_keeps_the_direction(self):
        # the squares of 2e154 overflow: the norm must still be finite,
        # so trainer's clip scales the gradients instead of zeroing them
        store = T.ParamStore()
        a = store.add("a", np.zeros(3))
        b = store.add("b", np.zeros(2))
        store.zero_grads()
        a.grad[:] = [2e154, -1.0, 3.0]
        b.grad[:] = [4.0, 5.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = store.global_grad_norm()
        assert norm == pytest.approx(2e154)
        store.scale_grads(GRAD_CLIP_NORM / norm)
        np.testing.assert_allclose(a.grad, [5.0, -2.5e-154, 7.5e-154],
                                   rtol=1e-12)
        np.testing.assert_allclose(b.grad, [1e-153, 1.25e-153], rtol=1e-12)
