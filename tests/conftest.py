import base64

import numpy as np
import pytest

from smoothsum import tensor as T
from smoothsum.astkit import AstNode
from smoothsum.corpus import Corpus, Sample, tokenize_code, tokenize_comment
from smoothsum.errors import ConfigurationError
from smoothsum.rng import Rng
from smoothsum.smoothing import smooth_target_matrix
from smoothsum.synthetic import generate_samples


def b64(raw: bytes) -> str:
    """Checkpoint parameter data: the base64 text of raw float64 bytes."""
    return base64.b64encode(raw).decode("ascii")


def samples_from_records(records):
    return [
        Sample(
            id=r["id"],
            project=r["project"],
            code_tokens=tokenize_code(r["code"]),
            comment_tokens=tokenize_comment(r["comment"]),
            ast_text=r["ast"],
            code_char_len=len(r["code"]),
        )
        for r in records
    ]


@pytest.fixture
def toy_corpus():
    return Corpus(samples_from_records(generate_samples(120, seed=5)))


def random_tree(rng: Rng, max_nodes: int) -> AstNode:
    """Random labelled ordered tree with between 1 and max_nodes nodes."""
    budget = 1 + rng.randint(max_nodes)
    counter = [0]

    def build(remaining: int) -> AstNode:
        counter[0] += 1
        label = f"n{counter[0]}"
        children = []
        spend = remaining - 1
        while spend > 0 and rng.random() < 0.6:
            size = 1 + rng.randint(spend)
            children.append(build(size))
            spend -= size
        return AstNode(label, tuple(children))

    return build(budget)


def sub(a, b) -> T.Tensor:
    a, b = T._coerce(a), T._coerce(b)

    def bw(g):
        T._accumulate(a, T._reduce_to(g, a.data.shape))
        T._accumulate(b, T._reduce_to(-g, b.data.shape))

    return T.Tensor(a.data - b.data, parents=(a, b), backward_fn=bw)


def tanh(a) -> T.Tensor:
    a = T._coerce(a)
    y = np.tanh(a.data)

    def bw(g):
        T._accumulate(a, g * (1.0 - y * y))

    return T.Tensor(y, parents=(a,), backward_fn=bw)


def sigmoid(a) -> T.Tensor:
    a = T._coerce(a)
    y = T._sigmoid(a.data)

    def bw(g):
        T._accumulate(a, g * y * (1.0 - y))

    return T.Tensor(y, parents=(a,), backward_fn=bw)


def total_size(store: T.ParamStore) -> int:
    """Number of scalar parameters in a store."""
    return sum(t.data.size for _, t in store.items())


def reference_weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a 2-D right matmul operand as the batched product
    a^T g over a's leading dimensions, summed down by T._reduce_to: the
    reference that matmul's per-item weight gradient is pinned to."""
    return T._reduce_to(np.matmul(a.swapaxes(-1, -2), g),
                        (a.shape[-1], g.shape[-1]))


def reference_smoothed_loss(logits, targets, epsilon, mask) -> T.Tensor:
    """The label-smoothed loss composed of per-op tape nodes over the dense
    target matrix: the reference that T.smoothed_cross_entropy is pinned
    to."""
    smooth = smooth_target_matrix(targets, logits.data.shape[-1], epsilon)
    log_probs = T.log_softmax(logits, axis=-1)
    per_position = T.tensor_sum(T.mul(smooth, log_probs), axis=-1)
    total = T.tensor_sum(T.mul(per_position, mask))
    return T.mul(total, -1.0 / mask.sum())


def reference_gru_step(x, h, params):
    """One GRU update composed of per-op tape nodes, from a mapping of the
    nine GRU parameters: the reference that gru_step and gru_sequence are
    pinned to. x and h are (batch, dim) matrices."""
    x, h = T._coerce(x), T._coerce(h)
    wz, uz = params["wz"], params["uz"]
    if (x.data.shape[-1] != wz.data.shape[0]
            or h.data.shape[-1] != uz.data.shape[0]):
        raise ConfigurationError(
            f"gru_step dims {x.data.shape}/{h.data.shape} do not match params")
    z = sigmoid(T.add(T.add(T.matmul(x, params["wz"]),
                            T.matmul(h, params["uz"])), params["bz"]))
    r = sigmoid(T.add(T.add(T.matmul(x, params["wr"]),
                            T.matmul(h, params["ur"])), params["br"]))
    cand = tanh(T.add(T.add(T.matmul(x, params["wh"]),
                            T.matmul(T.mul(r, h), params["uh"])),
                      params["bh"]))
    return T.add(T.mul(sub(1.0, z), h), T.mul(z, cand))


def reference_dot_attention(state, states, mask):
    """Context (B, d) of one (B, d) decoder state over (B, T, d) states,
    composed of per-op tape nodes."""
    query = T.reshape(state, state.data.shape + (1,))
    scores = T.reshape(T.matmul(states, query), states.data.shape[:-1])
    scores = T.add(scores, np.where(mask, 0.0, -1e30))
    weights = T.reshape(T.softmax(scores, axis=-1),
                        (states.data.shape[0], 1, -1))
    return T.reshape(T.matmul(weights, states),
                     (states.data.shape[0], states.data.shape[-1]))
