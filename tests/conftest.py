import base64

import numpy as np
import pytest

from smoothsum import tensor as T
from smoothsum.astkit import AstNode
from smoothsum.corpus import Sample, tokenize_code, tokenize_comment
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
    return samples_from_records(generate_samples(120, seed=5))


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


def tensor_sum(a, axis=None) -> T.Tensor:
    a = T._coerce(a)

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        T._accumulate(a, np.broadcast_to(g, a.data.shape))

    return T.Tensor(a.data.sum(axis=axis), parents=(a,), backward_fn=bw)


def taped_nodes(loss: T.Tensor) -> list:
    """Every node of loss's graph that holds a backward closure."""
    seen, stack, nodes = set(), [loss], []
    while stack:
        tensor = stack.pop()
        if id(tensor) in seen:
            continue
        seen.add(id(tensor))
        if tensor._backward_fn is not None:
            nodes.append(tensor)
        stack.extend(tensor._parents)
    return nodes


def total_size(store: T.ParamStore) -> int:
    """Number of scalar parameters in a store."""
    return sum(t.data.size for _, t in store.items())


def reference_weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a 2-D right matmul operand as the batched product
    a^T g over a's leading dimensions, summed down by T._reduce_to: the
    reference that matmul's folded weight gradient is pinned to."""
    return T._reduce_to(np.matmul(a.swapaxes(-1, -2), g),
                        (a.shape[-1], g.shape[-1]))


def reference_matmul(a, b) -> T.Tensor:
    """a @ b as numpy's batched matmul, one product per leading item,
    forward and backward: the reference that T.matmul's products over
    folded rows are pinned to."""
    a, b = T._coerce(a), T._coerce(b)

    def bw(g):
        T._accumulate(a, T._reduce_to(np.matmul(g, b.data.swapaxes(-1, -2)),
                                      a.data.shape))
        T._accumulate(b, reference_weight_grad(a.data, g) if b.data.ndim == 2
                      else np.matmul(a.data.swapaxes(-1, -2), g))

    return T.Tensor(np.matmul(a.data, b.data), parents=(a, b),
                    backward_fn=bw)


def reference_linear(x, w, b) -> T.Tensor:
    """x @ w + b as a matmul node and an add node: the reference that
    T.linear is pinned to."""
    return T.add(T.matmul(x, w), b)


def transpose(a, axes) -> T.Tensor:
    """a.transpose(axes) as a tape node, for the per-op references."""
    a = T._coerce(a)
    inverse = np.argsort(axes)

    def bw(g):
        T._accumulate(a, g.transpose(inverse))

    return T.Tensor(a.data.transpose(axes), parents=(a,), backward_fn=bw)


def swap_last_axes(t: T.Tensor) -> T.Tensor:
    """(..., m, n) -> (..., n, m) as a transpose node."""
    nd = t.data.ndim
    return transpose(t, tuple(range(nd - 2)) + (nd - 1, nd - 2))


def swap_heads_and_positions(t: T.Tensor) -> T.Tensor:
    """(..., length, heads, d) <-> (..., heads, length, d) as a transpose
    node."""
    nd = t.data.ndim
    return transpose(t, tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1))


def reference_split_heads(x, heads: int) -> T.Tensor:
    """(..., length, d) -> (..., heads, length, d / heads) as a reshape
    node and a transpose node: the reference that T.split_heads is pinned
    to."""
    x = T._coerce(x)
    return swap_heads_and_positions(
        T.reshape(x, x.data.shape[:-1] + (heads, x.data.shape[-1] // heads)))


def reference_attention(qh, kh, vh, mask=None) -> T.Tensor:
    """Scaled dot-product attention of head-split operands, heads merged,
    composed of matmul, mul, add, softmax, transpose and reshape nodes: the
    reference that T.scaled_dot_attention is pinned to."""
    scores = T.mul(reference_matmul(qh, swap_last_axes(kh)),
                   1.0 / np.sqrt(qh.data.shape[-1]))
    if mask is not None:
        additive = T._check_attention_mask(mask)
        scores = T.add(scores, np.expand_dims(additive, axis=-3))
    weights = T.softmax(scores, axis=-1)
    ctx = swap_heads_and_positions(reference_matmul(weights, vh))
    return T.reshape(ctx, ctx.data.shape[:-2] + (-1,))


def reference_gru_attention(queries, memory, mask=None) -> T.Tensor:
    """Context (B, L, d) of (B, L, d) queries over (B, T, d) memory states,
    composed of matmul, transpose, add and softmax nodes: the reference
    that T.dot_attention is pinned to."""
    scores = reference_matmul(queries, swap_last_axes(memory))
    if mask is not None:
        scores = T.add(scores, T._check_attention_mask(mask))
    return reference_matmul(T.softmax(scores, axis=-1), memory)


def reference_smoothed_loss(logits, targets, epsilon, mask) -> T.Tensor:
    """The label-smoothed loss composed of per-op tape nodes over the dense
    target matrix: the reference that T.smoothed_cross_entropy is pinned
    to."""
    smooth = smooth_target_matrix(targets, logits.data.shape[-1], epsilon)
    log_probs = T.log_softmax(logits, axis=-1)
    per_position = tensor_sum(T.mul(smooth, log_probs), axis=-1)
    total = tensor_sum(T.mul(per_position, mask))
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
    scores = T.reshape(reference_matmul(states, query),
                       states.data.shape[:-1])
    scores = T.add(scores, np.where(mask, 0.0, -1e30))
    weights = T.reshape(T.softmax(scores, axis=-1),
                        (states.data.shape[0], 1, -1))
    return T.reshape(reference_matmul(weights, states),
                     (states.data.shape[0], states.data.shape[-1]))
