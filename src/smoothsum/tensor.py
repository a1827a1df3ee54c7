"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable building block the summarizers need lives here: the
arithmetic primitives, a whole-sequence GRU kernel, multiplicative and
multi-head attention, the label-smoothed loss, sinusoidal position table,
inverted dropout, and a finite-difference gradient checker. Graphs are taped
per forward pass; backward() walks the tape once in reverse topological
order and frees each node as it passes it. Inside ``no_grad()`` nothing is
taped.
"""

from contextlib import contextmanager

import numpy as np

from .errors import ConfigurationError, NumericError
from .rng import Rng

_NEG_INF = -1e30
GRAD_CHECK_STEP = 1e-5  # half-width of grad_check's central differences
LAYER_NORM_EPS = 1e-5  # added to the variance before the square root

_taping = True  # False inside no_grad()


@contextmanager
def no_grad():
    """Inference mode: tensors built inside the block keep no parents and
    no backward closure, so nothing is taped. The previous mode is restored
    on exit, also when the block raises."""
    global _taping
    previous = _taping
    _taping = False
    try:
        yield
    finally:
        _taping = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if _taping:
            requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.requires_grad = requires_grad
        taped = _taping and requires_grad
        self._parents = tuple(parents) if taped else ()
        self._backward_fn = backward_fn if taped else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        # a copy: grad may be a view, or handed to two parents (add)
        tensor.grad = np.array(grad, dtype=np.float64)
    else:
        tensor.grad += grad


def _reduce_to(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)

    def bw(g):
        _accumulate(a, _reduce_to(g, a.data.shape))
        _accumulate(b, _reduce_to(g, b.data.shape))

    return Tensor(a.data + b.data, parents=(a, b), backward_fn=bw)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)

    def bw(g):
        _accumulate(a, _reduce_to(g * b.data, a.data.shape))
        _accumulate(b, _reduce_to(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, parents=(a, b), backward_fn=bw)


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a 2-D right operand of matmul: the sum over a's
    leading items of a[i].T @ g[i] (a 2-D a is one item). One product per
    item keeps each at the forward's own per-item size, where OpenBLAS
    stays on one thread; a single product over the rows of every item is
    large enough to be split over threads, and on a 2-core host that cost
    more CPU than it saved (see gru_sequence). The batched np.matmul form
    would build an (items, k, n) array and run outside BLAS."""
    if a.ndim == 2:
        return a.T @ g
    a = a.reshape((-1,) + a.shape[-2:])
    g = g.reshape((-1,) + g.shape[-2:])
    total = a[0].T @ g[0]
    for item in range(1, a.shape[0]):
        total += a[item].T @ g[item]
    return total


def matmul(a, b) -> Tensor:
    """a @ b. A right operand of more than two dimensions must have the
    product's leading dimensions: only a 2-D b is broadcast."""
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ConfigurationError("matmul operands must have ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ConfigurationError(
            f"matmul shape mismatch {a.data.shape} @ {b.data.shape}")
    out = np.matmul(a.data, b.data)
    if b.data.ndim > 2 and b.data.shape[:-2] != out.shape[:-2]:
        raise ConfigurationError(
            f"matmul broadcasts a right operand {b.data.shape} of more than "
            f"two dimensions to {out.shape}")

    def bw(g):
        _accumulate(a, _reduce_to(np.matmul(g, b.data.swapaxes(-1, -2)),
                                  a.data.shape))
        _accumulate(b, _weight_grad(a.data, g) if b.data.ndim == 2
                    else np.matmul(a.data.swapaxes(-1, -2), g))

    return Tensor(out, parents=(a, b), backward_fn=bw)


def tensor_sum(a, axis=None) -> Tensor:
    a = _coerce(a)

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return Tensor(a.data.sum(axis=axis), parents=(a,), backward_fn=bw)


def reshape(a, shape) -> Tensor:
    a = _coerce(a)

    def bw(g):
        _accumulate(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), parents=(a,), backward_fn=bw)


def transpose(a, axes) -> Tensor:
    a = _coerce(a)
    inverse = np.argsort(axes)

    def bw(g):
        _accumulate(a, g.transpose(inverse))

    return Tensor(a.data.transpose(axes), parents=(a,), backward_fn=bw)


def concat(tensors, axis=-1) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(g):
        offsets = np.cumsum([0] + sizes)
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis if axis >= 0 else g.ndim + axis] = slice(start, stop)
            _accumulate(t, g[tuple(index)])

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  parents=tuple(tensors), backward_fn=bw)


def select(a, index: int, axis: int) -> Tensor:
    """The slice at index along a non-negative axis, that axis dropped;
    the gradient fills that slice and leaves zeros elsewhere."""
    a = _coerce(a)
    key = (slice(None),) * axis + (index,)

    def bw(g):
        full = np.zeros_like(a.data)
        full[key] = g
        _accumulate(a, full)

    return Tensor(a.data[key], parents=(a,), backward_fn=bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp of a non-positive value
    only."""
    e = np.exp(-np.abs(x))
    denominator = 1.0 + e
    return np.where(x >= 0, 1.0 / denominator, e / denominator)


def relu(a) -> Tensor:
    a = _coerce(a)

    def bw(g):
        _accumulate(a, g * (a.data > 0))

    return Tensor(np.maximum(a.data, 0.0), parents=(a,), backward_fn=bw)


def softmax(a, axis=-1) -> Tensor:
    """Max-subtracted exponentiation; rows sum to 1 and order is preserved."""
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        _accumulate(a, p * (g - dot))

    return Tensor(p, parents=(a,), backward_fn=bw)


def log_softmax(a, axis=-1) -> Tensor:
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    p = np.exp(y)

    def bw(g):
        _accumulate(a, g - p * g.sum(axis=axis, keepdims=True))

    return Tensor(y, parents=(a,), backward_fn=bw)


def smoothed_cross_entropy(logits, targets, epsilon: float, mask) -> Tensor:
    """Mean over the positions where mask is 1 of -sum_k t(k) log p(k),
    with p the softmax of logits (..., V) and t the label-smoothed target of
    smoothing.smooth_target_matrix: 1 - epsilon at the target id and
    epsilon / (V - 1) at every other id. One tape node in closed form, as
    fairseq's label_smoothed_nll_loss (Ott et al. 2019): sum_k t(k) log p(k)
    is epsilon / (V - 1) * sum_k log p(k) + (1 - epsilon - epsilon / (V - 1))
    * log p(target), so no (..., V) target matrix is built, and the gradient
    with respect to the logits is (p - t) * mask / count."""
    logits = _coerce(logits)
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
        # probs becomes the gradient in place: the closure runs once
        np.subtract(probs, off, out=probs)
        gold = np.take_along_axis(probs, targets, axis=-1)
        np.put_along_axis(probs, targets, gold - gold_extra, axis=-1)
        np.multiply(probs, (mask * (scale * g))[..., None], out=probs)
        _accumulate(logits, probs)

    return Tensor((per_position * mask).sum() * -scale, parents=(logits,),
                  backward_fn=bw)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather; gradients scatter-add back into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ConfigurationError(
            f"embedding id outside table of {table.data.shape[0]} rows")

    def bw(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    return Tensor(table.data[ids], parents=(table,), backward_fn=bw)


def layer_norm(x, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalization over the last axis with learned gain and bias."""
    x = _coerce(x)
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mean) * inv

    def bw(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=reduce_axes))
        _accumulate(bias, g.sum(axis=reduce_axes))
        gx = g * gain.data
        term = gx - gx.mean(axis=-1, keepdims=True) \
            - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, term * inv)

    return Tensor(xhat * gain.data + bias.data, parents=(x, gain, bias),
                  backward_fn=bw)


def apply_dropout(x, rate: float, rng: Rng, training: bool) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate); identity when not
    training or rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate {rate} outside [0, 1)")
    x = _coerce(x)
    if not training or rate == 0.0:
        return x
    keep = rng.uniform_array(x.data.shape) >= rate
    return mul(x, keep.astype(np.float64) / (1.0 - rate))


# ---------------------------------------------------------------------------
# recurrent and attention blocks


GRU_KEYS = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")


class GruWeights:
    """The nine parameters of one GRU (GRU_KEYS) for gru_sequence, with the
    input weights of the three gates packed side by side: w = [wz|wr|wh]
    (E, 3H). Packing copies them, so pack again after the parameters
    change."""

    __slots__ = ("tensors", "w")

    def __init__(self, params):
        self.tensors = tuple(params[key] for key in GRU_KEYS)
        self.w = np.concatenate([params[key].data for key in ("wz", "wr", "wh")],
                                axis=1)


def gru_sequence(x, h0, weights: GruWeights) -> Tensor:
    """A GRU run over every position of x (batch, steps, E) from the
    state h0 (batch, H); returns the states (batch, steps, H) as one tape
    node. Each step is h' = (1 - z) * h + z * h_tilde with

        z = sigma(x Wz + h Uz + bz)
        r = sigma(x Wr + h Ur + br)
        h_tilde = tanh(x Wh + (r * h) Uh + bh)

    with one x [Wz|Wr|Wh] matmul per step. The backward pass runs
    backpropagation through time in one closure (Appleyard et al. 2016).
    Every matmul, forward and backward, covers one position: a product
    over all batch * steps rows is large enough for OpenBLAS to split it
    over threads, and on a 2-core host its waiting pool thread made a
    small model's training about twice as slow and its time vary from
    run to run. Only the bias gradients are summed over all positions
    after the loop."""
    x, h0 = _coerce(x), _coerce(h0)
    _, uz, bz, _, ur, br, _, uh, bh = (t.data for t in weights.tensors)
    w, hid = weights.w, uh.shape[0]
    if (x.data.ndim != 3 or x.data.shape[-1] != w.shape[0]
            or h0.data.shape != (x.data.shape[0], hid)):
        raise ConfigurationError(
            f"gru dims {x.data.shape}/{h0.data.shape} do not match params")
    batch, steps, _ = x.data.shape
    parents = (x, h0) + weights.tensors
    keep = _taping and any(p.requires_grad for p in parents)
    states = [h0.data]  # states[t] is the state before step t
    gates = []  # per step (z, r, r * h, h_tilde), kept for the backward pass
    for t in range(steps):
        h = states[t]
        xw = x.data[:, t] @ w
        z = _sigmoid(xw[:, :hid] + h @ uz + bz)
        r = _sigmoid(xw[:, hid:2 * hid] + h @ ur + br)
        rh = r * h
        cand = np.tanh(xw[:, 2 * hid:] + rh @ uh + bh)
        states.append((1.0 - z) * h + z * cand)
        if keep:
            gates.append((z, r, rh, cand))

    def bw(g):
        da = np.empty((steps, batch, 3 * hid))  # pre-activation gradients
        d_w, d_zr = np.zeros_like(w), np.zeros((hid, 2 * hid))
        d_uh = np.zeros_like(uh)
        dx = np.empty_like(x.data)
        dh = np.zeros((batch, hid))
        for t in reversed(range(steps)):
            z, r, rh, cand = gates[t]
            h = states[t]
            dh = dh + g[:, t]
            da_z, da_r, da_cand = (da[t, :, i * hid:(i + 1) * hid]
                                   for i in range(3))
            np.multiply(dh * z, 1.0 - cand * cand, out=da_cand)
            d_rh = da_cand @ uh.T
            np.multiply(dh * (cand - h), z * (1.0 - z), out=da_z)
            np.multiply(d_rh * h, r * (1.0 - r), out=da_r)
            dh = dh * (1.0 - z) + d_rh * r + da_z @ uz.T + da_r @ ur.T
            d_w += x.data[:, t].T @ da[t]
            d_zr += h.T @ da[t, :, :2 * hid]
            d_uh += rh.T @ da_cand
            dx[:, t] = da[t] @ w.T
        d_b = da.sum(axis=(0, 1))
        grads = []  # GRU_KEYS order: w, u, b of the gates z, r and h
        for i, d_u in enumerate((d_zr[:, :hid], d_zr[:, hid:], d_uh)):
            cols = slice(i * hid, (i + 1) * hid)
            grads += [d_w[:, cols], d_u, d_b[cols]]
        for tensor, grad in zip(weights.tensors, grads):
            _accumulate(tensor, grad)
        _accumulate(x, dx)
        _accumulate(h0, dh)

    return Tensor(np.stack(states[1:], axis=1), parents=parents,
                  backward_fn=bw)


def gru_step(x, h, weights: GruWeights) -> Tensor:
    """One GRU update of the states h (batch, H) from the inputs x
    (batch, E): gru_sequence over a single position."""
    x = _coerce(x)
    if x.data.ndim != 2:
        raise ConfigurationError(f"gru_step input {x.data.shape} is not "
                                 f"(batch, dim)")
    batch = x.data.shape[0]
    states = gru_sequence(reshape(x, (batch, 1, x.data.shape[1])), h, weights)
    return reshape(states, (batch, states.data.shape[-1]))


def _check_attention_mask(mask: np.ndarray) -> np.ndarray:
    """Boolean attend-mask -> additive mask; reject fully masked rows."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise NumericError("attention mask leaves a position with no "
                           "unmasked targets")
    return np.where(mask, 0.0, _NEG_INF)


def dot_attention(queries, memory, mask=None):
    """Multiplicative attention of every query position over a memory:
    scores are dot products of (B, L, d) queries against (B, T, d) memory
    states, and positions where the (B, T) mask is False get -inf before
    the softmax. Returns (context (B, L, d), weights (B, L, T))."""
    q, mem = _coerce(queries), _coerce(memory)
    if (q.data.ndim != 3 or mem.data.ndim != 3
            or q.data.shape[-1] != mem.data.shape[-1]):
        raise ConfigurationError(
            f"attention dims {q.data.shape} vs {mem.data.shape}")
    scores = matmul(q, transpose(mem, (0, 2, 1)))  # (B, L, T)
    if mask is not None:
        scores = add(scores, _check_attention_mask(mask)[:, None, :])
    weights = softmax(scores, axis=-1)
    return matmul(weights, mem), weights


def _swap_heads_and_positions(t: Tensor) -> Tensor:
    """(..., length, heads, d) <-> (..., heads, length, d)."""
    nd = t.data.ndim
    return transpose(t, tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1))


def split_heads(x, heads: int) -> Tensor:
    """(..., length, d) -> (..., heads, length, d / heads)."""
    x = _coerce(x)
    d_model = x.data.shape[-1]
    if d_model % heads != 0:
        raise ConfigurationError(
            f"model dim {d_model} not divisible by {heads} heads")
    return _swap_heads_and_positions(
        reshape(x, x.data.shape[:-1] + (heads, d_model // heads)))


def attend_projected(qh: Tensor, kh: Tensor, vh: Tensor, wo: Tensor,
                     mask=None) -> Tensor:
    """Scaled dot-product attention (scale 1/sqrt(d_head)) of head-split
    queries over head-split keys and values, heads concatenated and
    projected by wo. mask is boolean (attend = True), broadcastable to
    (queries, keys) and applied before the softmax."""
    d_head = qh.data.shape[-1]
    nd = kh.data.ndim
    kt = transpose(kh, tuple(range(nd - 2)) + (nd - 1, nd - 2))
    scores = mul(matmul(qh, kt), 1.0 / np.sqrt(d_head))
    if mask is not None:
        additive = _check_attention_mask(mask)
        scores = add(scores, np.expand_dims(additive, axis=-3))
    weights = softmax(scores, axis=-1)
    ctx = _swap_heads_and_positions(matmul(weights, vh))  # (.., Tq, heads, dh)
    ctx = reshape(ctx, ctx.data.shape[:-2] + (-1,))
    return matmul(ctx, wo)


def multi_head_attention(queries, keys, values, heads: int,
                         wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                         mask=None) -> Tensor:
    """Queries, keys and values projected by wq, wk, wv and split into
    heads, then attend_projected."""
    return attend_projected(split_heads(matmul(queries, wq), heads),
                            split_heads(matmul(keys, wk), heads),
                            split_heads(matmul(values, wv), heads), wo, mask)


def causal_mask(length: int) -> np.ndarray:
    """Lower-triangular attend-mask: position t sees positions <= t."""
    return np.tril(np.ones((length, length), dtype=bool))


def positional_encoding(max_len: int, d_model: int) -> np.ndarray:
    """Sinusoidal table: PE[pos, 2i] = sin(pos / 10000^(2i/d)), cos at odd
    columns. Returned as a plain array; added to embeddings as a constant."""
    if d_model % 2 != 0:
        raise ConfigurationError(f"d_model {d_model} must be even")
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / d_model)
    table = np.zeros((max_len, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


# ---------------------------------------------------------------------------
# parameters, backward pass, gradient checking


class ParamStore:
    """Named parameter tensors plus their gradient accumulators."""

    def __init__(self):
        self._params = {}
        self._items = ()  # (name, tensor) pairs sorted by name

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        tensor = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self._params[name] = tensor
        self._items = tuple(sorted(self._params.items()))
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list:
        return [name for name, _ in self._items]

    def items(self) -> tuple:
        return self._items

    def zero_grads(self) -> None:
        for _, t in self.items():
            t.grad = np.zeros_like(t.data)

    def global_grad_norm(self) -> float:
        total = 0.0
        for _, t in self.items():
            if t.grad is not None:
                total += float((t.grad * t.grad).sum())
        return float(np.sqrt(total))

    def scale_grads(self, factor: float) -> None:
        for _, t in self.items():
            if t.grad is not None:
                t.grad *= factor

    def copy_values(self) -> dict:
        return {n: t.data.copy() for n, t in self.items()}

    def load_values(self, values: dict) -> None:
        if sorted(values) != self.names():
            raise ConfigurationError("parameter names do not match the store")
        for name, data in values.items():
            data = np.asarray(data, dtype=np.float64)
            if data.shape != self._params[name].data.shape:
                raise ConfigurationError(
                    f"shape mismatch for {name!r}: "
                    f"{data.shape} vs {self._params[name].data.shape}")
            self._params[name].data = data.copy()


def _spent(g):
    """The backward closure of a node that backward has already passed."""
    raise ConfigurationError("backward over a graph that was already "
                             "backpropagated; a graph can be backpropagated "
                             "once")


def backward(loss: Tensor, params: ParamStore | None = None) -> None:
    """Reverse-mode accumulation from a scalar loss.

    A graph can be backpropagated once (PyTorch's retain_graph=False). As
    the walk passes each taped node it frees it: the node's gradient (all
    but the loss's), its closure and the arrays it captured, and its links
    to its parents, so the tape's memory is returned during the walk.
    Leaves keep their gradients. A second backward over a freed graph
    raises ConfigurationError before any gradient changes.

    When a ParamStore is given, every parameter ends with a gradient of its
    own shape and non-finite gradients raise NumericError naming the
    parameter."""
    if loss.data.size != 1:
        raise ConfigurationError("backward expects a scalar loss")
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        tensor, expanded = stack.pop()
        if expanded:
            order.append(tensor)
            continue
        if id(tensor) in visited:
            continue
        if tensor._backward_fn is _spent:
            _spent(None)
        visited.add(id(tensor))
        stack.append((tensor, True))
        for parent in tensor._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    while order:
        # popping drops the walk's reference, so a node whose consumers
        # are all freed is released here
        tensor = order.pop()
        if tensor._backward_fn is None:
            continue
        if tensor.grad is not None:
            tensor._backward_fn(tensor.grad)
        if tensor is not loss:
            tensor.grad = None
        tensor._backward_fn = _spent
        tensor._parents = ()
    if params is not None:
        for name, t in params.items():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            elif not np.isfinite(t.grad).all():
                raise NumericError(f"non-finite gradient for parameter {name!r}")


def grad_check(loss_fn, params: ParamStore) -> float:
    """Central finite differences against analytic gradients over every
    parameter element; returns the max relative error
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|)."""
    params.zero_grads()
    backward(loss_fn(), params)
    analytic = {name: t.grad.copy() for name, t in params.items()}
    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + GRAD_CHECK_STEP
            plus = float(loss_fn().data)
            flat[i] = original - GRAD_CHECK_STEP
            minus = float(loss_fn().data)
            flat[i] = original
            numeric = (plus - minus) / (2.0 * GRAD_CHECK_STEP)
            rel = abs(ana[i] - numeric) / max(1e-8, abs(ana[i]) + abs(numeric))
            worst = max(worst, rel)
    return worst


def glorot_uniform(rng: Rng, shape) -> np.ndarray:
    """Xavier/Glorot uniform initialization for 2-D weights."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return (rng.uniform_array(shape) * 2.0 - 1.0) * limit
