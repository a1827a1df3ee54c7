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


def _accumulate(tensor: Tensor, grad: np.ndarray, fresh: bool = False) -> None:
    """Add grad to tensor's gradient. fresh marks a float64 array that the
    calling closure allocated for this tensor alone: the first write takes
    it over. Any other grad is copied on the first write, as it may be a
    view, or handed to two parents (add)."""
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = grad if fresh else np.array(grad, dtype=np.float64)
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
        if a.requires_grad:
            _accumulate(a, _reduce_to(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _reduce_to(g, b.data.shape))

    return Tensor(a.data + b.data, parents=(a, b), backward_fn=bw)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _reduce_to(g * b.data, a.data.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _reduce_to(g * a.data, b.data.shape), fresh=True)

    return Tensor(a.data * b.data, parents=(a, b), backward_fn=bw)


def matmul(a, b) -> Tensor:
    """a @ b for a 2-D right operand b, broadcast over the leading
    dimensions of a. Those fold into rows, so the forward product, a's
    gradient and b's gradient a^T g are each one 2-D product over
    a.reshape(-1, k), not one per item (Appleyard et al. 2016 fold an
    RNN's input products the same way)."""
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise ConfigurationError(
            f"matmul takes a left operand of ndim >= 2 and a 2-D right "
            f"operand, not {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ConfigurationError(
            f"matmul shape mismatch {a.data.shape} @ {b.data.shape}")
    return _row_product(a, b)


def linear(x, w, b) -> Tensor:
    """x @ w + b for a 2-D weight w and a bias b over its columns, as one
    tape node: matmul's product over folded rows with b added in place.
    Values and gradients are those of add(matmul(x, w), b)."""
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if (x.data.ndim < 2 or w.data.ndim != 2
            or x.data.shape[-1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ConfigurationError(f"linear shapes {x.data.shape} @ "
                                 f"{w.data.shape} + {b.data.shape}")
    return _row_product(x, w, b)


def _row_product(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """The node of matmul and of linear: x @ w (+ bias) over x's leading
    dimensions folded into rows."""
    rows = x.data.reshape(-1, x.data.shape[-1])
    out = rows @ w.data
    if bias is not None:
        out += bias.data

    def bw(g):
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _reduce_to(g, bias.data.shape), fresh=True)
        g = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accumulate(x, (g @ w.data.T).reshape(x.data.shape), fresh=True)
        if w.requires_grad:
            _accumulate(w, rows.T @ g, fresh=True)

    parents = (x, w) if bias is None else (x, w, bias)
    return Tensor(out.reshape(x.data.shape[:-1] + w.data.shape[-1:]),
                  parents=parents, backward_fn=bw)


def reshape(a, shape) -> Tensor:
    a = _coerce(a)

    def bw(g):
        _accumulate(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), parents=(a,), backward_fn=bw)


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
        _accumulate(a, full, fresh=True)

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
        _accumulate(a, g * (a.data > 0), fresh=True)

    return Tensor(np.maximum(a.data, 0.0), parents=(a,), backward_fn=bw)


def softmax_in_place(x: np.ndarray, axis=-1) -> np.ndarray:
    """Max-subtracted exponentiation of a float64 array along axis, in x's
    own memory; returns x. Rows sum to 1 and order is preserved."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def softmax(a, axis=-1) -> Tensor:
    """softmax_in_place over a copy of a."""
    a = _coerce(a)
    p = softmax_in_place(a.data.copy(), axis)

    def bw(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        _accumulate(a, p * (g - dot), fresh=True)

    return Tensor(p, parents=(a,), backward_fn=bw)


def log_softmax(a, axis=-1) -> Tensor:
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    p = np.exp(y)

    def bw(g):
        _accumulate(a, g - p * g.sum(axis=axis, keepdims=True), fresh=True)

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
        _accumulate(logits, probs, fresh=True)

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
    """Normalization over the last axis with learned gain and bias. The
    input is centred once: the variance is np.var's sum of squares over
    the centred values, divided by the width."""
    x = _coerce(x)
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / x.data.shape[-1]
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bw(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=reduce_axes), fresh=True)
        _accumulate(bias, g.sum(axis=reduce_axes), fresh=True)
        gx = g * gain.data
        dot = (gx * xhat).mean(axis=-1, keepdims=True)
        gx -= gx.mean(axis=-1, keepdims=True)
        gx -= xhat * dot
        gx *= inv
        _accumulate(x, gx, fresh=True)

    return Tensor(out, parents=(x, gain, bias), backward_fn=bw)


def apply_dropout(x, rate: float, rng: Rng | None) -> Tensor:
    """Inverted dropout with masks from rng, survivors scaled by 1/(1-rate);
    identity, drawing nothing, when rng is None (inference) or rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate {rate} outside [0, 1)")
    x = _coerce(x)
    if rng is None or rate == 0.0:
        return x
    keep = rng.uniform_array(x.data.shape) >= rate
    return mul(x, keep.astype(np.float64) / (1.0 - rate))


# ---------------------------------------------------------------------------
# recurrent and attention blocks


GRU_KEYS = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")


def gru_sequence(x, h0, params) -> Tensor:
    """A GRU run over every position of x (batch, steps, E) from the
    state h0 (batch, H), with params mapping the nine GRU_KEYS to their
    tensors; returns the states (batch, steps, H) as one tape node. Each
    step is h' = (1 - z) * h + z * h_tilde with

        z = sigma(x Wz + h Uz + bz)
        r = sigma(x Wr + h Ur + br)
        h_tilde = tanh(x Wh + (r * h) Uh + bh)

    with one x [Wz|Wr|Wh] matmul per step, the input weights packed from
    their current values on entry. The backward pass runs
    backpropagation through time in one closure (Appleyard et al. 2016).
    Every matmul, forward and backward, covers one position. Folding the
    input product x [Wz|Wr|Wh] and the weight gradients over all batch *
    steps rows out of the time loop had no net effect inside a training
    run at the C7 shape (hidden 64, batch 32): the backward closure took
    10-15% less time and the forward 10-20% more, and the low bits of the
    gradients changed. Only the bias gradients are summed over all
    positions after the loop."""
    x, h0 = _coerce(x), _coerce(h0)
    tensors = tuple(params[key] for key in GRU_KEYS)
    wz, uz, bz, wr, ur, br, wh, uh, bh = (t.data for t in tensors)
    w, hid = np.concatenate([wz, wr, wh], axis=1), uh.shape[0]
    if (x.data.ndim != 3 or x.data.shape[-1] != w.shape[0]
            or h0.data.shape != (x.data.shape[0], hid)):
        raise ConfigurationError(
            f"gru dims {x.data.shape}/{h0.data.shape} do not match params")
    batch, steps, _ = x.data.shape
    parents = (x, h0) + tensors
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
        for tensor, grad in zip(tensors, grads):
            _accumulate(tensor, grad)
        _accumulate(x, dx, fresh=True)
        _accumulate(h0, dh, fresh=True)

    return Tensor(np.stack(states[1:], axis=1), parents=parents,
                  backward_fn=bw)


def gru_step(x, h, params) -> Tensor:
    """One GRU update of the states h (batch, H) from the inputs x
    (batch, E): gru_sequence over a single position."""
    x = _coerce(x)
    if x.data.ndim != 2:
        raise ConfigurationError(f"gru_step input {x.data.shape} is not "
                                 f"(batch, dim)")
    batch = x.data.shape[0]
    states = gru_sequence(reshape(x, (batch, 1, x.data.shape[1])), h, params)
    return reshape(states, (batch, states.data.shape[-1]))


def _check_attention_mask(mask: np.ndarray) -> np.ndarray:
    """Boolean attend-mask -> additive mask; reject fully masked rows."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise NumericError("attention mask leaves a position with no "
                           "unmasked targets")
    return np.where(mask, 0.0, _NEG_INF)


def split_heads(x, heads: int) -> Tensor:
    """(..., length, d) -> (..., heads, length, d / heads) as one tape node:
    a view forward; backward writes the gradient into one new array."""
    x = _coerce(x)
    d_model = x.data.shape[-1]
    if d_model % heads != 0:
        raise ConfigurationError(
            f"model dim {d_model} not divisible by {heads} heads")
    split = x.data.shape[:-1] + (heads, d_model // heads)

    def bw(g):
        dx = np.empty(x.data.shape)
        dx.reshape(split)[...] = g.swapaxes(-2, -3)
        _accumulate(x, dx, fresh=True)

    return Tensor(x.data.reshape(split).swapaxes(-2, -3), parents=(x,),
                  backward_fn=bw)


def dot_attention(queries, memory, mask=None) -> Tensor:
    """Multiplicative attention of every query position over a memory:
    the context (B, L, d) of (B, L, d) queries over (B, T, d) memory
    states, which are both the keys and the values. mask is boolean
    (attend = True), broadcastable to (B, L, T); a (B, 1, T) key mask
    leaves out the memory's padding. The node of scaled_dot_attention over
    one head, unscaled."""
    q, mem = _coerce(queries), _coerce(memory)
    if (q.data.ndim != 3 or mem.data.ndim != 3
            or q.data.shape[-1] != mem.data.shape[-1]):
        raise ConfigurationError(
            f"attention dims {q.data.shape} vs {mem.data.shape}")
    memory_head = split_heads(mem, 1)
    return _attention(split_heads(q, 1), memory_head, memory_head, mask, 1.0)


def scaled_dot_attention(qh, kh, vh, mask=None) -> Tensor:
    """softmax(qh kh^T / sqrt(d_head) + mask) vh of head-split queries
    (..., heads, Tq, d_head) over keys and values (..., heads, Tk, d_head),
    heads merged back into (..., Tq, heads * d_head), as one tape node (a
    fused attention kernel in numpy, as Dao et al. 2022 fuse it on a GPU).
    mask is boolean (attend = True), broadcastable to (Tq, Tk) per item
    and applied before the softmax."""
    qh = _coerce(qh)
    return _attention(qh, kh, vh, mask, 1.0 / np.sqrt(qh.data.shape[-1]))


def _attention(qh, kh, vh, mask, scale: float) -> Tensor:
    """The attention node of dot_attention and scaled_dot_attention:
    softmax(qh kh^T * scale + mask) vh, heads merged. The node keeps the
    probabilities p only, and its backward pass forms dv = p^T g, the
    softmax gradient p * (g v^T - rowsum(p * g v^T)) and from it dq and
    dk, with the operations, and so the values, of the matmul, mul, add,
    softmax and transpose nodes that it replaces."""
    qh, kh, vh = _coerce(qh), _coerce(kh), _coerce(vh)
    lead = qh.data.shape[:-2]
    if (qh.data.ndim < 3 or kh.data.shape[:-2] != lead
            or vh.data.shape[:-2] != lead
            or kh.data.shape[-1] != qh.data.shape[-1]
            or vh.data.shape[-2] != kh.data.shape[-2]):
        raise ConfigurationError(f"attention dims {qh.data.shape}, "
                                 f"{kh.data.shape}, {vh.data.shape}")
    p = np.matmul(qh.data, kh.data.swapaxes(-1, -2))
    p *= scale
    if mask is not None:
        p += np.expand_dims(_check_attention_mask(mask), axis=-3)
    softmax_in_place(p)
    ctx = np.matmul(p, vh.data).swapaxes(-2, -3)  # (..., Tq, heads, d_head)
    by_position = ctx.shape

    def bw(g):
        g = g.reshape(by_position).swapaxes(-2, -3)
        if vh.requires_grad:
            _accumulate(vh, np.matmul(p.swapaxes(-1, -2), g), fresh=True)
        if not (qh.requires_grad or kh.requires_grad):
            return
        ds = np.matmul(g, vh.data.swapaxes(-1, -2))
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        if qh.requires_grad:
            _accumulate(qh, np.matmul(ds, kh.data), fresh=True)
        if kh.requires_grad:
            _accumulate(kh, np.matmul(qh.data.swapaxes(-1, -2), ds)
                        .swapaxes(-1, -2), fresh=True)

    return Tensor(ctx.reshape(ctx.shape[:-2] + (-1,)), parents=(qh, kh, vh),
                  backward_fn=bw)


def multi_head_attention(queries, keys, values, heads: int,
                         wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                         mask=None) -> Tensor:
    """Queries, keys and values projected by wq, wk, wv and split into
    heads, attended by scaled_dot_attention and projected by wo."""
    return matmul(scaled_dot_attention(split_heads(matmul(queries, wq), heads),
                                       split_heads(matmul(keys, wk), heads),
                                       split_heads(matmul(values, wv), heads),
                                       mask), wo)


def causal_mask(length: int, past: int = 0) -> np.ndarray:
    """Attend-mask (length, past + length) of length positions that follow
    past earlier ones: each sees the earlier positions and itself."""
    return np.tri(length, past + length, past, dtype=bool)


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


def _sum_of_squares(arrays) -> float:
    """The squares of every entry summed array by array; inf, with no
    warning, when they overflow."""
    total = 0.0
    with np.errstate(over="ignore"):
        for a in arrays:
            total += float((a * a).sum())
    return total


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
        """The 2-norm of all gradients together. When the sum of squares
        overflows though every gradient is finite, the norm is that of
        the gradients divided by their largest |g|, times it, so a clip
        keeps the gradients' direction instead of zeroing them."""
        grads = [t.grad for _, t in self.items() if t.grad is not None]
        total = _sum_of_squares(grads)
        if np.isinf(total) and all(np.isfinite(g).all() for g in grads):
            scale = max(float(np.abs(g).max(initial=0.0)) for g in grads)
            return scale * float(np.sqrt(_sum_of_squares(
                [g / scale for g in grads])))
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
