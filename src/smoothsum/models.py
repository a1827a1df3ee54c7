"""The three summarization architectures assembled from tensor primitives.

attendgru      source-token GRU encoder, GRU decoder with multiplicative
               attention over encoder states.
ast_attendgru  attendgru plus a second GRU encoder over flattened-AST
               tokens with its own attention; both contexts feed the
               output layer.
transformer    embeddings + sinusoidal positions, post-norm encoder blocks
               (self-attention, feed-forward) and decoder blocks (masked
               self-attention, cross-attention, feed-forward), dropout on
               attention outputs.

Every entry point takes (B, T) id batches: one row per sample. Each
architecture has one decoder, built per batch from encoders run once.
Every call runs the positions of a (B, L) id array after those of earlier
calls and returns their next-token logits. A teacher-forced forward pass is
one call over the whole prefix; greedy decoding is one call per step.
"""

import base64
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import tensor as T
from .corpus import END, PAD, SPECIAL_TOKENS, START
from .errors import ConfigurationError, DataError
from .rng import Rng

ARCHITECTURES = ("attendgru", "transformer", "ast_attendgru")
CHECKPOINT_FORMAT_VERSION = 3


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    src_vocab: int
    tgt_vocab: int
    embed_dim: int = 64
    hidden_dim: int = 64
    code_len: int = 50
    ast_len: int = 80
    comment_len: int = 13
    heads: int = 4
    layers: int = 2
    dropout_rate: float = 0.1
    epsilon: float = 0.0
    ast_vocab: int = 0  # flat-AST token space; required for ast_attendgru

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ConfigurationError(f"unknown architecture {self.arch!r}")
        for name in ("src_vocab", "tgt_vocab", "embed_dim", "hidden_dim",
                     "code_len", "comment_len", "heads", "layers"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if min(self.src_vocab, self.tgt_vocab) <= len(SPECIAL_TOKENS):
            raise ConfigurationError("vocabularies must include the specials")
        for name in ("code_len", "comment_len"):
            if getattr(self, name) < 2:
                raise ConfigurationError(f"{name} must be >= 2")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError("dropout_rate must be in [0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError("epsilon must be in [0, 1]")
        if self.arch == "transformer":
            if self.hidden_dim % self.heads != 0:
                raise ConfigurationError(
                    f"heads {self.heads} must divide hidden_dim {self.hidden_dim}")
            if self.embed_dim != self.hidden_dim:
                raise ConfigurationError(
                    "transformer requires embed_dim == hidden_dim")
            if self.hidden_dim % 2 != 0:
                raise ConfigurationError(
                    f"transformer hidden_dim {self.hidden_dim} must be even")
        if self.arch == "ast_attendgru":
            if self.ast_len < 2:
                raise ConfigurationError("ast_attendgru requires ast_len >= 2")
            if self.ast_vocab <= len(SPECIAL_TOKENS):
                raise ConfigurationError(
                    "ast_attendgru requires an ast_vocab of at least "
                    f"{len(SPECIAL_TOKENS) + 1}")


@dataclass
class Model:
    config: ModelConfig
    params: T.ParamStore


def _gru_shapes(prefix: str, in_dim: int, hid: int) -> dict:
    shapes = {"w": (in_dim, hid), "u": (hid, hid), "b": (hid,)}
    return {f"{prefix}.{key}": shapes[key[0]] for key in T.GRU_KEYS}


def _attn_shapes(prefix: str, d: int) -> dict:
    return {f"{prefix}.{name}": (d, d) for name in ("wq", "wk", "wv", "wo")}


def _ln_shapes(prefix: str, d: int) -> dict:
    return {f"{prefix}.gain": (d,), f"{prefix}.bias": (d,)}


def _ff_shapes(prefix: str, d: int) -> dict:
    ff = 4 * d
    return {f"{prefix}.w1": (d, ff), f"{prefix}.b1": (ff,),
            f"{prefix}.w2": (ff, d), f"{prefix}.b2": (d,)}


def parameter_template(config: ModelConfig) -> dict:
    """Name -> shape map for an architecture; the checkpoint contract."""
    e, h = config.embed_dim, config.hidden_dim
    shapes = {
        "src_embed": (config.src_vocab, e),
        "tgt_embed": (config.tgt_vocab, e),
    }
    if config.arch == "transformer":
        for i in range(config.layers):
            shapes.update(_attn_shapes(f"enc{i}.attn", h))
            shapes.update(_ln_shapes(f"enc{i}.ln1", h))
            shapes.update(_ff_shapes(f"enc{i}.ff", h))
            shapes.update(_ln_shapes(f"enc{i}.ln2", h))
            shapes.update(_attn_shapes(f"dec{i}.self", h))
            shapes.update(_ln_shapes(f"dec{i}.ln1", h))
            shapes.update(_attn_shapes(f"dec{i}.cross", h))
            shapes.update(_ln_shapes(f"dec{i}.ln2", h))
            shapes.update(_ff_shapes(f"dec{i}.ff", h))
            shapes.update(_ln_shapes(f"dec{i}.ln3", h))
        width = h  # the output layer reads the last decoder state
    else:
        shapes.update(_gru_shapes("enc_gru", e, h))
        shapes.update(_gru_shapes("dec_gru", e, h))
        width = 2 * h  # [source context, decoder state]
        if config.arch == "ast_attendgru":
            shapes["ast_embed"] = (config.ast_vocab, e)
            shapes.update(_gru_shapes("ast_gru", e, h))
            width = 3 * h  # plus the AST context
    shapes["out.w"] = (width, config.tgt_vocab)
    shapes["out.b"] = (config.tgt_vocab,)
    return shapes


def build_model(config: ModelConfig, seed: int) -> Model:
    """Deterministic initialization: Glorot uniform for matrices (each
    parameter drawn from its own name-keyed stream), zeros for biases,
    ones for layer-norm gains."""
    params = T.ParamStore()
    base = Rng(seed).derive("model-init")
    for name, shape in sorted(parameter_template(config).items()):
        if len(shape) == 1:
            data = np.ones(shape) if name.endswith(".gain") else np.zeros(shape)
        else:
            data = T.glorot_uniform(base.derive(name), shape)
        params.add(name, data)
    return Model(config=config, params=params)


def _gru_weights(params: T.ParamStore, prefix: str) -> dict:
    return {key: params[f"{prefix}.{key}"] for key in T.GRU_KEYS}


def _run_gru(model: Model, prefix: str, embed_name: str, ids: np.ndarray,
             state: T.Tensor | None = None):
    """The GRU named prefix over the embeddings of a (B, L) id array from
    state (zeros when None). Returns (states (B, L, H), last state (B, H))."""
    if state is None:
        state = T.Tensor(np.zeros((ids.shape[0], model.config.hidden_dim)))
    states = T.gru_sequence(T.embedding(model.params[embed_name], ids), state,
                            _gru_weights(model.params, prefix))
    return states, T.select(states, ids.shape[1] - 1, axis=1)


def _validate_ids(ids: np.ndarray, vocab: int, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ConfigurationError(f"{what} ids must be a (batch, length) "
                                 f"array, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise DataError(f"{what} id outside vocabulary of size {vocab}")
    return ids


def _encode_gru(model: Model, code_ids, ast_ids):
    """Runs the encoders once. Returns the final source state, which seeds
    the decoder, and one (states (B, T, H), key mask (B, 1, T)) attention
    memory per encoder."""
    src_states, state = _run_gru(model, "enc_gru", "src_embed", code_ids)
    memories = [(src_states, (code_ids != PAD)[:, None, :])]
    if model.config.arch == "ast_attendgru":
        ast_states, _ = _run_gru(model, "ast_gru", "ast_embed", ast_ids)
        memories.append((ast_states, (ast_ids != PAD)[:, None, :]))
    return state, memories


def _gru_logits(params: T.ParamStore, states: T.Tensor, memories) -> T.Tensor:
    """Logits (B, L, V) for decoder states (B, L, H): one attention
    context per memory, and the output projection of [contexts..., state]
    as one (B*L, kH) @ (kH, V) linear node."""
    contexts = [T.dot_attention(states, memory, mask=mask)
                for memory, mask in memories]
    features = T.concat(contexts + [states], axis=-1)
    batch, length, width = features.data.shape
    logits = T.linear(T.reshape(features, (batch * length, width)),
                      params["out.w"], params["out.b"])
    return T.reshape(logits, (batch, length, logits.data.shape[-1]))


def _validate_sources(cfg: ModelConfig, code_ids, ast_ids):
    """Checked (batch, length) source ids, plus AST ids for ast_attendgru
    (which needs them); other architectures ignore ast_ids."""
    code_ids = _validate_ids(code_ids, cfg.src_vocab, "source")
    if cfg.arch == "ast_attendgru":
        if ast_ids is None:
            raise DataError("ast_attendgru requires AST token ids")
        ast_ids = _validate_ids(ast_ids, cfg.ast_vocab, "ast")
        if len(ast_ids) != len(code_ids):
            raise ConfigurationError(
                f"AST ids {ast_ids.shape} and source ids {code_ids.shape} "
                f"differ in batch size")
    return code_ids, ast_ids


def _gru_decoder(model: Model, code_ids, ast_ids):
    """The recurrent decoders from encoders run once. Each call runs the
    decoder GRU over the positions of a (B, L) id array from the state
    the previous call left (the final source state at first) and returns
    their logits (B, L, V): the GRU reads only the previous token and
    state, and attention follows the update, so a teacher-forced prefix
    runs as one sequence."""
    state, memories = _encode_gru(model, code_ids, ast_ids)

    def decode(prefix_ids: np.ndarray) -> T.Tensor:
        nonlocal state
        states, state = _run_gru(model, "dec_gru", "tgt_embed", prefix_ids,
                                 state)
        return _gru_logits(model.params, states, memories)

    return decode


def _transformer_ff(params: T.ParamStore, prefix: str, x: T.Tensor) -> T.Tensor:
    hidden = T.linear_relu(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    return T.linear(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _residual(model: Model, prefix: str, x: T.Tensor, y: T.Tensor,
              rng: Rng | None = None) -> T.Tensor:
    """The post-norm residual layer_norm(x + dropout(y)) with the layer
    norm named prefix; y is dropped out only when a dropout rng is given."""
    p = model.params
    return T.residual_layer_norm(x, y, p[f"{prefix}.gain"],
                                 p[f"{prefix}.bias"],
                                 model.config.dropout_rate, rng)


def _encode_transformer(model: Model, code_ids, rng):
    """Encoder stack. Returns (memory (B, T, H), key mask (B, 1, T))."""
    cfg = model.config
    p = model.params
    src_pe = T.positional_encoding(code_ids.shape[1], cfg.hidden_dim)
    x = T.add(T.embedding(p["src_embed"], code_ids), src_pe)
    src_mask = (code_ids != PAD)[:, None, :]  # keys masked at PAD
    for i in range(cfg.layers):
        attn = T.multi_head_attention(
            x, x, x, cfg.heads, p[f"enc{i}.attn.wq"], p[f"enc{i}.attn.wk"],
            p[f"enc{i}.attn.wv"], p[f"enc{i}.attn.wo"], mask=src_mask)
        x = _residual(model, f"enc{i}.ln1", x, attn, rng)
        x = _residual(model, f"enc{i}.ln2", x,
                      _transformer_ff(p, f"enc{i}.ff", x))
    return x, src_mask


def _cross_kv(model: Model, i: int, memory: T.Tensor):
    """Head-split keys and values of decoder layer i over the memory."""
    p, heads = model.params, model.config.heads
    return (T.split_heads(T.matmul(memory, p[f"dec{i}.cross.wk"]), heads),
            T.split_heads(T.matmul(memory, p[f"dec{i}.cross.wv"]), heads))


def _decoder_layer(model: Model, i: int, y: T.Tensor, past, causal,
                   cross_kv, src_mask, rng):
    """Decoder layer i over the positions of y. past holds the layer's
    self-attention keys and values of earlier positions (None when there
    are none); causal masks y's positions over the earlier ones and their
    own (None: y sees them all). Returns (output, self-attention keys and
    values through y's last position)."""
    p, heads = model.params, model.config.heads
    kh = T.split_heads(T.matmul(y, p[f"dec{i}.self.wk"]), heads)
    vh = T.split_heads(T.matmul(y, p[f"dec{i}.self.wv"]), heads)
    if past is not None:
        kh = T.concat([past[0], kh], axis=-2)
        vh = T.concat([past[1], vh], axis=-2)
    qh = T.split_heads(T.matmul(y, p[f"dec{i}.self.wq"]), heads)
    self_attn = T.matmul(T.scaled_dot_attention(qh, kh, vh, causal),
                         p[f"dec{i}.self.wo"])
    y = _residual(model, f"dec{i}.ln1", y, self_attn, rng)
    qh = T.split_heads(T.matmul(y, p[f"dec{i}.cross.wq"]), heads)
    cross = T.matmul(T.scaled_dot_attention(qh, *cross_kv, src_mask),
                     p[f"dec{i}.cross.wo"])
    y = _residual(model, f"dec{i}.ln2", y, cross, rng)
    y = _residual(model, f"dec{i}.ln3", y, _transformer_ff(p, f"dec{i}.ff", y))
    return y, (kh, vh)


def _transformer_decoder(model: Model, code_ids, rng):
    """The transformer decoder from an encoder run once, with each layer's
    cross-attention keys and values projected once. Each call runs the
    positions of a (B, L) id array after those of earlier calls and
    returns their logits (B, L, V): every layer's self-attention key/value
    cache grows by L, and the causal mask covers the cached positions,
    which is exact for a causal post-norm decoder."""
    cfg = model.config
    p = model.params
    memory, src_mask = _encode_transformer(model, code_ids, rng)
    cross = [_cross_kv(model, i, memory) for i in range(cfg.layers)]
    cache = [None] * cfg.layers
    past = 0

    def decode(prefix_ids: np.ndarray) -> T.Tensor:
        nonlocal past
        length = prefix_ids.shape[1]
        pe = T.positional_encoding(past + length, cfg.hidden_dim)[past:]
        y = T.add(T.embedding(p["tgt_embed"], prefix_ids), pe)
        causal = T.causal_mask(length, past) if length > 1 else None
        past += length
        for i in range(cfg.layers):
            y, cache[i] = _decoder_layer(model, i, y, cache[i], causal,
                                         cross[i], src_mask, rng)
        return T.linear(y, p["out.w"], p["out.b"])

    return decode


def _decoder(model: Model, code_ids, ast_ids, rng: Rng | None = None):
    """The architecture's decoder over checked source ids."""
    if model.config.arch == "transformer":
        return _transformer_decoder(model, code_ids, rng)
    return _gru_decoder(model, code_ids, ast_ids)


def forward_logits(model: Model, code_ids, ast_ids, prefix_ids,
                   rng: Rng | None = None) -> T.Tensor:
    """Next-token logits for every prefix position: (batch, len, tgt_vocab).
    A pass given a dropout rng is a training pass; rng=None is inference."""
    cfg = model.config
    code_ids, ast_ids = _validate_sources(cfg, code_ids, ast_ids)
    prefix_ids = _validate_ids(prefix_ids, cfg.tgt_vocab, "comment")
    return _decoder(model, code_ids, ast_ids, rng)(prefix_ids)


def forward_step(model: Model, code_ids, ast_ids, comment_prefix_ids) -> np.ndarray:
    """Teacher-forcing inference: probability rows per prefix position,
    formed in the memory of the logits."""
    with T.no_grad():
        logits = forward_logits(model, code_ids, ast_ids, comment_prefix_ids)
    return T.softmax_in_place(logits.data)


def sequence_loss(model: Model, code_ids, ast_ids, comment_ids,
                  rng: Rng | None = None):
    """Label-smoothed cross-entropy averaged over non-PAD target positions.

    comment_ids holds full marker-wrapped sequences; positions [:-1] are
    the teacher-forcing prefix and [1:] the prediction targets; rng as in
    forward_logits. Returns (loss Tensor, non-PAD token count).
    """
    comment_ids = _validate_ids(comment_ids, model.config.tgt_vocab, "comment")
    prefix, targets = comment_ids[:, :-1], comment_ids[:, 1:]
    logits = forward_logits(model, code_ids, ast_ids, prefix, rng)
    mask = (targets != PAD).astype(np.float64)
    count = int(mask.sum())
    if count == 0:
        raise DataError("batch contains no non-PAD target positions")
    return T.smoothed_cross_entropy(logits, targets, model.config.epsilon,
                                    mask), count


def greedy_decode(model: Model, code_ids, ast_ids) -> list:
    """Argmax decoding of a (B, T) batch from START until every row has
    emitted END, or for comment_len - 1 steps; each step emits the argmax
    of the logits, with exact ties broken toward the lowest index
    (np.argmax convention). Returns one id list per row, without
    START, running through the row's END when it emitted one.
    """
    cfg = model.config
    code_ids, ast_ids = _validate_sources(cfg, code_ids, ast_ids)

    with T.no_grad():
        decode = _decoder(model, code_ids, ast_ids)
        tokens = np.full(code_ids.shape[0], START, dtype=np.int64)
        finished = np.zeros(code_ids.shape[0], dtype=bool)
        emitted = []
        for _ in range(cfg.comment_len - 1):
            logits = decode(tokens[:, None])
            tokens = logits.data[:, 0].argmax(axis=-1)
            emitted.append(tokens)
            finished |= tokens == END
            if finished.all():
                break

    return [ids[:ids.index(END) + 1] if END in ids else ids
            for ids in np.stack(emitted, axis=1).tolist()]


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(model: Model) -> dict:
    """The checkpoint form of a model. Each parameter's "data" is the
    base64 text of its row-major little-endian float64 bytes, so values
    round-trip bit-exactly."""
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(model.config),
        "params": {
            name: {"shape": list(t.data.shape),
                   "data": base64.b64encode(
                       t.data.astype("<f8", copy=False).tobytes()).decode("ascii")}
            for name, t in model.params.items()
        },
    }


def config_from_dict(cls, values, what: str):
    """cls(**values) for a config read from a checkpoint; a missing,
    unknown, mistyped or out-of-range field is a DataError. A float field
    also takes a JSON integer; no field takes a boolean."""
    if not isinstance(values, dict):
        raise DataError(f"checkpoint {what} is not an object")
    for f in fields(cls):
        allowed = (int, float) if f.type is float else f.type
        value = values.get(f.name)
        if f.name in values and (isinstance(value, bool)
                                 or not isinstance(value, allowed)):
            raise DataError(f"checkpoint {what} field {f.name!r} is not "
                            f"of type {f.type.__name__}")
    try:
        return cls(**values)
    except (TypeError, ConfigurationError) as exc:
        raise DataError(f"checkpoint {what} is invalid: {exc}") from exc


def model_from_dict(payload: dict) -> Model:
    if payload.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"unsupported checkpoint format {payload.get('format_version')!r}")
    config = config_from_dict(ModelConfig, payload.get("config"), "config")
    template = parameter_template(config)
    stored = payload.get("params")
    if not isinstance(stored, dict):
        raise DataError("checkpoint params must be an object of name -> "
                        "{shape, data}")
    if sorted(stored) != sorted(template):
        raise DataError("checkpoint parameter names do not match architecture")
    params = T.ParamStore()
    for name in sorted(template):
        entry = stored[name]
        if not (isinstance(entry, dict) and isinstance(entry.get("shape"), list)
                and isinstance(entry.get("data"), str)):
            raise DataError(f"checkpoint parameter {name!r} needs a list "
                            f"'shape' and a base64 string 'data'")
        shape = tuple(entry["shape"])
        if any(isinstance(size, bool) or not isinstance(size, int)
               for size in shape):
            raise DataError(f"checkpoint shape {list(shape)} for {name!r} "
                            f"holds a size that is not an integer")
        if shape != template[name]:
            raise DataError(
                f"checkpoint shape {shape} for {name!r} does not match "
                f"template {template[name]}")
        try:
            # validate=True: without it a bad character is skipped silently
            raw = base64.b64decode(entry["data"], validate=True)
        except ValueError as exc:
            raise DataError(f"checkpoint data for {name!r} is not base64: "
                            f"{exc}") from exc
        size = int(np.prod(template[name]))
        if len(raw) != 8 * size:
            raise DataError(f"checkpoint data for {name!r} holds {len(raw)} "
                            f"bytes, not the {8 * size} of {size} float64s")
        data = np.frombuffer(raw, dtype="<f8")
        if not np.isfinite(data).all():
            raise DataError(f"checkpoint data for {name!r} is not finite")
        params.add(name, data.reshape(template[name]))
    return Model(config=config, params=params)


def grad_check_model(model: Model, code_ids, ast_ids, comment_ids) -> float:
    """Finite-difference check of the full training loss (dropout off)."""

    def loss_fn():
        loss, _ = sequence_loss(model, code_ids, ast_ids, comment_ids)
        return loss

    return T.grad_check(loss_fn, model.params)
