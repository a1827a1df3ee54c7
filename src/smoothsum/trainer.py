"""Teacher-forcing training loop with Adam, validation-accuracy model
selection and deterministic checkpointing.

Every run is a pure function of (data, config, seed): batch order comes
from a seed-and-epoch keyed shuffle, dropout masks from a parallel stream,
and the best epoch is picked by highest validation token accuracy with
ties going to the earliest epoch.
"""

import ctypes
import json
import math
import time
from dataclasses import dataclass, asdict, field

import numpy as np

from . import models, tensor as T
from .corpus import (PAD, Vocabulary, atomic_write, encode_sequence,
                     sbt_tokens_for_sample)
from .errors import ConfigurationError, DataError, NumericError
from .rng import Rng
from .smoothing import loss_floor

GRAD_CLIP_NORM = 5.0
# Adam's moment decay rates and denominator epsilon (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# glibc mallopt parameters (malloc.h), and the values train gives them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_MMAP_THRESHOLD = 32 << 20  # glibc's largest
_HEAP_TRIM_THRESHOLD = 1 << 30


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:  # rejects NaN
            raise ConfigurationError(
                "learning_rate must be positive and finite")


@dataclass
class EpochRecord:
    epoch: int
    loss_nats: float
    val_accuracy: float
    seconds: float  # wall clock: logged on stderr, kept out of history.csv


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    def write_csv(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write("epoch,loss_nats,val_acc\n")
            for r in self.records:
                fh.write(f"{r.epoch},{r.loss_nats!r},{r.val_accuracy!r}\n")


@dataclass
class Checkpoint:
    model: models.Model
    train_config: TrainConfig
    epoch: int
    val_accuracy: float


@dataclass
class EncodedDataset:
    """Samples encoded against fixed vocabularies and model lengths. ast
    has no columns when the architecture reads no AST."""

    sample_ids: list
    code: np.ndarray
    comments: np.ndarray
    ast: np.ndarray
    references: list = field(default_factory=list)

    def __len__(self):
        return len(self.sample_ids)


def encode_corpus(samples: list, config: models.ModelConfig,
                  src_vocab: Vocabulary, tgt_vocab: Vocabulary,
                  ast_vocab: Vocabulary | None = None) -> EncodedDataset:
    """Sources are encoded bare, comments wrapped in START/END; the AST
    stream (SBT tokens) is encoded bare against its own vocabulary. A
    sample without code tokens is refused: attention over its all-PAD
    source row would have no position to attend to."""
    if not samples:
        raise DataError("cannot encode an empty corpus")
    reads_ast = config.arch == "ast_attendgru"
    if reads_ast and ast_vocab is None:
        raise ConfigurationError("ast_attendgru needs an AST vocabulary")
    code_rows, ast_rows = [], []
    for s in samples:
        if not s.code_tokens:
            raise DataError(f"sample {s.id!r} has no code tokens")
        code_rows.append(encode_sequence(s.code_tokens, src_vocab,
                                         config.code_len, False))
        ast_rows.append(encode_sequence(sbt_tokens_for_sample(s), ast_vocab,
                                        config.ast_len, False)
                        if reads_ast else [])
    # references are capped at the trainable content length so decode and
    # reference lengths stay commensurate
    max_content = config.comment_len - 2
    return EncodedDataset(
        sample_ids=[s.id for s in samples],
        code=np.array(code_rows, dtype=np.int64),
        comments=encode_comments(samples, tgt_vocab, config.comment_len),
        ast=np.array(ast_rows, dtype=np.int64),
        references=[list(s.comment_tokens[:max_content]) for s in samples],
    )


def encode_comments(samples: list, tgt_vocab: Vocabulary,
                    comment_len: int) -> np.ndarray:
    """The comments of samples wrapped in START/END: the one side of an
    EncodedDataset that depends on the target vocabulary."""
    return np.array([encode_sequence(s.comment_tokens, tgt_vocab, comment_len,
                                     True) for s in samples],
                    dtype=np.int64)


class Adam:
    def __init__(self, params: T.ParamStore, learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self.step_count = 0
        self.m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.items()}

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for name, t in self.params.items():
            # in place, with the operations and their order of
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
            # data -= lr (m / bias1) / (sqrt(v / bias2) + eps)
            g, m, v = t.grad, self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            scratch = (1 - b2) * g
            scratch *= g
            v += scratch
            update = np.divide(m, bias1)
            update *= self.lr
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += ADAM_EPS
            update /= scratch
            t.data -= update


def _keep_freed_heap() -> None:
    """Ask glibc's malloc to keep freed memory in the process for reuse.

    backward frees each step's tape as it goes, so every step ends with the
    heap nearly empty. With glibc's default dynamic thresholds, malloc then
    hands the top of the heap back to the system and the next step faults
    every page in again: on a 2-vCPU x86-64 host an in-process
    transformer-wide benchmark train took about 270k minor page faults
    and 0.6-0.8 s of system time in 2.6 s, against 22k and 0.05 s with
    these settings. Arrays below _HEAP_MMAP_THRESHOLD come from the heap,
    and free memory at its top is kept up to _HEAP_TRIM_THRESHOLD, so the
    heap stays at the high-water mark of one step. A C library without
    mallopt is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_THRESHOLD)


def row_slices(count: int, size: int):
    """Slices of at most size consecutive rows covering range(count)."""
    return (slice(start, start + size) for start in range(0, count, size))


def validation_token_accuracy(model: models.Model, dataset: EncodedDataset,
                              batch_size: int) -> float:
    """Fraction of non-PAD target positions where the argmax next-token
    prediction equals the gold token under teacher forcing."""
    if len(dataset) == 0:
        raise DataError("cannot compute accuracy on an empty dataset")
    hits = 0
    total = 0
    for rows in row_slices(len(dataset), batch_size):
        comments = dataset.comments[rows]
        prefix, targets = comments[:, :-1], comments[:, 1:]
        probs = models.forward_step(model, dataset.code[rows],
                                    dataset.ast[rows], prefix)
        predicted = probs.argmax(axis=-1)
        mask = targets != PAD
        hits += int((predicted[mask] == targets[mask]).sum())
        total += int(mask.sum())
    if total == 0:
        raise DataError("dataset has no non-PAD target positions")
    return hits / total


def train(model: models.Model, train_set: EncodedDataset,
          val_set: EncodedDataset, config: TrainConfig):
    """Returns (best Checkpoint, TrainHistory).

    On return, model holds the parameters of its best epoch, restored from
    the values saved at that epoch, and is the checkpoint's model. The
    epoch-mean training loss is checked against the analytic smoothed
    floor every epoch; a violation indicates a numeric defect.
    """
    if len(train_set) == 0:
        raise DataError("empty training set")
    _keep_freed_heap()
    optimizer = Adam(model.params, config.learning_rate)
    history = TrainHistory()
    floor = loss_floor(model.config.epsilon, model.config.tgt_vocab)
    best_values = None
    best_accuracy = -1.0
    best_epoch = -1

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = list(range(len(train_set)))
        Rng(config.seed).derive("shuffle", epoch).shuffle(order)
        dropout_rng = Rng(config.seed).derive("dropout", epoch)
        loss_total = 0.0
        token_total = 0
        for batch_index, rows in enumerate(row_slices(len(order),
                                                      config.batch_size)):
            idx = np.asarray(order[rows])
            model.params.zero_grads()
            loss, count = models.sequence_loss(
                model, train_set.code[idx], train_set.ast[idx],
                train_set.comments[idx], rng=dropout_rng)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise NumericError(
                    f"non-finite loss in epoch {epoch} batch {batch_index}")
            T.backward(loss, model.params)
            norm = model.params.global_grad_norm()
            if norm > GRAD_CLIP_NORM:
                model.params.scale_grads(GRAD_CLIP_NORM / norm)
            optimizer.step()
            loss_total += loss_value * count
            token_total += count
        epoch_loss = loss_total / token_total
        if epoch_loss < floor - 1e-9:
            raise NumericError(
                f"epoch {epoch} loss {epoch_loss} fell below the analytic "
                f"floor {floor}")
        accuracy = validation_token_accuracy(model, val_set, config.batch_size)
        history.records.append(EpochRecord(
            epoch=epoch, loss_nats=epoch_loss, val_accuracy=accuracy,
            seconds=time.perf_counter() - started))
        if accuracy > best_accuracy:
            best_accuracy = accuracy
            best_epoch = epoch
            best_values = model.params.copy_values()

    model.params.load_values(best_values)
    return Checkpoint(model=model, train_config=config, epoch=best_epoch,
                      val_accuracy=best_accuracy), history


# ---------------------------------------------------------------------------
# checkpoint files


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    payload = models.model_to_dict(ckpt.model)
    payload["train_config"] = asdict(ckpt.train_config)
    payload["epoch"] = ckpt.epoch
    payload["val_accuracy"] = ckpt.val_accuracy
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":"))
                 + "\n")


def load_checkpoint(path) -> Checkpoint:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"malformed checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"checkpoint {path} is not a JSON object")
    for key in ("train_config", "epoch", "val_accuracy"):
        if key not in payload:
            raise DataError(f"checkpoint {path} missing field {key!r}")
    epoch, val_accuracy = payload["epoch"], payload["val_accuracy"]
    if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 1:
        raise DataError(f"checkpoint {path} field 'epoch' is not an "
                        f"integer >= 1")
    if (isinstance(val_accuracy, bool)
            or not isinstance(val_accuracy, (int, float))
            or not 0.0 <= val_accuracy <= 1.0):
        raise DataError(f"checkpoint {path} field 'val_accuracy' is not a "
                        f"number in [0, 1]")
    return Checkpoint(
        model=models.model_from_dict(payload),
        train_config=models.config_from_dict(
            TrainConfig, payload["train_config"], "train_config"),
        epoch=epoch,
        val_accuracy=float(val_accuracy),
    )
