"""Out-of-program tracer: wraps the public functions of every smoothsum
module from outside, records one span per call, and derives per-function
self time and call counts.

``from .x import y`` copies a reference into the importing module, so each
wrapped function is replaced in every loaded smoothsum module that holds
it, not only where it is defined. Re-entrant calls (``render_sexpr``
recursing into itself) are counted but folded into the outermost span.
"""

import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("corpus", "astkit", "stemming", "tensor", "smoothing", "models",
          "trainer", "metrics", "labcli", "rng")

# Public methods timed alongside the module functions.
METHODS = {
    "rng": {"Rng": ("derive", "random", "uniform_array", "randint",
                    "shuffle", "choose_indices")},
    "trainer": {"Adam": ("step",), "TrainHistory": ("write_csv",)},
    "corpus": {"Vocabulary": ("read", "write")},
    "tensor": {"ParamStore": ("zero_grads", "global_grad_norm",
                              "scale_grads", "copy_values", "load_values")},
    "metrics": {"HashedBagEmbedder": ("embed",)},
}

# Called once per AST node while parsing; a span each would be pure cost.
SKIP = {"astkit.node"}

# Spans whose tensors count as one training step or as inference work.
STEP_SPANS = ("models.sequence_loss",)
INFERENCE_SPANS = ("models.greedy_decode", "trainer.validation_token_accuracy")


class Tracer:
    """Install with ``install()``; read results with ``summary()`` after
    the traced work ends."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.bindings = {}
        self._step_ids = set()
        self._inference_ids = set()
        self._decode_id = None
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts recorded so far."""
        self.calls = [0] * len(self.names)
        self.active = [0] * len(self.names)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.step_depth = 0
        self.inference_depth = 0
        self.step_nodes = 0
        self.inference_nodes = 0
        self.decode_inner = {"models.forward_logits": 0,
                             "tensor.gru_step": 0}
        self.target_matrix_bytes = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: sys.modules[f"smoothsum.{name}"] for name in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or value.__module__ != module.__name__
                        or f"{layer}.{attr}" in SKIP):
                    continue
                replaced[value] = self._wrap(value, f"{layer}.{attr}")
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    self._wrap_method(cls, method, f"{layer}.{cls_name}.{method}")
        # patch every binding of a wrapped function, in every loaded module
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "smoothsum" or mod_name.startswith("smoothsum.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = (replaced.get(value)
                           if isinstance(value, types.FunctionType) else None)
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self.bindings.setdefault(wrapper.__qualname__, []).append(
                        f"{mod_name}.{attr}")
        self._step_ids = {self.name_ids[n] for n in STEP_SPANS}
        self._inference_ids = {self.name_ids[n] for n in INFERENCE_SPANS}
        self._decode_id = self.name_ids["models.greedy_decode"]
        self._count_tape_nodes(modules["tensor"].Tensor)
        self._count_target_bytes(modules)

    def _register(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.name_ids[name] = idx
        self.calls.append(0)
        self.active.append(0)
        return idx

    def _wrap(self, func, name: str):
        idx = self._register(name)
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[idx] += 1
            if tracer.active[idx]:
                return func(*args, **kwargs)
            tracer.active[idx] = 1
            tracer._enter(idx)
            span = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.stack.append(span)
            tracer.span_end.append(0.0)
            tracer.span_start.append(perf())
            try:
                return func(*args, **kwargs)
            finally:
                tracer.span_end[span] = perf()
                tracer.stack.pop()
                tracer.active[idx] = 0
                tracer._leave(idx)

        wrapper.__qualname__ = name
        wrapper.__wrapped__ = func
        return wrapper

    def _wrap_method(self, cls, method: str, name: str) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(self._wrap(raw.__func__, name)))
        else:
            setattr(cls, method, self._wrap(raw, name))

    def _enter(self, idx: int) -> None:
        if idx in self._step_ids:
            self.step_depth += 1
        elif idx in self._inference_ids:
            self.inference_depth += 1
        elif self.active[self._decode_id] and self.names[idx] in self.decode_inner:
            self.decode_inner[self.names[idx]] += 1

    def _leave(self, idx: int) -> None:
        if idx in self._step_ids:
            self.step_depth -= 1
        elif idx in self._inference_ids:
            self.inference_depth -= 1

    def _count_tape_nodes(self, tensor_cls) -> None:
        original = tensor_cls.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            if obj.requires_grad:
                if tracer.step_depth:
                    tracer.step_nodes += 1
                if tracer.inference_depth:
                    tracer.inference_nodes += 1

        tensor_cls.__init__ = counting_init

    def _count_target_bytes(self, modules) -> None:
        """Bytes of every dense (..., V) float64 target matrix, from the
        argument shapes of smooth_target_matrix."""
        smoothing = modules["smoothing"]
        timed = smoothing.smooth_target_matrix
        tracer = self

        def sized(target_ids, n_vocab, epsilon):
            tracer.target_matrix_bytes += (
                int(np.asarray(target_ids).size) * int(n_vocab) * 8)
            return timed(target_ids, n_vocab, epsilon)

        sized.__qualname__ = timed.__qualname__
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("smoothsum") and \
                    getattr(module, "smooth_target_matrix", None) is timed:
                module.smooth_target_matrix = sized

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """Per-function self time: each span's duration minus the time its
        direct child spans cover (spans nest, so children are disjoint)."""
        n = len(self.span_start)
        if n == 0:
            return {name: 0.0 for name in self.names}
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=n)
        own = np.bincount(names, weights=duration - child,
                          minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def summary(self) -> dict:
        return {
            "self_s": self.self_times(),
            "calls": dict(zip(self.names, self.calls)),
            "bindings": self.bindings,
            "spans": len(self.span_start),
            "step_tape_nodes": self.step_nodes,
            "inference_tape_nodes": self.inference_nodes,
            "decode_inner_calls": dict(self.decode_inner),
            "target_matrix_bytes": self.target_matrix_bytes,
        }

    def write_spans(self, path) -> None:
        """All spans, in call order, as parallel arrays (numpy .npz)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
