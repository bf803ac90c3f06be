"""Span tracing around the public functions of the crossmpt modules.

The program is not modified. While a Tracer is installed, each function named
in SPANNED is replaced, at every crossmpt module attribute that binds it (the
defining module and every module that imported it by name), by a wrapper that
records a span. Autodiff primitives additionally wrap the `_backward` closure
of the Tensor they return, so each backward closure gets its own span, and
`Tensor.backward` is wrapped to time the graph walk around the closures.
`restore()` puts every original back.

A span is (name id, start, end, parent span id). Spans are kept in memory and
written out once, at the end of the run. A span's self time is its duration
minus the durations of its children; the self times of all spans add up to the
durations of the benchmark's root spans, and the roots' own self time is the
part of the traced wall time no layer accounts for.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

PRIMITIVES = (
    "matmul", "transpose", "add", "mul", "neg", "scale", "concat", "narrow",
    "reshape", "reduce_sum", "masked_softmax", "layer_norm", "gelu", "softplus",
)
# primitives reported on their own; the rest are summed into autodiff.other
NAMED_PRIMITIVES = ("gelu", "layer_norm", "matmul", "masked_softmax")

SPANNED = {
    "crossmpt.models": {
        "forward_arrays": "models.forward_arrays",
        "foundation_logits": "models.foundation_logits",
        "crossmpt_layer": "models.crossmpt_layer",
    },
    "crossmpt.masks": {
        "build_crossmpt_masks": "masks.build",
        "build_ecct_mask": "masks.build",
        "build_fully_masked_ecct_mask": "masks.build",
    },
    "crossmpt.ensemble": {"crossed_forward": "ensemble.crossed_forward"},
    "crossmpt.channel": {"sample_batch": "channel.sample_batch"},
    "crossmpt.bp": {"bp_decode_batch": "bp.decode_batch"},
    "crossmpt.evaluation": {"estimate_ber": "evaluation.estimate_ber"},
    "crossmpt.training": {"train": "training.train", "loss": "training.loss"},
    "crossmpt.optim": {
        "adam_step": "optim.adam_step",
        "clip_global_norm": "optim.clip_global_norm",
    },
    "crossmpt.checkpoint": {"save_checkpoint": "checkpoint.save"},
}

# per-layer self-time metrics and the spans whose self time each one sums
SELF_TIME_METRICS = {
    **{f"autodiff.{p}.fwd_s": (f"autodiff.{p}",) for p in NAMED_PRIMITIVES},
    **{f"autodiff.{p}.bwd_s": (f"autodiff.{p}.bwd",) for p in NAMED_PRIMITIVES},
    "autodiff.other.fwd_s": tuple(
        f"autodiff.{p}" for p in PRIMITIVES if p not in NAMED_PRIMITIVES
    ),
    "autodiff.other.bwd_s": tuple(
        f"autodiff.{p}.bwd" for p in PRIMITIVES if p not in NAMED_PRIMITIVES
    ),
    "autodiff.backward.self_s": ("autodiff.backward",),
    "models.crossmpt_layer.s": ("models.crossmpt_layer",),
    "models.forward.s": ("models.forward_arrays", "models.foundation_logits"),
    "ensemble.crossed_forward.s": ("ensemble.crossed_forward",),
    "masks.build.s": ("masks.build",),
    "channel.sample_batch.s": ("channel.sample_batch",),
    "bp.decode_batch.s": ("bp.decode_batch",),
    "evaluation.harness_self_s": ("evaluation.estimate_ber",),
    "training.loss.s": ("training.loss",),
    "optim.adam_step.s": ("optim.adam_step",),
    "optim.clip_global_norm.s": ("optim.clip_global_norm",),
    "checkpoint.save.s": ("checkpoint.save",),
    # training.train is split by the first step: training.setup_self_s and
    # training.loop_self_s; the benchmark's root spans: trace.unattributed_s
}
ROOTS = ("bench.setup", "bench.loop")


def _binding_modules(original) -> list:
    """Every loaded crossmpt module, and the attribute name, that binds `original`."""
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "crossmpt" or name.startswith("crossmpt.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, attr))
    return sites


class Patcher:
    """Replaces a function at every import site and undoes it in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(original)
        for mod, site_attr in _binding_modules(original):
            self._undo.append((mod, site_attr, original))
            setattr(mod, site_attr, wrapper)

    def replace_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder plus counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._patcher = Patcher()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _call(self, nid: int, fn, args, kwargs):
        spans = self.spans
        sid = len(spans)
        spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            spans[sid] = (nid, t0, t1, parent)

    @contextmanager
    def root(self, name: str):
        """A benchmark-owned span; its self time is reported as unattributed."""
        nid = self._id(name)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (nid, t0, t1, parent)

    def _spanned(self, name: str, counter=None):
        nid = self._id(name)

        def make(original):
            def wrapper(*args, **kwargs):
                out = self._call(nid, original, args, kwargs)
                if counter is not None:
                    counter(out)
                return out

            return wrapper

        return make

    def _primitive(self, prim: str):
        fwd = self._id(f"autodiff.{prim}")
        bwd = self._id(f"autodiff.{prim}.bwd")
        counters = self.counters
        call = self._call
        spans, stack = self.spans, self._stack

        def make(original):
            def timed_backward(closure):
                def backward(g):
                    return call(bwd, closure, (g,), {})

                return backward

            def forward(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(sid)
                t0 = perf_counter()
                try:
                    out = original(*args, **kwargs)
                    counters["autodiff.calls"] += 1
                    if out._backward is not None:
                        counters["autodiff.nodes"] += 1
                        out._backward = timed_backward(out._backward)
                    return out
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[sid] = (fwd, t0, t1, parent)

            return forward

        return make

    def install(self) -> None:
        from crossmpt import autodiff

        for prim in PRIMITIVES:
            self._patcher.replace("crossmpt.autodiff", prim, self._primitive(prim))
        walk = self._id("autodiff.backward")
        original_backward = autodiff.Tensor.backward

        def backward(tensor, seed=None):
            return self._call(walk, original_backward, (tensor, seed), {})

        self._patcher.replace_attr(autodiff.Tensor, "backward", backward)

        counters = self.counters

        def count_masks(_out):
            counters["masks.build.calls"] += 1

        def count_frames(batch):
            counters["channel.sample_batch.frames"] += len(batch)

        def count_bp(result):
            _, iters, converged = result
            loop = int(iters.max()) if len(iters) else 0
            counters["bp.frames"] += len(iters)
            counters["bp.loop_iters"] += loop
            counters["bp.frame_iters"] += int(iters.sum())
            counters["bp.slot_iters"] += len(iters) * loop
            counters["bp.converged"] += int(converged.sum())

        def count_bytes(path):
            counters["checkpoint.bytes"] += Path(path).stat().st_size

        special = {
            "masks.build": count_masks,
            "channel.sample_batch": count_frames,
            "bp.decode_batch": count_bp,
            "checkpoint.save": count_bytes,
        }
        for module_name, attrs in SPANNED.items():
            for attr, span_name in attrs.items():
                self._patcher.replace(
                    module_name, attr, self._spanned(span_name, special.get(span_name))
                )

    def restore(self) -> None:
        self._patcher.restore()

    # ------------------------------------------------------------------ output

    def _children_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _nid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name, with training.train split at its
        first step into training.setup_self_s and training.loop_self_s."""
        child = self._children_time()
        per_name: dict[str, float] = defaultdict(float)
        for sid, (nid, t0, t1, _parent) in enumerate(self.spans):
            per_name[self.names[nid]] += (t1 - t0) - child[sid]
        train = self._ids.get("training.train")
        sample = self._ids.get("channel.sample_batch")
        setup_self = loop_self = 0.0
        if train is not None:
            first_step: dict[int, float] = {}
            for nid, t0, _t1, parent in self.spans:
                if nid == sample and parent >= 0 and self.spans[parent][0] == train:
                    first_step.setdefault(parent, t0)
            late_children = defaultdict(float)
            for nid, t0, t1, parent in self.spans:
                if parent in first_step and t0 >= first_step[parent]:
                    late_children[parent] += t1 - t0
            for sid, (nid, t0, t1, _parent) in enumerate(self.spans):
                if nid != train:
                    continue
                own = (t1 - t0) - child[sid]
                start = first_step.get(sid, t1)
                loop = (t1 - start) - late_children[sid]
                loop_self += loop
                setup_self += own - loop
        per_name["training.setup_self_s"] = setup_self
        per_name["training.loop_self_s"] = loop_self
        return per_name

    def inclusive_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return sum(t1 - t0 for n, t0, t1, _p in self.spans if n == nid)

    def count(self, name: str, parent_name: str | None = None) -> int:
        nid = self._ids.get(name)
        pid = self._ids.get(parent_name) if parent_name else None
        return sum(
            1 for n, _t0, _t1, p in self.spans
            if n == nid and (parent_name is None or (p >= 0 and self.spans[p][0] == pid))
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, the traced wall time and its unattributed part."""
        per_name = self.self_times()
        out = {
            metric: sum(per_name.get(span, 0.0) for span in spans)
            for metric, spans in SELF_TIME_METRICS.items()
        }
        out["training.setup_self_s"] = per_name["training.setup_self_s"]
        out["training.loop_self_s"] = per_name["training.loop_self_s"]
        out["trace.unattributed_s"] = sum(per_name.get(r, 0.0) for r in ROOTS)
        out["trace.wall_s"] = sum(
            t1 - t0 for nid, t0, t1, parent in self.spans
            if parent < 0 and self.names[nid] in ROOTS
        )
        return out

    def write(self, path: Path) -> None:
        """All spans as gzip-compressed JSON: the name table and one
        [name id, start, end, parent id] row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
