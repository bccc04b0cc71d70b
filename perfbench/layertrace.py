"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces the public functions of each lethevit
layer at the names where their callers look them up, records one span
per call (name, start, end, parent), and restores every name on exit.
Nothing inside `src/` is edited or read beyond those names:

- `unlearning`, `masking` and `evaluation` each call `forward` through
  their own module globals (`from .vit import forward`);
- `vit` and `unlearning` call the tensor ops by their imported names;
- `tensor.linear` calls `matmul` and `add` through `tensor`'s globals;
- the CLI reaches `unlearning`, `evaluation`, `vit`, `data` and
  `checkpoint` functions as module attributes.

A forward is tracked when its logits require a gradient. Spans stay in
memory; `summarise` turns one cycle's spans into per-layer metrics and
`write_spans` writes them out at the end of a run.
"""

from __future__ import annotations

import contextlib
import csv
import os
import statistics
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from lethevit import checkpoint, cli, data, evaluation, masking, tensor, unlearning, vit

# the ops the per-layer table reports, in the order they are listed
OPS = ("matmul", "add", "linear", "layer_norm", "gelu", "softmax_rows", "transpose",
       "reshape", "scale", "concat", "repeat_batch", "take_token", "cross_entropy",
       "row_cosine", "softplus", "mean_all")

_VIT_OPS = ("add", "concat", "gelu", "layer_norm", "linear", "matmul", "repeat_batch",
            "reshape", "scale", "softmax_rows", "take_token", "transpose")
_UNLEARNING_OPS = ("add", "cross_entropy", "mean_all", "row_cosine", "scale", "softplus")

# span fields
_ID, _PARENT, _NAME, _START, _END, _CHILD, _ATTR = range(7)


def _file_bytes(record, args, result):
    record[_ATTR] = os.path.getsize(args[0] if isinstance(args[0], str) else args[1])


def _dataset_bytes(record, args, result):
    record[_ATTR] = result.images.nbytes + result.labels.nbytes


def _forward_kind(record, args, result):
    record[_NAME] = ("vit.forward.tracked" if result.logits.requires_grad
                     else "vit.forward.untracked")
    record[_ATTR] = len(args[1])


def _threshold_candidates(record, args, result):
    distinct = len(np.unique(np.concatenate([np.asarray(args[0]), np.asarray(args[1])])))
    record[_ATTR] = 1 if distinct == 1 else distinct + 1


def _tape_length(record, args, kwargs):
    record[_ATTR] = len(args[1])


def _patches(record, args, kwargs):
    record[_ATTR] = int(np.asarray(args[1]).size)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []

    def wrap(self, fn, name, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [len(spans), parent[_ID] if parent else -1, name, 0, 0, 0, 0]
            if before is not None:
                before(record, args, kwargs)
            spans.append(record)
            stack.append(record)
            record[_START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += record[_END] - record[_START]
            if after is not None:
                after(record, args, result)
            return result

        return traced

    def _patch_table(self):
        table = [(tensor, op, f"tensor.op.{op}", None, None) for op in ("matmul", "add")]
        table += [(vit, op, f"tensor.op.{op}", None, None) for op in _VIT_OPS]
        table += [(unlearning, op, f"tensor.op.{op}", None, None) for op in _UNLEARNING_OPS]
        table += [
            (unlearning, "backward", "tensor.backward", _tape_length, None),
            (vit, "patchify", "vit.patchify", None, None),
            (vit, "save_params", "vit.save_params", None, None),
            (vit, "load_params", "vit.load_params", None, None),
            (unlearning, "params_checksum", "vit.params_checksum", None, None),
            (masking, "select_top_k", "masking.select_top_k", None, None),
            (masking, "apply_mask", "masking.apply_mask", _patches, None),
            (unlearning, "contrastive_loss", "unlearning.contrastive_loss", None, None),
            (unlearning, "train_model", "unlearning.train_model", None, None),
            (unlearning, "retrain", "unlearning.retrain", None, None),
            (unlearning, "unlearn", "unlearning.unlearn", None, None),
            (evaluation, "batched_logits", "evaluation.batched_logits", None, None),
            (evaluation, "fit_loss_threshold", "evaluation.fit_loss_threshold", None,
             _threshold_candidates),
            (evaluation, "evaluate_model", "evaluation.evaluate_model", None, None),
            (evaluation, "masking_sweep", "evaluation.masking_sweep", None, None),
            (data, "load_dataset", "data.load_dataset", None, _file_bytes),
            (data, "save_dataset", "data.save_dataset", None, _file_bytes),
            (data, "generate_toy_dataset", "data.generate_toy_dataset", None, _dataset_bytes),
            (checkpoint, "save_arrays", "checkpoint.save_arrays", None, _file_bytes),
            (checkpoint, "load_arrays", "checkpoint.load_arrays", None, _file_bytes),
        ]
        table += [(module, "forward", "vit.forward", None, _forward_kind)
                  for module in (unlearning, masking, evaluation)]
        table += [(module, "build_masked_view", "masking.build_masked_view", None, None)
                  for module in (unlearning, evaluation)]
        return table

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for module, attr, name, before, after in self._patch_table():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, before, after))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def cli_main(self):
        """`cli.main` wrapped as the root span of each command."""
        return self.wrap(cli.main, "cli.main")


def _self_ns(span) -> int:
    return span[_END] - span[_START] - span[_CHILD]


def summarise(spans: list[list], command_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one cycle's spans (`command_wall_s` is the
    cycle's wall time measured around its `cli.main` calls)."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    attr: dict[str, list] = defaultdict(list)
    durations_ms: dict[str, list] = defaultdict(list)
    by_id = {span[_ID]: span for span in spans}
    batched_in_evaluate = 0
    for span in spans:
        name = span[_NAME]
        duration = span[_END] - span[_START]
        calls[name] += 1
        self_s[name] += _self_ns(span) * 1e-9
        total_s[name] += duration * 1e-9
        durations_ms[name].append(duration * 1e-6)
        attr[name].append(span[_ATTR])
        if name == "evaluation.batched_logits":
            parent = by_id.get(span[_PARENT])
            if parent is not None and parent[_NAME] == "evaluation.evaluate_model":
                batched_in_evaluate += 1

    def p50(name):
        return statistics.median(durations_ms[name]) if durations_ms[name] else 0.0

    m: dict[str, float] = {}
    m["tensor.backward.calls"] = calls["tensor.backward"]
    m["tensor.backward.self_s"] = self_s["tensor.backward"]
    m["tensor.backward.ms_p50"] = p50("tensor.backward")
    records = attr["tensor.backward"]
    m["tensor.tape_records_per_backward"] = statistics.median(records) if records else 0
    for op in OPS:
        m[f"tensor.op.{op}.calls"] = calls[f"tensor.op.{op}"]
        m[f"tensor.op.{op}.self_s"] = self_s[f"tensor.op.{op}"]
    for kind in ("tracked", "untracked"):
        name = f"vit.forward.{kind}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.ms_p50"] = p50(name)
    m["vit.forward.untracked.images"] = sum(attr["vit.forward.untracked"])
    m["vit.patchify.self_s"] = self_s["vit.patchify"]
    m["vit.params_checksum.s"] = total_s["vit.params_checksum"]
    m["vit.save_params.s"] = total_s["vit.save_params"]
    m["vit.load_params.s"] = total_s["vit.load_params"]
    m["masking.build_masked_view.calls"] = calls["masking.build_masked_view"]
    m["masking.build_masked_view.s"] = total_s["masking.build_masked_view"]
    m["masking.apply_mask.self_s"] = self_s["masking.apply_mask"]
    m["masking.select_top_k.self_s"] = self_s["masking.select_top_k"]
    m["masking.patches_masked"] = sum(attr["masking.apply_mask"])
    for fn in ("train_model", "retrain", "unlearn"):
        m[f"unlearning.{fn}.s"] = total_s[f"unlearning.{fn}"]
    m["unlearning.contrastive_loss.self_s"] = self_s["unlearning.contrastive_loss"]
    m["unlearning.steps"] = calls["tensor.backward"]
    m["unlearning.loop.self_s"] = sum(self_s[f"unlearning.{fn}"]
                                      for fn in ("train_model", "retrain", "unlearn"))
    m["evaluation.evaluate_model.s"] = total_s["evaluation.evaluate_model"]
    m["evaluation.batched_logits.calls"] = calls["evaluation.batched_logits"]
    models = calls["evaluation.evaluate_model"]
    m["evaluation.batched_logits.calls_per_model"] = batched_in_evaluate / models if models else 0
    m["evaluation.fit_loss_threshold.calls"] = calls["evaluation.fit_loss_threshold"]
    m["evaluation.fit_loss_threshold.self_s"] = self_s["evaluation.fit_loss_threshold"]
    m["evaluation.fit_loss_threshold.candidates"] = sum(attr["evaluation.fit_loss_threshold"])
    m["evaluation.masking_sweep.s"] = total_s["evaluation.masking_sweep"]
    for fn in ("load_dataset", "save_dataset", "generate_toy_dataset"):
        m[f"data.{fn}.s"] = total_s[f"data.{fn}"]
        m[f"data.{fn}.bytes"] = sum(attr[f"data.{fn}"])
    for fn in ("save_arrays", "load_arrays"):
        m[f"checkpoint.{fn}.s"] = total_s[f"checkpoint.{fn}"]
        m[f"checkpoint.{fn}.bytes"] = sum(attr[f"checkpoint.{fn}"])
    m["cli.main.self_s"] = self_s["cli.main"]
    m["trace.unattributed_s"] = command_wall_s - sum(self_s.values())
    return m


def write_spans(path: str, cycles: list[list[list]]) -> None:
    """Write every traced cycle's spans as CSV (times in ns)."""
    with open(path, "w", newline="") as f:
        out = csv.writer(f)
        out.writerow(["cycle", "id", "parent", "name", "start_ns", "end_ns", "self_ns", "attr"])
        for index, spans in enumerate(cycles):
            for span in spans:
                out.writerow([index, span[_ID], span[_PARENT], span[_NAME], span[_START],
                              span[_END], _self_ns(span), span[_ATTR]])
