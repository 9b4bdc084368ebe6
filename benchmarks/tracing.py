"""Spans and counters recorded around calls into lgbg, for the traced run.

Spans (name, start, end, parent) are kept in memory and written as JSON when
the run ends. Every name is wrapped where its caller looks it up, because the
lgbg modules import each other's functions by name: wrapping
`lgbg.gnn.local_graph_forward` would miss the calls `lgbg.model` makes.

The per-layer table is derived from the spans as self times: a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

# (span name, owner module or class path, attribute) for every lookup site.
HOOKS = (
    ("streams.parse_event_log", "lgbg.cli", "parse_event_log"),
    ("streams.parse_event_log", "lgbg.dataset", "parse_event_log"),
    ("streams.slice_day", "lgbg.cli", "slice_day"),
    ("streams.slice_day", "lgbg.graphs", "slice_day"),
    ("graphs.build_local_graph", "lgbg.cli", "build_local_graph"),
    ("graphs.build_local_graph", "lgbg.graphs", "build_local_graph"),
    ("graphs.dump_graph", "lgbg.cli", "dump_graph"),
    ("graphs.build_samples", "lgbg.dataset", "build_samples"),
    ("gnn.compile_graph", "lgbg.gnn", "compile_graph"),
    ("gnn.message_passing_layer", "lgbg.gnn", "message_passing_layer"),
    ("gnn.local_graph_forward", "lgbg.model", "local_graph_forward"),
    ("temporal.global_self_attention", "lgbg.model", "global_self_attention"),
    ("training.total_loss", "lgbg.training", "total_loss"),
    ("autograd.backward", "lgbg.autograd:Tape", "backward"),
    ("autograd.adam_step", "lgbg.autograd:Adam", "step"),
)

SETUP_LAYERS = ("setup.import_lgbg", "dataset.load_dataset", "graphs.build_samples",
                "model.load")
DAY_LAYERS = ("streams.parse_event_log", "streams.slice_day",
              "graphs.build_local_graph", "graphs.dump_graph")
ITEM_LAYERS = ("gnn.compile_graph", "gnn.message_passing_layer",
               "gnn.local_graph_forward", "temporal.global_self_attention",
               "training.total_loss", "autograd.backward", "autograd.adam_step")
PHASES = ("setup", "timed")


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = sys.modules[module]
    return getattr(owner, cls) if cls else owner


class Recorder:
    """In-memory span list with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.tape_ops = 0
        self.tensors = 0

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield
        finally:
            self.close(rec)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)
        return traced

    def install(self) -> list[str]:
        """Wrap every lookup site in HOOKS plus the counters; returns the
        sites that no longer exist, so a refactor shows as a warning."""
        import lgbg.autograd
        import lgbg.cli  # noqa: F401  (makes every module in HOOKS importable)

        missing = []
        for name, path, attr in HOOKS:
            owner = _resolve(path)
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{path}.{attr}")
                continue
            if attr == "backward":
                fn = self._counting_backward(fn)
            setattr(owner, attr, self.wrap(name, fn))
        tensor_init = lgbg.autograd.Tensor.__init__

        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            tensor_init(obj, *args, **kwargs)
        lgbg.autograd.Tensor.__init__ = counting_init
        return missing

    def _counting_backward(self, backward):
        def counted(tape, *args, **kwargs):
            self.tape_ops += len(tape)
            return backward(tape, *args, **kwargs)
        return counted

    def dump(self, path: Path) -> None:
        doc = [{"name": n, "start": a, "end": b, "parent": p}
               for n, a, b, p in self.spans]
        Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def self_times(spans: list[dict]) -> dict[tuple[str, str], tuple[float, int]]:
    """(phase, name) -> (summed self seconds, span count).

    A span's phase is the name of its top-level ancestor, which the workload
    opens as `phase:setup`, `phase:timed`, `phase:between` or `phase:after`.
    """
    child_time = [0.0] * len(spans)
    phase = [""] * len(spans)
    for i, s in enumerate(spans):
        p = s["parent"]
        if p < 0:
            phase[i] = s["name"].removeprefix("phase:")
        else:
            phase[i] = phase[p]
            child_time[p] += s["end"] - s["start"]
    out: dict[tuple[str, str], tuple[float, int]] = {}
    for i, s in enumerate(spans):
        key = (phase[i], s["name"])
        total, count = out.get(key, (0.0, 0))
        out[key] = (total + (s["end"] - s["start"]) - child_time[i], count + 1)
    return out


def per_layer(spans: list[dict], items: int, tape_ops: int, tensors: int) -> dict:
    """The per-layer table: setup layers in seconds per set-up, day layers in
    ms per day graph built (set-up and timed phase), item layers in ms per
    item of the timed phase, and counts per item of the timed phase."""
    st = self_times(spans)

    def total(name, phases):
        return sum(st.get((ph, name), (0.0, 0))[0] for ph in phases)

    def count(name, phases):
        return sum(st.get((ph, name), (0.0, 0))[1] for ph in phases)

    days = count("graphs.build_local_graph", PHASES)
    out = {}
    for name in SETUP_LAYERS:
        out[name] = {"value": total(name, ("setup",)), "unit": "s"}
    for name in DAY_LAYERS:
        value = 1000.0 * total(name, PHASES) / days if days else 0.0
        out[name] = {"value": value, "unit": "ms/day"}
    for name in ITEM_LAYERS:
        out[name] = {"value": 1000.0 * total(name, ("timed",)) / items, "unit": "ms/item"}
    out["autograd.tape_ops_per_sample"] = {"value": tape_ops / items, "unit": "count"}
    out["autograd.tensors_per_sample"] = {"value": tensors / items, "unit": "count"}
    out["gnn.day_forwards_per_sample"] = {
        "value": count("gnn.local_graph_forward", ("timed",)) / items, "unit": "count"}
    return out
