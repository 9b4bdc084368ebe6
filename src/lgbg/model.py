"""The full predictor: shared graph network + temporal attention + classifier,
with versioned JSON checkpoints that embed the effective config, vocabulary
digest and embedding table. Checkpoints are read through `lgbg.schema`:
`config`, `embeddings` and `params` must be objects, and every stored array
must be finite and fit the shape the config gives it.

A forward has two halves. The distinct non-empty day graphs of its samples
go through the graph network as disjoint unions, and give a day table: one
row of day representation per graph, then the empty day's row. Each
sample's span of rows of that table then goes through temporal attention
and the classifier. `Model.forward_batch` runs both halves on one batch,
with one union; training, the loss, `inspect` and `gradcheck` call it. Its
output is a `BatchOutput` of matrices with one row per sample; a sample's
`SampleOutput` is a view of one row of it and records no op of its own.
Untaped callers use `forward_all`, which forwards each distinct day of all
its samples once, in unions of at most `_UNION` graphs, and runs the spans
in chunks of at most `_SPANS` samples, whatever `batch_size` is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import TrainConfig, config_from_dict
from .embeddings import EmbeddingTable
from .errors import ParseError, ValidationError
from .gnn import GnnParams, GraphReadout, graph_forward
from .graphs import GlobalSample, LocalContextGraph
from .schema import read_json, require, require_array, write_text
from .streams import Vocabulary
from .temporal import TemporalParams, classify, span_attention

CHECKPOINT_FORMAT = 1

# Graphs per union and samples per span chunk of `Model.forward_all`, which
# bound its working memory. Unions of 64 ran the frozen eval faster than 48
# or 128; chunks of 64 kept its traced peak below the 256-sample chunks'.
_UNION = 64
_SPANS = 64


def _distinct_days(samples: Sequence[GlobalSample]
                   ) -> tuple[list[LocalContextGraph], list[list[int]]]:
    """The distinct non-empty day graphs of `samples` (by identity), in order
    of first use, and each sample's days as positions there; -1 is empty."""
    graphs = list({id(g): g for s in samples for g in s.graphs
                   if not g.is_empty()}.values())
    index = {id(g): k for k, g in enumerate(graphs)}
    return graphs, [[index.get(id(g), -1) for g in s.graphs] for s in samples]


@dataclass(frozen=True)
class BatchOutput:
    """What `Model.forward_batch` computes, one row per sample."""

    probs: Tensor                     # n x 4 class probabilities
    g_star: np.ndarray                # n x dp pooled representations
    readout: GraphReadout | None      # the union of the non-empty days; None from forward_all
    days: list[list[int]]             # each sample's days as day table rows; -1 is empty
    day_attention: list[np.ndarray]   # each sample's T x T attention


@dataclass(frozen=True)
class SampleOutput:
    """Row `index` of a batch's output, read on access. Node rows and the
    attention export read the batch's readout, which only `forward_batch`
    keeps."""

    batch: BatchOutput
    index: int

    @property
    def probs(self) -> Tensor:                  # 4 class probabilities, untaped
        return ag.constant(self.batch.probs.data[self.index])

    @property
    def g_star(self) -> np.ndarray:
        return self.batch.g_star[self.index]

    @property
    def day_attention(self) -> np.ndarray:
        return self.batch.day_attention[self.index]

    def predicted(self) -> int:
        return int(np.argmax(self.batch.probs.data[self.index]))

    def node_rows(self) -> np.ndarray:
        """Rows of the readout's node states of every non-empty day, day by
        day, each day's in its canonical order. A day that two samples of a
        batch share is computed once but listed in each of them."""
        rows = [self.batch.readout.batch.graph_rows[k]
                for k in self.batch.days[self.index] if k >= 0]
        return np.concatenate(rows) if rows else np.zeros(0, np.intp)

    def attention_export(self) -> dict:
        """Attention weights in the documented inspection layout."""
        days = [self.batch.readout.export(k) if k >= 0 else
                {"nodes": [], "node_attention": None, "edges": [],
                 "edge_attention": None, "empty": True}
                for k in self.batch.days[self.index]]
        return {"days": days, "day_attention": self.day_attention.tolist()}


class Model:
    """All trainable state plus the frozen embedding table."""

    def __init__(self, config: TrainConfig, table: EmbeddingTable,
                 vocab_digest: str):
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.table = table
        self.vocab_digest = vocab_digest
        self.gnn = GnnParams(config, rng)
        self.temporal = TemporalParams(config, rng)

    def named_parameters(self) -> dict[str, Tensor]:
        return self.gnn.by_name | self.temporal.by_name

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def forward_batch(self, samples: Sequence[GlobalSample]) -> list[SampleOutput]:
        """One output per sample, each a view of one row of the batch's. Each
        distinct day graph (by identity) is forwarded once, all in one union,
        and every span through temporal attention and the classifier together."""
        graphs, days = _distinct_days(samples)
        readout = graph_forward(graphs, self.table, self.gnn, self.config) if graphs else None
        out = self._spans(self._day_table([readout.rep] if readout else []), days, readout)
        return [SampleOutput(out, b) for b in range(len(samples))]

    def forward(self, sample: GlobalSample) -> SampleOutput:
        return self.forward_batch([sample])[0]

    def forward_all(self, samples: Sequence[GlobalSample]) -> Iterator[SampleOutput]:
        """Outputs of any number of samples, in order, holding no readout.
        Each distinct day graph is forwarded once, in unions of `_UNION`
        graphs, and the spans in chunks of `_SPANS` samples."""
        graphs, days = _distinct_days(samples)
        table = self._day_table([
            graph_forward(graphs[lo:lo + _UNION], self.table, self.gnn, self.config).rep
            for lo in range(0, len(graphs), _UNION)])
        for lo in range(0, len(samples), _SPANS):
            out = self._spans(table, days[lo:lo + _SPANS], None)
            yield from (SampleOutput(out, b) for b in range(len(out.days)))

    def _day_table(self, reps: list[Tensor]) -> Tensor:
        """The rows of `reps`, then the empty day's."""
        return ag.concat([*reps, ag.stack_rows([self.gnn.empty_day])], axis=0)

    def _spans(self, table: Tensor, days: list[list[int]],
               readout: GraphReadout | None) -> BatchOutput:
        """Temporal attention and the classifier over spans of `table`'s rows;
        `days` lists each span's rows, -1 for the last row."""
        rows = np.concatenate(days) % table.data.shape[0]
        g_star, attention = span_attention(ag.gather_rows(table, rows),
                                           [len(d) for d in days], self.temporal,
                                           self.config)
        return BatchOutput(probs=classify(g_star, self.temporal), g_star=g_star.data,
                           readout=readout, days=days, day_attention=attention)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.named_parameters().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, v in self.named_parameters().items():
            v.data[...] = snap[k]

    def save(self, path) -> None:
        params = {k: {"shape": list(v.data.shape),
                      "data": v.data.reshape(-1).tolist()}
                  for k, v in self.named_parameters().items()}
        doc = {
            "format": CHECKPOINT_FORMAT,
            "config": self.config.to_dict(),
            "vocab_digest": self.vocab_digest,
            "embeddings": {
                "source": self.table.source,
                "names": self.table.names,
                "vectors": self.table.vectors.tolist(),
            },
            "params": params,
        }
        write_text(path, json.dumps(doc, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path, vocab: Vocabulary | None = None) -> "Model":
        doc = read_json(path, "checkpoint", CHECKPOINT_FORMAT)
        config = config_from_dict(require(doc, "config", dict))
        emb = require(doc, "embeddings", dict)
        names = require(emb, "names", list[str])
        table = EmbeddingTable(names, require_array(emb, "vectors", (len(names), config.d)),
                               require(emb, "source", str))
        model = cls(config, table, require(doc, "vocab_digest", str))
        if vocab is not None and vocab.digest() != model.vocab_digest:
            raise ValidationError("checkpoint vocabulary digest does not match")
        named = model.named_parameters()
        params = require(doc, "params", dict)
        if set(named) != set(params):
            raise ParseError("checkpoint parameter names do not match this model")
        for k, v in named.items():
            stored = require(params, k, dict)
            if require(stored, "shape", list[int]) != list(v.data.shape):
                raise ParseError(f"checkpoint shape mismatch for {k}")
            v.data[...] = require_array(stored, "data", (v.data.size,)).reshape(v.data.shape)
        return model
