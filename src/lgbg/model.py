"""The full predictor: shared graph network + temporal attention + classifier,
with versioned JSON checkpoints that embed the effective config, vocabulary
digest and embedding table. Checkpoints are read through `lgbg.schema`:
`config`, `embeddings` and `params` must be objects, and every stored array
must be finite and fit the shape the config gives it.

Every caller forwards through `Model.forward_batch`: the distinct non-empty
day graphs of a batch of samples go through the graph network together, as
one disjoint union, and each sample's span of day representations then goes
through temporal attention and the classifier. Training forwards one
training batch at a time; untaped callers use `forward_all`, which forwards
`batch_size` samples at a time, so a union never holds more than one batch.
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
from .gnn import GnnParams, LocalGraphRep, graph_forward
from .graphs import GlobalSample
from .schema import read_json, require, require_array, write_text
from .streams import Vocabulary
from .temporal import TemporalParams, classify, span_attention

CHECKPOINT_FORMAT = 1


@dataclass
class SampleOutput:
    probs: Tensor                     # 4 class probabilities
    g_star: np.ndarray                # pooled representation
    day_reps: list[LocalGraphRep]
    day_attention: np.ndarray        # T x T

    def predicted(self) -> int:
        return int(np.argmax(self.probs.data))

    def node_states(self) -> Tensor | None:
        """Final node states of every non-empty day, day by day, each day's
        in its canonical order. A day that two samples of a batch share is
        computed once but counted once in each of them."""
        days = [r for r in self.day_reps if not r.empty]
        if not days:
            return None
        # Every day of a sample is in the readout of the sample's batch.
        return ag.gather_rows(days[0].readout.states,
                              np.concatenate([r.node_rows for r in days]))

    def attention_export(self) -> dict:
        """Attention weights in the documented inspection layout."""
        days = []
        for rep in self.day_reps:
            days.append({
                "nodes": [{"stream": s, "concept": c} for s, c in rep.node_keys],
                "node_attention": None if rep.node_attention is None
                else [float(v) for v in rep.node_attention],
                "edges": [{"src": {"stream": k[0], "concept": k[1]},
                           "dst": {"stream": k[2], "concept": k[3]},
                           "kind": k[4]} for k in rep.edge_keys],
                "edge_attention": None if rep.edge_attention is None
                else [float(v) for v in rep.edge_attention],
                "empty": rep.empty,
            })
        return {"days": days,
                "day_attention": [[float(v) for v in row]
                                  for row in self.day_attention]}


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
        out = dict(self.gnn.named())
        out.update(self.temporal.named())
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def forward_batch(self, samples: Sequence[GlobalSample]) -> list[SampleOutput]:
        """One output per sample. Each distinct day graph (by identity) is
        forwarded once, all of them in one union, and every span through
        temporal attention and the classifier together."""
        graphs = list({id(g): g for s in samples for g in s.graphs
                       if not g.is_empty()}.values())
        index = {id(g): k for k, g in enumerate(graphs)}
        readout = None
        day_table = ag.stack_rows([self.gnn.empty_day])
        if graphs:
            readout = graph_forward([g.arrays for g in graphs], self.table,
                                    self.gnn, self.config)
            day_table = ag.concat([readout.rep, day_table], axis=0)
        # Row k of day_table is days[k]; the last row is the empty day.
        days = [LocalGraphRep(readout, k, self.gnn.empty_day) for k in range(len(graphs))]
        days.append(LocalGraphRep(None, 0, self.gnn.empty_day))
        rows = [[index.get(id(g), len(graphs)) for g in s.graphs] for s in samples]
        g_star, attention = span_attention(ag.gather_rows(day_table, np.concatenate(rows)),
                                           [len(r) for r in rows], self.temporal,
                                           self.config)
        probs = classify(g_star, self.temporal)
        return [SampleOutput(probs=ag.gather_rows(probs, b), g_star=g_star.data[b],
                             day_reps=[days[k] for k in r], day_attention=attention[b])
                for b, r in enumerate(rows)]

    def forward(self, sample: GlobalSample) -> SampleOutput:
        return self.forward_batch([sample])[0]

    def forward_all(self, samples: Sequence[GlobalSample]) -> Iterator[SampleOutput]:
        """Outputs of any number of samples, forwarded `batch_size` at a time."""
        step = self.config.batch_size
        for lo in range(0, len(samples), step):
            yield from self.forward_batch(samples[lo:lo + step])

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
