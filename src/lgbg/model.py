"""The full predictor: shared graph network + temporal attention + classifier,
with versioned JSON checkpoints that embed the effective config, vocabulary
digest and embedding table. Checkpoints are read through `lgbg.schema`:
`config`, `embeddings` and `params` must be objects, and every stored array
must be finite and fit the shape the config gives it."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .config import TrainConfig, config_from_dict
from .embeddings import EmbeddingTable
from .errors import ParseError, ValidationError
from .gnn import GnnParams, LocalGraphRep, local_graph_forward
from .graphs import GlobalSample
from .schema import read_json, require, require_array
from .streams import Vocabulary
from .temporal import TemporalParams, classify, global_self_attention

CHECKPOINT_FORMAT = 1


@dataclass
class SampleOutput:
    probs: Tensor                     # 4 class probabilities
    g_star: Tensor
    day_reps: list[LocalGraphRep]
    day_attention: np.ndarray        # T x T

    def predicted(self) -> int:
        return int(np.argmax(self.probs.data))

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
                 vocab_digest: str, seed: int | None = None):
        rng = np.random.default_rng(config.seed if seed is None else seed)
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

    def forward(self, sample: GlobalSample) -> SampleOutput:
        day_reps = [local_graph_forward(g, self.table, self.gnn, self.config)
                    for g in sample.graphs]
        pooled = global_self_attention([r.rep for r in day_reps],
                                       self.temporal, self.config)
        probs = classify(pooled.g_star, self.temporal)
        return SampleOutput(probs=probs, g_star=pooled.g_star, day_reps=day_reps,
                            day_attention=pooled.day_attention)

    def predict(self, sample: GlobalSample) -> int:
        """Class prediction without recording gradients."""
        return self.forward(sample).predicted()

    def representation(self, sample: GlobalSample) -> np.ndarray:
        """Frozen g* extraction for representation-reuse applications."""
        return self.forward(sample).g_star.data.copy()

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
        Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")

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
