"""Message passing and attention pooling over one day's context graph.

Each layer updates every node simultaneously from pre-update states:

    new_i = W_x x_i + W_homo · sum_j a_ij x_j + W_het · sum_j a_ij x_j

with a separate (W_x, W_homo, W_het) triple per stream and per layer, and
edge weights normalized over each node's incoming edges, separately for the
same-stream and cross-stream kinds. A pointwise tanh follows each layer
unless `linear_layers` is set. Graph readout combines a node-attention pool
(semantic) with an edge-attention pool queried by it (structural).

The node order, edge indices and adjacencies come from the graph's own
`arrays` (see `graphs.GraphArrays`), which this module only reads. Each
forward gathers the initial states from the embedding table it is given and
applies the ablation flags itself: a disabled kind loses its adjacency and
its edges, for aggregation, edge embedding and structural pooling alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import TrainConfig
from .embeddings import EmbeddingTable
from .errors import DimensionError
from .graphs import HETEROGENEOUS, HOMOGENEOUS, GraphArrays, LocalContextGraph
from .streams import STREAMS

_WEIGHT = {HOMOGENEOUS: "homo", HETEROGENEOUS: "het"}  # each kind's weight in a layer


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    scale = np.sqrt(2.0 / (rows + cols))
    return rng.standard_normal((rows, cols)) * scale


class GnnParams:
    """Trainable tensors of the per-day graph network, shared by all graphs."""

    def __init__(self, config: TrainConfig, rng: np.random.Generator):
        d, de, dp = config.d, config.de, config.dp
        self.layers: list[dict[str, dict[str, Tensor]]] = []
        for _ in range(config.layers):
            layer = {}
            for stream in STREAMS:
                layer[stream] = {
                    "self": ag.parameter(glorot(rng, d, d)),
                    "homo": ag.parameter(glorot(rng, d, d)),
                    "het": ag.parameter(glorot(rng, d, d)),
                }
            self.layers.append(layer)
        self.edge_proj = ag.parameter(glorot(rng, de, 2 * d))       # W_e
        self.node_query = ag.parameter(rng.standard_normal(d) / np.sqrt(d))  # q
        self.edge_query_proj = ag.parameter(glorot(rng, de, d))     # W_beta
        self.rep_proj = ag.parameter(glorot(rng, dp, d + de))
        self.empty_day = ag.parameter(np.zeros(dp))

    def named(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for stream in STREAMS:
                for kind, t in layer[stream].items():
                    out[f"gnn.layer{i}.{stream}.{kind}"] = t
        out["gnn.edge_proj"] = self.edge_proj
        out["gnn.node_query"] = self.node_query
        out["gnn.edge_query_proj"] = self.edge_query_proj
        out["gnn.rep_proj"] = self.rep_proj
        out["gnn.empty_day"] = self.empty_day
        return out


def initial_states(arrays: GraphArrays, table: EmbeddingTable) -> Tensor:
    """Each concept embedding scaled by its fraction-of-day, one row per node.

    Embeddings and attributes are fixed inputs, so the result is a constant
    with respect to every trainable tensor. Rows are gathered by the
    embedding indices the graph was built with, so `table` must order its
    concepts as that table did; every table of one vocabulary does.
    """
    return ag.constant(table.vectors[arrays.embedding_index] * arrays.day_fraction)


def message_passing_layer(states: Tensor, arrays: GraphArrays,
                          layer: dict[str, dict[str, Tensor]],
                          nonlinear: bool = True) -> Tensor:
    """One simultaneous update of all node states (Tensor of shape n x d)."""
    if states.data.shape[0] != arrays.n:
        raise DimensionError("states row count differs from node count")
    mixes = {kind: ag.const_matmul(adj, states)
             for kind, adj in arrays.adjacency.items()}

    parts = []
    for b, (stream, lo, hi) in enumerate(arrays.blocks):
        w = layer[stream]
        new = ag.matmul_t(ag.rows(states, lo, hi), w["self"])
        for kind, mix in mixes.items():
            if arrays.has_incoming[kind][b]:
                new = ag.add(new, ag.matmul_t(ag.rows(mix, lo, hi), w[_WEIGHT[kind]]))
        parts.append(new)
    out = parts[0] if len(parts) == 1 else ag.concat(parts, axis=0)
    return ag.tanh(out) if nonlinear else out


def edge_embeddings(states: Tensor, arrays: GraphArrays,
                    edge_proj: Tensor) -> Tensor | None:
    """e_ij = W_e [x_src ; x_dst] for every directed edge."""
    if arrays.src_idx.size == 0:
        return None
    pairs = ag.concat([ag.gather_rows(states, arrays.src_idx),
                       ag.gather_rows(states, arrays.dst_idx)], axis=1)
    return ag.matmul_t(pairs, edge_proj)


def semantic_pool(states: Tensor, node_query: Tensor) -> tuple[Tensor, np.ndarray]:
    """Attention-weighted sum of node states; also returns the weights."""
    scores = ag.matmul(states, node_query)
    beta = ag.softmax(scores)
    return ag.matmul(beta, states), beta.data.copy()


def structural_pool(edge_vectors: Tensor, g_s: Tensor,
                    edge_query_proj: Tensor) -> tuple[Tensor, np.ndarray]:
    """Attention-weighted sum of edge embeddings, queried by the semantic pool."""
    key = ag.matmul(edge_query_proj, g_s)
    scores = ag.matmul(edge_vectors, key)
    beta = ag.softmax(scores)
    return ag.matmul(beta, edge_vectors), beta.data.copy()


@dataclass
class LocalGraphRep:
    """Readout of one local graph: pooled vectors plus the projected rep."""

    rep: Tensor                       # dp-dimensional, consumed by the temporal model
    g: Tensor | None                  # [g_e ; g_s] concatenation (d + de)
    g_s: Tensor | None
    g_e: Tensor | None
    node_states: Tensor | None        # final-layer states, n x d
    node_keys: list[tuple[str, str]]
    edge_keys: list[tuple[str, str, str, str, str]]
    node_attention: np.ndarray | None
    edge_attention: np.ndarray | None
    empty: bool = False


def local_graph_forward(graph: LocalContextGraph, table: EmbeddingTable,
                        params: GnnParams, config: TrainConfig) -> LocalGraphRep:
    """Full readout: attributes -> m message passing layers -> pools -> rep.

    Empty graphs (days with no events) return the learned empty-day vector so
    spans containing a silent day stay trainable.
    """
    if graph.is_empty():
        return LocalGraphRep(rep=params.empty_day, g=None, g_s=None, g_e=None,
                             node_states=None, node_keys=[], edge_keys=[],
                             node_attention=None, edge_attention=None, empty=True)
    arrays = graph.arrays
    off = [kind for kind, on in ((HOMOGENEOUS, config.use_homogeneous),
                                 (HETEROGENEOUS, config.use_heterogeneous)) if not on]
    if off:
        keep = ~np.isin(arrays.edge_kind, off)
        arrays = replace(
            arrays, src_idx=arrays.src_idx[keep], dst_idx=arrays.dst_idx[keep],
            edge_kind=arrays.edge_kind[keep],
            edge_keys=[k for k, kept in zip(arrays.edge_keys, keep) if kept],
            adjacency={k: w for k, w in arrays.adjacency.items() if k not in off})
    states = initial_states(arrays, table)
    for layer in params.layers:
        states = message_passing_layer(states, arrays, layer,
                                       nonlinear=not config.linear_layers)

    g_s, node_att = semantic_pool(states, params.node_query)
    edge_vecs = edge_embeddings(states, arrays, params.edge_proj)
    if edge_vecs is None:
        g_e = ag.constant(np.zeros(config.de))
        edge_att = None
    else:
        g_e, edge_att = structural_pool(edge_vecs, g_s, params.edge_query_proj)
    g = ag.concat([g_e, g_s])
    rep = ag.matmul(params.rep_proj, g)
    return LocalGraphRep(rep=rep, g=g, g_s=g_s, g_e=g_e, node_states=states,
                         node_keys=arrays.node_keys, edge_keys=arrays.edge_keys,
                         node_attention=node_att, edge_attention=edge_att)
