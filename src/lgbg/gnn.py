"""Message passing and attention pooling over a batch of day context graphs.

A batch is the disjoint union of its day graphs, the mini-batching of Fey &
Lenssen (arXiv 1903.02428): every node of every graph is one row, the rows
grouped by stream, and every edge keeps its endpoints' rows. Each layer
updates every node simultaneously from pre-update states:

    new_i = W_x x_i + W_homo · sum_j a_ij x_j + W_het · sum_j a_ij x_j

with a separate (W_x, W_homo, W_het) triple per stream and per layer, and
edge weights a_ij normalized over each node's incoming edges, separately for
the same-stream and cross-stream kinds. A layer is one gather-and-sum per
edge kind and three matrix products per stream, whatever the batch size. A
pointwise tanh follows each layer unless `linear_layers` is set. A layer is
one tape op: its backward is written out to accumulate in the same order
as the backward of the small ops it is made of, so it gives the same bits
as they would. Graph readout combines a node-attention pool (semantic) with
an edge-attention pool queried by it (structural); each softmax runs within
one graph, as GAT's runs within one neighbourhood (Veličković et al., arXiv
1710.10903). An edgeless graph's edge pool sums no rows, to 0, and a batch
with no edges at all (both kinds switched off) takes the same path on
zero-row arrays. A batch has one `GraphReadout`, its rows spanning every graph;
`GraphReadout.export(k)` reads graph k's part in the inspection layout,
taking its node and edge names from the graph itself, so the forward
builds no names.

Node order, edge indices, kinds (positions in `graphs.KINDS`) and edge
weights come from each graph's own `arrays` (see `graphs.GraphArrays`),
which this module only reads. Each forward gathers the initial states from
the embedding table it is given and applies the ablation flags itself: a
disabled kind's edges leave the batch, for aggregation, edge embedding and
structural pooling alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import TrainConfig
from .embeddings import EmbeddingTable
from .errors import DimensionError, NumericError, ValidationError
from .graphs import HETEROGENEOUS, HOMOGENEOUS, KINDS, GraphArrays, LocalContextGraph
from .streams import STREAMS

_WEIGHT = {HOMOGENEOUS: "homo", HETEROGENEOUS: "het"}  # each kind's weight in a layer


class GnnParams(ag.Parameters):
    """Trainable tensors of the per-day graph network, shared by all graphs,
    each named where it is made."""

    def __init__(self, config: TrainConfig, rng: np.random.Generator):
        super().__init__()
        d, de, dp = config.d, config.de, config.dp
        self.layers: list[dict[str, dict[str, Tensor]]] = [
            {stream: {kind: self.make(f"gnn.layer{i}.{stream}.{kind}", ag.glorot(rng, d, d))
                      for kind in ("self", "homo", "het")}
             for stream in STREAMS}
            for i in range(config.layers)]
        self.edge_proj = self.make("gnn.edge_proj", ag.glorot(rng, de, 2 * d))   # W_e
        self.node_query = self.make("gnn.node_query",                            # q
                                    rng.standard_normal(d) / np.sqrt(d))
        self.edge_query_proj = self.make("gnn.edge_query_proj",                  # W_beta
                                         ag.glorot(rng, de, d))
        self.rep_proj = self.make("gnn.rep_proj", ag.glorot(rng, dp, d + de))
        self.empty_day = self.make("gnn.empty_day", np.zeros(dp))


class Messages(NamedTuple):
    """The edges of one kind: endpoint rows and normalized weights."""

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class GraphBatch:
    """Disjoint union of day graphs, the ablation flags applied.

    Rows are grouped by stream. Within a stream they run graph by graph, each
    graph's in its canonical order, so `graph_rows[k]` lists graph k's rows
    in canonical order. Edges run graph by graph, each graph's in its own
    order.
    """

    n_graphs: int
    n: int
    embedding_index: np.ndarray
    day_fraction: np.ndarray
    blocks: list[tuple[str, int, int]]          # (stream, lo, hi) row ranges
    node_graph: np.ndarray                      # graph of each row
    graph_rows: list[np.ndarray]
    src_idx: np.ndarray
    dst_idx: np.ndarray
    edge_graph: np.ndarray                      # graph of each edge, ascending
    messages: dict[str, Messages]               # kinds with at least one edge


def batch_graphs(parts: Sequence[GraphArrays], config: TrainConfig) -> GraphBatch:
    """Stack the index forms of one or more non-empty day graphs."""
    on = {HOMOGENEOUS: config.use_homogeneous, HETEROGENEOUS: config.use_heterogeneous}
    kept = np.array([on[k] for k in KINDS])
    sizes = [a.n for a in parts]
    start = np.cumsum([0] + sizes)
    stream = np.concatenate([a.stream_index for a in parts])
    order = np.argsort(stream, kind="stable")            # row -> node, graph by graph
    row = np.empty_like(order)
    row[order] = np.arange(order.size)
    bounds = np.cumsum([0] + np.bincount(stream, minlength=len(STREAMS)).tolist())
    blocks = [(s, int(lo), int(hi))
              for s, lo, hi in zip(STREAMS, bounds[:-1], bounds[1:]) if hi > lo]

    edge_graph = np.repeat(np.arange(len(parts)), [a.src_idx.size for a in parts])
    src = row[np.concatenate([a.src_idx for a in parts]) + start[edge_graph]]
    dst = row[np.concatenate([a.dst_idx for a in parts]) + start[edge_graph]]
    kind = np.concatenate([a.edge_kind for a in parts])
    weight = np.concatenate([a.edge_weight for a in parts])
    if not kept.all():
        keep = kept[kind]
        src, dst, kind, weight, edge_graph = (
            src[keep], dst[keep], kind[keep], weight[keep], edge_graph[keep])

    messages = {}
    for k, name in enumerate(KINDS):
        sel = kind == k
        if sel.any():
            messages[name] = Messages(src[sel], dst[sel], weight[sel])
    return GraphBatch(
        n_graphs=len(parts), n=int(start[-1]),
        embedding_index=np.concatenate([a.embedding_index for a in parts])[order],
        day_fraction=np.concatenate([a.day_fraction for a in parts])[order],
        blocks=blocks,
        node_graph=np.repeat(np.arange(len(parts)), sizes)[order],
        graph_rows=[row[lo:hi] for lo, hi in zip(start[:-1], start[1:])],
        src_idx=src, dst_idx=dst, edge_graph=edge_graph, messages=messages)


def initial_states(arrays: GraphArrays | GraphBatch, table: EmbeddingTable) -> Tensor:
    """Each concept embedding scaled by its fraction-of-day, one row per node.

    Embeddings and attributes are fixed inputs, so the result is a constant
    with respect to every trainable tensor. Rows are gathered by the graphs'
    `embedding_index`, the rows of `Vocabulary.embedding_rows`; `Dataset.samples`
    and `grade_regression` check that `table` keeps them (`EmbeddingTable.check_rows`).
    """
    return ag.constant(table.vectors[arrays.embedding_index] * arrays.day_fraction)


def message_passing_layer(states: Tensor, batch: GraphBatch,
                          layer: dict[str, dict[str, Tensor]],
                          nonlinear: bool = True) -> Tensor:
    """One simultaneous update of all node states (Tensor of shape n x d),
    recorded as one tape op.

    The forward is one gather-and-sum per edge kind, then per stream block
    the self term plus each kind's term, then tanh. The backward is the
    composed ops' backward written out: every sum is taken in the order
    their tape replayed it, so the gradients are the same bits.
    """
    if states.data.shape[0] != batch.n:
        raise DimensionError("states row count differs from node count")
    x = states.data
    kinds = [(_WEIGHT[kind], m) for kind, m in batch.messages.items()]  # homogeneous first
    mixes = [ag.scatter_rows(x[m.src] * m.weight[:, None], m.dst, batch.n)
             for _, m in kinds]
    pre = np.empty_like(x)
    for stream, lo, hi in batch.blocks:
        w = layer[stream]
        pre[lo:hi] = x[lo:hi] @ w["self"].data.T
        for (name, _), mix in zip(kinds, mixes):
            pre[lo:hi] += mix[lo:hi] @ w[name].data.T
    # tanh would hide an overflow from the output's finite check
    if nonlinear and not np.isfinite(pre.sum()):
        raise NumericError("tensor holds non-finite values")
    y = np.tanh(pre) if nonlinear else pre

    def backward(grad: np.ndarray) -> None:
        g_all = (1.0 - y * y) * grad if nonlinear else grad
        dmix = [np.zeros_like(x) for _ in kinds] if states.requires_grad else None
        for stream, lo, hi in reversed(batch.blocks):
            w = layer[stream]
            g = g_all[lo:hi]
            for i in reversed(range(len(kinds))):
                weight = w[kinds[i][0]]
                if dmix is not None:
                    dmix[i][lo:hi] += g @ weight.data
                if weight.requires_grad:
                    weight.grad += g.T @ mixes[i][lo:hi]
            if states.requires_grad:
                states.grad[lo:hi] += g @ w["self"].data
            if w["self"].requires_grad:
                w["self"].grad += g.T @ x[lo:hi]
        if dmix is not None:
            for (_, m), dm in zip(reversed(kinds), reversed(dmix)):
                states.grad += ag.scatter_rows(dm[m.dst] * m.weight[:, None], m.src, batch.n)

    weights = [t for stream, _, _ in batch.blocks for t in layer[stream].values()]
    return ag.custom(y, [states, *weights], backward)


def edge_embeddings(states: Tensor, batch: GraphBatch, edge_proj: Tensor) -> Tensor:
    """e_ij = W_e [x_src ; x_dst], one row per directed edge.

    Each half of W_e is applied once per node and the products gathered per
    edge, so no edge-sized copy of both endpoints' states is made.
    """
    d = states.data.shape[1]
    from_src = ag.matmul_t(states, ag.cols(edge_proj, 0, d))
    from_dst = ag.matmul_t(states, ag.cols(edge_proj, d, 2 * d))
    return ag.add(ag.gather_rows(from_src, batch.src_idx),
                  ag.gather_rows(from_dst, batch.dst_idx))


def semantic_pool(states: Tensor, node_query: Tensor, graph_of: np.ndarray,
                  n_graphs: int) -> tuple[Tensor, np.ndarray]:
    """Attention-weighted sum of node states per graph; also returns the weights.

    `graph_of` gives each row's graph, and the result has one row per graph.
    """
    beta = ag.segment_softmax(ag.matmul(states, node_query), graph_of, n_graphs)
    return ag.segment_sum(states, graph_of, n_graphs, weights=beta), beta.data


def structural_pool(edge_vectors: Tensor, g_s: Tensor, edge_query_proj: Tensor,
                    edge_graph: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Attention-weighted sum of edge embeddings per graph, queried by that
    graph's semantic pool; also returns the weights.

    `edge_graph` gives each edge's graph, and `g_s` has one row per graph;
    a graph without edges pools to 0.
    """
    n_graphs = g_s.data.shape[0]
    keys = ag.matmul_t(g_s, edge_query_proj)
    scores = ag.row_dot(edge_vectors, ag.gather_rows(keys, edge_graph))
    beta = ag.segment_softmax(scores, edge_graph, n_graphs)
    return ag.segment_sum(edge_vectors, edge_graph, n_graphs, weights=beta), beta.data


@dataclass
class GraphReadout:
    """What `graph_forward` computes for a batch: per-row node states and
    attention, per-edge attention, and one pooled row per graph."""

    graphs: Sequence[LocalContextGraph]
    batch: GraphBatch
    states: Tensor                    # final-layer states, one row per batch row
    g_s: Tensor                       # n_graphs x d
    g_e: Tensor                       # n_graphs x de
    rep: Tensor                       # n_graphs x dp
    node_attention: np.ndarray
    edge_attention: np.ndarray        # empty when the batch has no edges

    def export(self, k: int) -> dict:
        """Graph k in the inspection layout, in its own node and edge order:
        the edges of the kinds the batch kept, named by their nodes."""
        graph = self.graphs[k]
        nodes = [{"stream": s, "concept": c}
                 for s, c in sorted((nd.stream, nd.concept) for nd in graph.nodes)]
        a = graph.arrays
        edges = [{"src": dict(nodes[s]), "dst": dict(nodes[t]), "kind": KINDS[kind]}
                 for s, t, kind in zip(a.src_idx, a.dst_idx, a.edge_kind.tolist())
                 if KINDS[kind] in self.batch.messages]
        lo, hi = np.searchsorted(self.batch.edge_graph, [k, k + 1])
        return {"nodes": nodes,
                "node_attention": self.node_attention[self.batch.graph_rows[k]].tolist(),
                "edges": edges,
                "edge_attention": self.edge_attention[lo:hi].tolist() if hi > lo else None,
                "empty": False}


def graph_forward(graphs: Sequence[LocalContextGraph], table: EmbeddingTable,
                  params: GnnParams, config: TrainConfig) -> GraphReadout:
    """Full readout of one or more non-empty day graphs, as one batch:
    attributes -> m message passing layers -> pools -> rep."""
    batch = batch_graphs([g.arrays for g in graphs], config)
    states = initial_states(batch, table)
    for layer in params.layers:
        states = message_passing_layer(states, batch, layer,
                                       nonlinear=not config.linear_layers)

    g_s, node_att = semantic_pool(states, params.node_query, batch.node_graph,
                                  batch.n_graphs)
    g_e, edge_att = structural_pool(edge_embeddings(states, batch, params.edge_proj),
                                    g_s, params.edge_query_proj, batch.edge_graph)
    rep = ag.matmul_t(ag.concat([g_e, g_s], axis=1), params.rep_proj)
    return GraphReadout(graphs=graphs, batch=batch, states=states, g_s=g_s, g_e=g_e,
                        rep=rep, node_attention=node_att, edge_attention=edge_att)


def local_graph_forward(graph: LocalContextGraph, table: EmbeddingTable,
                        params: GnnParams, config: TrainConfig) -> GraphReadout:
    """Readout of one non-empty day graph, as a batch of one."""
    if graph.is_empty():
        raise ValidationError("an empty day has no graph readout")
    return graph_forward([graph], table, params, config)
