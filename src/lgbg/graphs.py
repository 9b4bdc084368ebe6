"""Per-day heterogeneous context graphs and multi-day labeled samples.

Nodes are distinct (stream, concept) pairs present in a day, holding the
concept's total duration in hours as attribute. Same-stream ("homogeneous")
edges are directed transitions between consecutive distinct concepts,
weighted by transition count. Cross-stream ("heterogeneous") edges link
concepts whose occurrences overlap in time, weighted by the number of
overlapping pairs and stored as two directed edges of equal weight.

A day graph is its columns, after Fey & Lenssen (arXiv 1903.02428): node
concept keys and hours, and edge source, destination, kind and weight in
(source, destination) order. `build_days` makes every day graph of a log in
whole-log passes over the pieces that `ParsedLog.cut` makes: node hours from
one `bincount` over (day, concept), in piece order, so with the same bits as
a running sum; transitions from consecutive pieces; and each cross-stream
weight as n_a * n_b - #(a.end <= b.start) - #(b.end <= a.start), that is,
over the pieces of a, b's starts before its end less b's ends by its start,
both found by `searchsorted` in b's sorted starts and ends. The counts are
exact integers in O(n log n) for n pieces and a bounded number of concepts.
A graph's index form (`arrays`) and its JSON text are cut from the columns;
`GraphNode` and `GraphEdge` objects are made only to give a graph by hand or
to read one back (`nodes`, `edges`).

`span_samples` cuts a subject's day graphs into labeled samples of
consecutive days, so a day graph is shared by every sample, and every task,
that reads it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import ValidationError
from .schema import write_text
from .streams import STREAMS, ConceptEvent, DayPieces, ParsedLog, Vocabulary

HOMOGENEOUS = "homogeneous"
HETEROGENEOUS = "heterogeneous"
KINDS = (HOMOGENEOUS, HETEROGENEOUS)  # an edge's kind column holds the position here

N_CLASSES = 4  # PAM quadrants, see quantize_pam


@dataclass(frozen=True, slots=True)
class GraphNode:
    stream: str
    concept: str
    attribute: float  # hours of the concept within the day, > 0
    embedding_index: int  # the concept's row, see Vocabulary.embedding_rows


@dataclass(frozen=True, slots=True)
class GraphEdge:
    src: int
    dst: int
    kind: str  # HOMOGENEOUS or HETEROGENEOUS
    weight: int


@dataclass(frozen=True)
class GraphArrays:
    """Index form of one day graph, rows in canonical (stream, concept) order:
    the fields the forward reads, and no names.

    Edges are ordered by (src, dst) row. An edge's `edge_weight` is its count
    over the summed counts of its destination's incoming edges of the same
    kind, so each node's incoming weights of one kind sum to one.
    """

    n: int
    embedding_index: np.ndarray                 # table row per node
    day_fraction: np.ndarray                    # n x 1: attribute / 24
    stream_index: np.ndarray                    # position of each node's stream in STREAMS
    src_idx: np.ndarray
    dst_idx: np.ndarray
    edge_kind: np.ndarray                       # position of each edge's kind in KINDS
    edge_weight: np.ndarray


@dataclass(frozen=True, eq=False)
class NodeKeys:
    """What the node keys of day graphs name: key k is the (stream, concept)
    pair `names[k]`, whose embedding row is `rows[k]`."""

    names: tuple[tuple[str, str], ...]
    rows: np.ndarray

    @cached_property
    def stream_index(self) -> np.ndarray:
        return np.array([STREAMS.index(s) for s, _ in self.names], dtype=np.intp)

    @cached_property
    def json(self) -> tuple[np.ndarray, np.ndarray]:
        """Each key's stream and concept as JSON strings."""
        return (np.array([_string(s) for s, _ in self.names], dtype=object),
                np.array([_string(c) for _, c in self.names], dtype=object))

    @classmethod
    def of(cls, vocab: Vocabulary) -> "NodeKeys":
        """The keys of `vocab`'s concepts, `Vocabulary.concept_keys`."""
        rows = vocab.embedding_rows
        return cls(vocab.concept_keys,
                   np.array([rows[c] for _, c in vocab.concept_keys], dtype=np.intp))


class LocalContextGraph:
    """One day's graph as columns: node `key`s, ascending, so nodes are in
    (stream, concept) order, with their `hours`; edges in (src, dst) order
    with their `kind` (position in KINDS) and `weight`. `keys` names the
    node keys.

    `LocalContextGraph(day_index, nodes, edges)` is the graph of nodes and
    edges given as objects, in any node order: the nodes are put in
    canonical order and the edges renumbered to match. Columns must not
    change after `arrays` is first read."""

    def __init__(self, day_index: int, nodes: Sequence[GraphNode] = (),
                 edges: Sequence[GraphEdge] = ()):
        order = sorted(range(len(nodes)), key=lambda i: (nodes[i].stream, nodes[i].concept))
        rank = np.empty(len(nodes), dtype=np.intp)
        rank[order] = np.arange(len(nodes))
        ends = np.array([(e.src, e.dst) for e in edges], dtype=np.intp).reshape(-1, 2)
        if ((ends < 0) | (ends >= len(nodes))).any():
            raise ValidationError(f"an edge end is outside nodes 0..{len(nodes) - 1}")
        src, dst = rank[ends[:, 0]], rank[ends[:, 1]]
        by_row = np.lexsort((dst, src))
        self._set(day_index,
                  NodeKeys(tuple((nodes[i].stream, nodes[i].concept) for i in order),
                           np.array([nodes[i].embedding_index for i in order],
                                    dtype=np.intp)),
                  np.arange(len(nodes)),
                  np.array([nodes[i].attribute for i in order], dtype=np.float64),
                  src[by_row], dst[by_row],
                  np.array([KINDS.index(e.kind) for e in edges], dtype=np.intp)[by_row],
                  np.array([e.weight for e in edges], dtype=np.int64)[by_row])

    @classmethod
    def from_columns(cls, day_index: int, keys: NodeKeys, key, hours, src, dst, kind,
                     weight) -> "LocalContextGraph":
        """The graph of columns already in canonical order."""
        graph = cls.__new__(cls)
        graph._set(day_index, keys, key, hours, src, dst, kind, weight)
        return graph

    def _set(self, day_index, keys, key, hours, src, dst, kind, weight) -> None:
        self.day_index = day_index
        self.keys = keys
        self.key, self.hours = key, hours
        self.src, self.dst, self.kind, self.weight = src, dst, kind, weight

    def is_empty(self) -> bool:
        return not self.key.size

    @property
    def nodes(self) -> list[GraphNode]:
        names = self.keys.names
        return [GraphNode(*names[k], h, r) for k, h, r in
                zip(self.key.tolist(), self.hours.tolist(),
                    self.keys.rows[self.key].tolist())]

    @property
    def edges(self) -> list[GraphEdge]:
        return [GraphEdge(s, d, KINDS[k], w) for s, d, k, w in
                zip(self.src.tolist(), self.dst.tolist(), self.kind.tolist(),
                    self.weight.tolist())]

    @cached_property
    def arrays(self) -> GraphArrays:
        """The graph's index form, built on first use and then kept."""
        n = self.key.size
        weight = self.weight.astype(np.float64)
        # Each edge's destination total of its kind, summed over 2 * dst + kind.
        into = 2 * self.dst + self.kind
        totals = np.bincount(into, weights=weight, minlength=2 * n)[into]
        return GraphArrays(
            n=n, embedding_index=self.keys.rows[self.key],
            day_fraction=self.hours[:, None] / 24.0,
            stream_index=self.keys.stream_index[self.key],
            src_idx=self.src, dst_idx=self.dst,
            edge_kind=self.kind,
            edge_weight=np.divide(weight, totals, out=np.zeros_like(weight),
                                  where=totals > 0))

    def dump_json(self) -> str:
        """The text of `json.dumps(doc, sort_keys=True, separators=(",", ": "),
        indent=1)`, where `doc` holds the `day_index`, the `nodes` as
        `{stream, concept, attribute}` objects and the `edges` as
        `{src, dst, kind, weight}` objects, in column order. It is formatted
        straight from this fixed schema, each list with one `%`: strings and
        numbers as `json` writes them, without its pure-Python indenting
        encoder. Hours must be finite."""
        streams, concepts = self.keys.json
        nodes = [None] * (3 * self.key.size)
        nodes[0::3] = self.hours.tolist()
        nodes[1::3] = concepts[self.key].tolist()
        nodes[2::3] = streams[self.key].tolist()
        edges = [None] * (4 * self.src.size)
        edges[0::4] = self.dst.tolist()
        edges[1::4] = _KIND_JSON[self.kind].tolist()
        edges[2::4] = self.src.tolist()
        edges[3::4] = self.weight.tolist()
        return (f'{{\n "day_index": {int.__repr__(self.day_index)},\n'
                f' "edges": {_list(_EDGE, edges)},\n "nodes": {_list(_NODE, nodes)}\n}}')


_EDGE = '  {\n   "dst": %s,\n   "kind": %s,\n   "src": %s,\n   "weight": %s\n  }'
_NODE = '  {\n   "attribute": %s,\n   "concept": %s,\n   "stream": %s\n  }'
_KIND_JSON = np.array([_string(k) for k in KINDS], dtype=object)


def _list(item: str, values: list) -> str:
    """The JSON list of `item` objects that `values` fill in turn."""
    if not values:
        return "[]"
    objects = ",\n".join([item] * (len(values) // item.count("%s")))
    return "[\n" + objects % tuple(values) + "\n ]"


@dataclass
class GlobalSample:
    """Ordered span of local graphs labeled by the anchor (last) day."""

    graphs: list[LocalContextGraph]
    label: int
    subject: str
    anchor_day: int

    def __post_init__(self):
        if not self.graphs:
            raise ValidationError("a sample needs at least one graph")
        if not 0 <= self.label < N_CLASSES:
            raise ValidationError(f"label {self.label} outside 0..{N_CLASSES - 1}")


# Pieces counted at once, in runs of whole days: a bound on the count's
# working memory, which grows with pieces times the concepts of their day.
_BLOCK = 1 << 10


def _count(p: DayPieces):
    """The nodes and edges of every day of `p` at once.

    Nodes are the distinct (day, key) pairs, in that order, with their hours
    summed in piece order. Returns the node day, key and hours columns and
    the edge src, dst (node numbers), kind and weight columns, edges in
    (src, dst) order.
    """
    n_keys = int(p.key.max()) + 1 if p.key.size else 1
    codes, node, pieces = np.unique(p.day * n_keys + p.key, return_inverse=True,
                                    return_counts=True)
    n = codes.size
    node_day = codes // n_keys
    hours = np.bincount(node, weights=(p.end - p.start) / 3600.0, minlength=n)
    stream = np.zeros(n, dtype=np.int64)
    stream[node] = p.stream

    # Transitions: consecutive pieces of one day and stream, concepts differing.
    step = ((p.day[1:] == p.day[:-1]) & (p.stream[1:] == p.stream[:-1])
            & (p.key[1:] != p.key[:-1]))
    moves, counts = np.unique(node[:-1][step] * n + node[1:][step], return_counts=True)

    # Overlaps: each node u against each node v of a later stream of its day.
    # The pieces of v that overlap a piece of u are #(v's starts before its
    # end) less #(v's ends by its start), looked up in every node's sorted
    # starts and ends.
    base = p.start.min(initial=0)
    start, end = p.start - base, p.end - base
    span = int(end.max(initial=0)) + 1
    starts, ends = np.sort(node * span + start), np.sort(node * span + end)
    offset = np.cumsum(pieces) - pieces
    block = node_day * len(STREAMS) + stream
    later = np.searchsorted(block, block, side="right")
    n_later = np.searchsorted(node_day, node_day, side="right") - later
    u = np.repeat(np.arange(n), n_later)
    v = later[u] + np.arange(u.size) - (np.cumsum(n_later) - n_later)[u]
    size = pieces[u]
    at = np.cumsum(size) - size
    mine = np.argsort(node, kind="stable")[
        np.arange(size.sum()) + np.repeat(offset[u] - at, size)]
    other = np.repeat(v * span, size)
    counted = (np.searchsorted(starts, other + end[mine])
               - np.searchsorted(ends, other + start[mine], side="right"))
    overlaps = np.add.reduceat(counted, at) if u.size else counted
    met = overlaps > 0
    u, v, overlaps = u[met], v[met], overlaps[met]

    # Both directions of an overlap, then the transitions, in (src, dst) order.
    pair = np.concatenate([u * n + v, v * n + u, moves])
    order = np.argsort(pair, kind="stable")
    kind = np.repeat([1, 1, 0], [u.size, u.size, moves.size])[order]
    weight = np.concatenate([overlaps, overlaps, counts])[order]
    return (node_day, codes % n_keys, hours, pair[order] // n, pair[order] % n,
            kind.astype(np.intp), weight.astype(np.int64))


def build_days(log: ParsedLog, vocab: Vocabulary, days: int,
               day_origin: int = 0) -> Iterator[LocalContextGraph]:
    """The graph of each day of 0 .. `days` - 1 after `day_origin` that holds
    an event, in day order. The log is cut in one pass and counted in runs of
    whole days of about `_BLOCK` pieces, so a caller that drops the graphs as
    they come holds about one run's work at a time."""
    keys = NodeKeys.of(vocab)
    p = log.cut(day_origin, days)
    new_day = np.append(np.flatnonzero(np.diff(p.day)) + 1, p.day.size)
    lo = 0
    while lo < p.day.size:
        # The last day that ends within the block, or else the first day.
        hi = int(new_day[max(np.searchsorted(new_day, lo + _BLOCK, side="right") - 1,
                             np.searchsorted(new_day, lo, side="right"))])
        yield from _run_graphs(DayPieces(p.day[lo:hi], p.stream[lo:hi], p.start[lo:hi],
                                         p.end[lo:hi], p.key[lo:hi]), keys)
        lo = hi


def _run_graphs(p: DayPieces, keys: NodeKeys) -> list[LocalContextGraph]:
    """The graphs of the days of `p`, each holding copies of its own rows."""
    node_day, key, hours, src, dst, kind, weight = _count(p)
    first = np.searchsorted(node_day, node_day)
    src, dst, edge_day = src - first[src], dst - first[src], node_day[src]
    present = np.unique(node_day)
    return [LocalContextGraph.from_columns(
                d, keys, key[a:b].copy(), hours[a:b].copy(), src[c:e].copy(),
                dst[c:e].copy(), kind[c:e].copy(), weight[c:e].copy())
            for d, a, b, c, e in zip(present.tolist(),
                                     *(np.searchsorted(col, present, side=side).tolist()
                                       for col in (node_day, edge_day)
                                       for side in ("left", "right")))]


def _edge_counts(sides: list[list[ConceptEvent]]) -> dict[tuple[str, str], int]:
    """The edge weights of one day that holds each list of `sides` as a
    stream of its own, by the concept names of their ends; with two sides,
    the cross-stream edges from side 0 to side 1."""
    names = [(s, c) for s, evs in enumerate(sides) for c in sorted({e.concept for e in evs})]
    keys = {name: k for k, name in enumerate(names)}
    rows = [(s, e.start, e.end, keys[s, e.concept]) for s, evs in enumerate(sides)
            for e in evs]
    stream, start, end, key = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    order = np.lexsort((key, end, start, stream))
    _, node_key, _, src, dst, _, weight = _count(DayPieces(
        np.zeros(order.size, dtype=np.int64), stream[order], start[order], end[order],
        key[order]))
    ends = [(names[node_key[a]], names[node_key[b]]) for a, b in zip(src, dst)]
    return {(x[1], y[1]): int(w) for (x, y), w in zip(ends, weight)
            if x[0] == 0 and y[0] == len(sides) - 1}


def homogeneous_edges(events: list[ConceptEvent]) -> dict[tuple[str, str], int]:
    """Directed transition counts between consecutive distinct concepts of one
    stream's events, counted as a day graph counts them."""
    return _edge_counts([events])


def heterogeneous_edges(events_a: list[ConceptEvent],
                        events_b: list[ConceptEvent]) -> dict[tuple[str, str], int]:
    """Undirected co-occurrence counts between two different streams, counted
    as a day graph counts them.

    A pair co-occurs when the intervals strictly overlap
    (max(starts) < min(ends)); touching intervals do not count. As events
    are never empty, a pair that does not overlap has exactly one of
    a.end <= b.start and b.end <= a.start, so the count of two concepts is
    n_a * n_b less those of each; neither the order of ties nor that of the
    input lists changes it.
    """
    if events_a and events_b and events_a[0].stream == events_b[0].stream:
        raise ValidationError("heterogeneous_edges needs two different streams")
    return _edge_counts([events_a, events_b])


def span_samples(days: list[LocalContextGraph], labels: dict[int, int], span: int,
                 subject: str = "") -> list[GlobalSample]:
    """One sample per labeled day that has a full span of prior days, over a
    subject's day graphs from day 0 through at least its last labeled day; a
    day graph is shared by every sample that contains it."""
    if span < 1:
        raise ValidationError(f"span {span} must be >= 1")
    return [GlobalSample(graphs=days[a - span + 1:a + 1], label=labels[a],
                         subject=subject, anchor_day=a)
            for a in sorted(labels) if a >= span - 1]


def quantize_pam(score: int) -> int:
    """Map a 1-16 affect score onto its 4-quadrant class (1-4 -> 0, ... 13-16 -> 3)."""
    if not isinstance(score, int) or not 1 <= score <= 16:
        raise ValidationError(f"PAM score {score!r} outside 1..16")
    return (score - 1) // 4


def dump_graph(graph: LocalContextGraph, path) -> None:
    write_text(path, graph.dump_json() + "\n")
