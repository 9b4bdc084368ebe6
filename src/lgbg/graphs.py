"""Per-day heterogeneous context graphs and multi-day labeled samples.

Nodes are distinct (stream, concept) pairs present in a day window, holding
the concept's total duration as attribute. Same-stream ("homogeneous") edges
are directed transitions between consecutive distinct concepts, weighted by
transition count. Cross-stream ("heterogeneous") edges link concepts whose
occurrences overlap in time, weighted by the number of overlapping pairs and
stored as two directed edges of equal weight.

`build_days` builds a subject's day graphs once, and `span_samples` cuts
them into labeled samples of consecutive days, so a day graph is shared by
every sample, and every task, that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import ValidationError
from .schema import write_text
from .streams import (STREAMS, ConceptEvent, DayWindow, Vocabulary, day_windows,
                      sort_events)

HOMOGENEOUS = "homogeneous"
HETEROGENEOUS = "heterogeneous"

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
    edge_kind: np.ndarray
    edge_weight: np.ndarray


@dataclass
class LocalContextGraph:
    """One day's graph. `arrays` is computed on first use, so nodes and edges
    must not change after the graph is first read by a forward pass."""

    day_index: int
    nodes: list[GraphNode] = field(default_factory=list)
    edges: list[GraphEdge] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.nodes

    @cached_property
    def arrays(self) -> GraphArrays:
        """The graph's index form, built on first use and then kept."""
        order = sorted(range(len(self.nodes)),
                       key=lambda i: (self.nodes[i].stream, self.nodes[i].concept))
        remap = {old: new for new, old in enumerate(order)}
        nodes = [self.nodes[i] for i in order]

        edges = sorted(self.edges, key=lambda e: (remap[e.src], remap[e.dst]))
        src = np.array([remap[e.src] for e in edges], dtype=np.intp)
        dst = np.array([remap[e.dst] for e in edges], dtype=np.intp)
        heterogeneous = np.array([e.kind == HETEROGENEOUS for e in edges], dtype=np.intp)
        weight = np.array([e.weight for e in edges], dtype=np.float64)
        # Each edge's destination total of its kind, summed over 2 * dst + kind.
        into = 2 * dst + heterogeneous
        totals = np.bincount(into, weights=weight, minlength=2 * len(nodes))[into]
        return GraphArrays(
            n=len(nodes),
            embedding_index=np.array([nd.embedding_index for nd in nodes],
                                     dtype=np.intp),
            day_fraction=np.array([nd.attribute for nd in nodes])[:, None] / 24.0,
            stream_index=np.array([STREAMS.index(nd.stream) for nd in nodes],
                                  dtype=np.intp),
            src_idx=src, dst_idx=dst,
            edge_kind=np.array([e.kind for e in edges], dtype=str),
            edge_weight=np.divide(weight, totals, out=np.zeros_like(weight),
                                  where=totals > 0))

    def dump_json(self) -> str:
        """The text of `json.dumps(doc, sort_keys=True, separators=(",", ": "),
        indent=1)`, where `doc` holds the `day_index`, the `nodes` as
        `{stream, concept, attribute}` objects and the `edges` as
        `{src, dst, kind, weight}` objects, in list order. It is formatted
        straight from this fixed schema: strings and numbers as `json` writes
        them, without its pure-Python indenting encoder. Attributes must be
        finite floats."""
        edges = [_EDGE % (int.__repr__(e.dst), _string(e.kind), int.__repr__(e.src),
                          int.__repr__(e.weight)) for e in self.edges]
        nodes = [_NODE % (float.__repr__(n.attribute), _string(n.concept), _string(n.stream))
                 for n in self.nodes]
        return (f'{{\n "day_index": {int.__repr__(self.day_index)},\n'
                f' "edges": {_list(edges)},\n "nodes": {_list(nodes)}\n}}')


_EDGE = '  {\n   "dst": %s,\n   "kind": %s,\n   "src": %s,\n   "weight": %s\n  }'
_NODE = '  {\n   "attribute": %s,\n   "concept": %s,\n   "stream": %s\n  }'


def _list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"


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


def homogeneous_edges(events: list[ConceptEvent]) -> dict[tuple[str, str], int]:
    """Directed transition counts between consecutive distinct concepts."""
    counts: dict[tuple[str, str], int] = {}
    ordered = sort_events(events)
    for prev, nxt in zip(ordered, ordered[1:]):
        if prev.concept == nxt.concept:
            continue
        key = (prev.concept, nxt.concept)
        counts[key] = counts.get(key, 0) + 1
    return counts


def heterogeneous_edges(events_a: list[ConceptEvent],
                        events_b: list[ConceptEvent]) -> dict[tuple[str, str], int]:
    """Undirected co-occurrence counts between two different streams.

    A pair co-occurs when the intervals strictly overlap
    (max(starts) < min(ends)); touching intervals do not count. One sweep
    takes both sides' events in start order: each drops the other side's
    events that ended by its start, pairs with each one left and joins its
    own side. A pair is counted by whichever of the two comes later, and as
    events are never empty, exactly when it overlaps; so neither the order
    of ties nor that of the input lists changes the counts.
    """
    if events_a and events_b and events_a[0].stream == events_b[0].stream:
        raise ValidationError("heterogeneous_edges needs two different streams")
    sweep = sorted([(e, 0) for e in events_a] + [(e, 1) for e in events_b],
                   key=lambda item: item[0].start)
    active: list[list[ConceptEvent]] = [[], []]
    counts: dict[tuple[str, str], int] = {}
    for event, side in sweep:
        active[1 - side] = [o for o in active[1 - side] if o.end > event.start]
        for other in active[1 - side]:
            a, b = (event, other) if side == 0 else (other, event)
            counts[a.concept, b.concept] = counts.get((a.concept, b.concept), 0) + 1
        active[side].append(event)
    return counts


def build_local_graph(window: DayWindow, vocab: Vocabulary) -> LocalContextGraph:
    """Assemble one day's graph; nodes in (stream, concept) lexicographic order."""
    durations: dict[tuple[str, str], float] = {}
    for stream in STREAMS:
        for e in window.events(stream):
            key = (stream, e.concept)
            durations[key] = durations.get(key, 0.0) + e.seconds / 3600.0

    keys = sorted(durations)
    rows = vocab.embedding_rows
    nodes = [GraphNode(stream=s, concept=c, attribute=durations[(s, c)],
                       embedding_index=rows[c]) for s, c in keys]
    index = {k: i for i, k in enumerate(keys)}

    edges: list[GraphEdge] = []
    for stream in STREAMS:
        for (a, b), w in homogeneous_edges(window.events(stream)).items():
            edges.append(GraphEdge(src=index[(stream, a)], dst=index[(stream, b)],
                                   kind=HOMOGENEOUS, weight=w))
    for i, s_a in enumerate(STREAMS):
        for s_b in STREAMS[i + 1:]:
            pair_counts = heterogeneous_edges(window.events(s_a), window.events(s_b))
            for (a, b), w in pair_counts.items():
                ia, ib = index[(s_a, a)], index[(s_b, b)]
                edges.append(GraphEdge(src=ia, dst=ib, kind=HETEROGENEOUS, weight=w))
                edges.append(GraphEdge(src=ib, dst=ia, kind=HETEROGENEOUS, weight=w))
    edges.sort(key=lambda e: (e.src, e.dst))
    return LocalContextGraph(day_index=window.day_index, nodes=nodes, edges=edges)


def build_days(streams: dict[str, list[ConceptEvent]], days: int, vocab: Vocabulary,
               day_origin: int = 0) -> list[LocalContextGraph]:
    """The graphs of days 0 .. `days` - 1 after `day_origin`, in day order."""
    return [build_local_graph(w, vocab) for w in day_windows(streams, day_origin, days)]


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
