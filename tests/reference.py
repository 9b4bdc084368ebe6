"""Reference code that only the tests use.

Each piece is the independent side of a check on `lgbg`: autograd ops the
composed reference layer and the op table are built from, the per-event
graph builder that the column builder replaced (log reading, day windows,
edge counts, graph assembly, index form and JSON text), an embedding lookup
by name, the per-day duration vector summed from events, and the scenario
oracle that reads a planted class back from a day's events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from lgbg import autograd as ag
from lgbg.autograd import Tensor
from lgbg.embeddings import EmbeddingTable
from lgbg.errors import ValidationError
from lgbg.graphs import HETEROGENEOUS, HOMOGENEOUS, GraphArrays, GraphEdge, GraphNode
from lgbg.streams import (ACTIVITY, AUDIO, FEATURE_DIM, LOCATION, MAX_DAYS,
                          OTHER_LOCATION, SECONDS_PER_DAY, STREAMS, ConceptEvent,
                          Vocabulary, sort_events)
from lgbg.synth import SIGNATURES, ScenarioSpec

# ---------------------------------------------------------------------------
# autograd ops


def rows(x: Tensor, start: int, stop: int) -> Tensor:
    # The output shares memory with x; tensors are immutable after
    # construction, so the view is safe.
    def bwd(g):
        x.grad[start:stop] += g
    return ag.custom(x.data[start:stop], (x,), bwd)


def total(x: Tensor) -> Tensor:
    def bwd(g):
        x.grad += g
    return ag.custom(x.data.sum(), (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def bwd(g):
        x.grad += (1.0 - y * y) * g
    return ag.custom(y, (x,), bwd)


# ---------------------------------------------------------------------------
# graphs and embeddings


def graph_dict(graph) -> dict:
    """The document `LocalContextGraph.dump_json` writes, as plain data."""
    return {
        "day_index": graph.day_index,
        "nodes": [{"stream": n.stream, "concept": n.concept,
                   "attribute": n.attribute} for n in graph.nodes],
        "edges": [{"src": e.src, "dst": e.dst, "kind": e.kind,
                   "weight": e.weight} for e in graph.edges],
    }


def dump_text(graph) -> str:
    """`graph`'s JSON text, written by the `json` module itself."""
    return json.dumps(graph_dict(graph), sort_keys=True, separators=(",", ": "), indent=1)


def vector(table: EmbeddingTable, name: str) -> np.ndarray:
    return table.vectors[table.index(name)]


# ---------------------------------------------------------------------------
# the per-event graph builder


def read_events(path, vocab: Vocabulary) -> tuple[dict[str, list[ConceptEvent]], int, int]:
    """The events of a well-formed log, one object per line: unknown
    locations remapped, repeated lines dropped. Returns the per-stream
    sorted events and the remap and duplicate counts."""
    streams = {s: [] for s in STREAMS}
    seen = set()
    remapped = deduped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line) if line.strip() else {}
            if "stream" not in rec:
                continue
            stream, concept = rec["stream"], rec["concept"]
            if stream == LOCATION and concept not in vocab.concepts(stream):
                concept = OTHER_LOCATION
                remapped += 1
            event = ConceptEvent(start=rec["start"], end=rec["end"], stream=stream,
                                 concept=concept)
            if event in seen:
                deduped += 1
                continue
            seen.add(event)
            streams[stream].append(event)
    return {s: sort_events(v) for s, v in streams.items()}, remapped, deduped


def day_span(streams: dict[str, list[ConceptEvent]], day_origin: int = 0) -> int:
    last = max((e.end for evs in streams.values() for e in evs), default=day_origin)
    return max(0, -((day_origin - last) // SECONDS_PER_DAY))


def before_origin(streams: dict[str, list[ConceptEvent]], day_origin: int = 0) -> int:
    return sum(e.start < day_origin for evs in streams.values() for e in evs)


@dataclass
class DayWindow:
    """One day's [start, end) slice of every stream, with straddlers clipped."""

    day_index: int
    streams: dict[str, list[ConceptEvent]] = field(default_factory=dict)

    def events(self, stream: str) -> list[ConceptEvent]:
        return self.streams.get(stream, [])


def day_windows(streams: dict[str, list[ConceptEvent]], day_origin: int,
                days: int) -> list[DayWindow]:
    """Windows for days 0 .. `days` - 1 after `day_origin`, one event at a time."""
    if days > MAX_DAYS:
        raise ValidationError(f"day {days - 1} after day origin {day_origin} is past "
                              f"the {MAX_DAYS}-day limit")
    cut = [{s: [] for s in STREAMS} for _ in range(days)]
    for s in STREAMS:
        for e in streams.get(s, []):
            first = max(0, (e.start - day_origin) // SECONDS_PER_DAY)
            last = min(days - 1, (e.end - 1 - day_origin) // SECONDS_PER_DAY)
            for d in range(first, last + 1):
                lo = day_origin + SECONDS_PER_DAY * d
                start, end = max(e.start, lo), min(e.end, lo + SECONDS_PER_DAY)
                cut[d][s].append(e if (start, end) == (e.start, e.end)
                                 else replace(e, start=start, end=end))
    return [DayWindow(d, {s: sort_events(v) for s, v in window.items()})
            for d, window in enumerate(cut)]


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
    """Strict-overlap pair counts of two streams, by one sweep over both
    sides' events in start order: each drops the other side's events that
    ended by its start, pairs with each one left and joins its own side."""
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


@dataclass
class ReferenceGraph:
    day_index: int
    nodes: list[GraphNode]
    edges: list[GraphEdge]


def build_local_graph(window: DayWindow, vocab: Vocabulary) -> ReferenceGraph:
    """One day's graph; nodes in (stream, concept) lexicographic order."""
    durations: dict[tuple[str, str], float] = {}
    for stream in STREAMS:
        for e in window.events(stream):
            key = (stream, e.concept)
            durations[key] = durations.get(key, 0.0) + (e.end - e.start) / 3600.0
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
    return ReferenceGraph(day_index=window.day_index, nodes=nodes, edges=edges)


def graph_arrays(graph: ReferenceGraph) -> GraphArrays:
    """The index form of a graph given as node and edge objects."""
    order = sorted(range(len(graph.nodes)),
                   key=lambda i: (graph.nodes[i].stream, graph.nodes[i].concept))
    remap = {old: new for new, old in enumerate(order)}
    nodes = [graph.nodes[i] for i in order]
    edges = sorted(graph.edges, key=lambda e: (remap[e.src], remap[e.dst]))
    src = np.array([remap[e.src] for e in edges], dtype=np.intp)
    dst = np.array([remap[e.dst] for e in edges], dtype=np.intp)
    heterogeneous = np.array([e.kind == HETEROGENEOUS for e in edges], dtype=np.intp)
    weight = np.array([e.weight for e in edges], dtype=np.float64)
    into = 2 * dst + heterogeneous
    totals = np.bincount(into, weights=weight, minlength=2 * len(nodes))[into]
    return GraphArrays(
        n=len(nodes),
        embedding_index=np.array([nd.embedding_index for nd in nodes], dtype=np.intp),
        day_fraction=np.array([nd.attribute for nd in nodes])[:, None] / 24.0,
        stream_index=np.array([STREAMS.index(nd.stream) for nd in nodes], dtype=np.intp),
        src_idx=src, dst_idx=dst,
        edge_kind=heterogeneous,
        edge_weight=np.divide(weight, totals, out=np.zeros_like(weight),
                              where=totals > 0))


# ---------------------------------------------------------------------------
# the event-side duration vector


def behavior_feature(window: DayWindow, vocab: Vocabulary) -> np.ndarray:
    """Per-day duration vector: 4 activity + 4 audio + 100 location hours.

    Location slots follow vocabulary order; slots past the vocabulary length
    stay zero so the layout is fixed at 108 entries.
    """
    out = np.zeros(FEATURE_DIM)
    for stream in STREAMS:
        for e in window.events(stream):
            out[vocab.feature_index(stream, e.concept)] += (e.end - e.start) / 3600.0
    return out


# ---------------------------------------------------------------------------
# the scenario oracle


def _overlap_count(day_events, stream_a, concept_a, stream_b, concept_b) -> int:
    ev_a = [e for e in day_events.get(stream_a, []) if e.concept == concept_a]
    ev_b = [e for e in day_events.get(stream_b, []) if e.concept == concept_b]
    counts = heterogeneous_edges(ev_a, ev_b)
    return counts.get((concept_a, concept_b), 0)


def oracle_label(day_events: dict[str, list[ConceptEvent]],
                 spec: ScenarioSpec) -> int | None:
    """Recover the generating class from the scenario's separating statistic;
    returns None (abstains) when the statistic ties."""
    if spec.mechanism in ("node", "combined"):
        hours = []
        for loc in SIGNATURES:
            hours.append(sum((e.end - e.start) for e in day_events.get(LOCATION, [])
                             if e.concept == loc))
        top = max(hours)
        if hours.count(top) != 1 or top == 0:
            return None
        return hours.index(top)
    if spec.mechanism == "transition":
        bigrams = homogeneous_edges(day_events.get(LOCATION, []))
        scores = [bigrams.get(("classroom", sig), 0)
                  + bigrams.get((sig, "classroom"), 0) for sig in SIGNATURES]
        top = max(scores)
        if scores.count(top) != 1 or top == 0:
            return None
        return scores.index(top)
    # cooccurrence: read back both phases
    in_audio = _overlap_count(day_events, LOCATION, "dorm", AUDIO, "voice")
    out_audio = _overlap_count(day_events, LOCATION, "dorm", AUDIO, "silence")
    in_act = _overlap_count(day_events, LOCATION, "dorm", ACTIVITY, "walking")
    out_act = _overlap_count(day_events, LOCATION, "dorm", ACTIVITY, "stationary")
    if in_audio == out_audio or in_act == out_act:
        return None
    return 2 * int(out_audio > in_audio) + int(out_act > in_act)
