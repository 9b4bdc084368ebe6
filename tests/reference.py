"""Reference code that only the tests use.

Each piece is the independent side of a check on `lgbg`: autograd ops the
composed reference layer and the op table are built from, a graph's plain
dict form, an embedding lookup by name, the per-day duration vector summed
from events, and the scenario oracle that reads a planted class back from a
day's events.
"""

from __future__ import annotations

import numpy as np

from lgbg import autograd as ag
from lgbg.autograd import Tensor
from lgbg.embeddings import EmbeddingTable
from lgbg.graphs import LocalContextGraph, heterogeneous_edges, homogeneous_edges
from lgbg.streams import (ACTIVITY, AUDIO, FEATURE_DIM, LOCATION, STREAMS,
                          ConceptEvent, DayWindow, Vocabulary)
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


def graph_dict(graph: LocalContextGraph) -> dict:
    """The document `LocalContextGraph.dump_json` writes, as plain data."""
    return {
        "day_index": graph.day_index,
        "nodes": [{"stream": n.stream, "concept": n.concept,
                   "attribute": n.attribute} for n in graph.nodes],
        "edges": [{"src": e.src, "dst": e.dst, "kind": e.kind,
                   "weight": e.weight} for e in graph.edges],
    }


def vector(table: EmbeddingTable, name: str) -> np.ndarray:
    return table.vectors[table.index(name)]


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
            out[vocab.feature_index(stream, e.concept)] += e.seconds / 3600.0
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
            hours.append(sum(e.seconds for e in day_events.get(LOCATION, [])
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
