import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgbg.errors import ValidationError
from lgbg.graphs import (HETEROGENEOUS, HOMOGENEOUS, GraphArrays, GraphEdge, GraphNode,
                         LocalContextGraph, NodeKeys, build_days, heterogeneous_edges,
                         homogeneous_edges, quantize_pam)
from lgbg.streams import (ACTIVITY, AUDIO, LOCATION, SECONDS_PER_DAY, STREAMS, Vocabulary,
                          parse_event_log)

from conftest import day_graph, ev, events_dataset, one_day, random_events
from reference import (before_origin, build_local_graph, day_span, day_windows, dump_text,
                       graph_arrays, graph_dict, read_events)


def adjacent_pair_tally(events):
    """Brute-force oracle: directed counts of consecutive distinct concepts."""
    ordered = sorted(events, key=lambda e: (e.start, e.end, e.concept))
    out = {}
    for i in range(len(ordered) - 1):
        a, b = ordered[i].concept, ordered[i + 1].concept
        if a != b:
            out[(a, b)] = out.get((a, b), 0) + 1
    return out


def all_pairs_overlap(events_a, events_b):
    """Brute-force oracle: O(n*m) strict interval-overlap pair counts."""
    out = {}
    for a in events_a:
        for b in events_b:
            if max(a.start, b.start) < min(a.end, b.end):
                key = (a.concept, b.concept)
                out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# homogeneous edges


def test_homogeneous_hand_count():
    events = [ev(LOCATION, "dorm", 0, 10), ev(LOCATION, "library", 20, 30),
              ev(LOCATION, "dorm", 40, 50)]
    assert homogeneous_edges(events) == {("dorm", "library"): 1, ("library", "dorm"): 1}


def test_homogeneous_no_self_loops():
    events = [ev(ACTIVITY, "walking", i * 10, i * 10 + 5) for i in range(3)]
    assert homogeneous_edges(events) == {}


def test_homogeneous_matches_tally_oracle():
    rng = np.random.default_rng(2)
    events = random_events(rng, LOCATION, ["dorm", "library", "gym", "cafe"], 50)
    assert homogeneous_edges(events) == adjacent_pair_tally(events)


# ---------------------------------------------------------------------------
# heterogeneous edges


def test_heterogeneous_overlap_counted():
    silence = [ev(AUDIO, "silence", 0, 100)]
    library = [ev(LOCATION, "library", 50, 150)]
    assert heterogeneous_edges(silence, library) == {("silence", "library"): 1}


def test_heterogeneous_touching_intervals_do_not_count():
    a = [ev(AUDIO, "voice", 0, 100)]
    b = [ev(LOCATION, "dorm", 100, 200)]
    assert heterogeneous_edges(a, b) == {}


def test_heterogeneous_rejects_same_stream():
    a = [ev(AUDIO, "voice", 0, 10)]
    b = [ev(AUDIO, "silence", 5, 15)]
    with pytest.raises(ValidationError):
        heterogeneous_edges(a, b)


def test_heterogeneous_matches_all_pairs_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_events(rng, AUDIO, ["voice", "silence", "noise"],
                          int(rng.integers(0, 40)))
        b = random_events(rng, LOCATION, ["dorm", "gym"], int(rng.integers(0, 40)))
        assert heterogeneous_edges(a, b) == all_pairs_overlap(a, b)


def grid_events(rng, stream, concepts, n, repeats=1):
    """n events whose starts and ends lie on a 5-point grid, so most of them
    tie; each drawn event is listed up to `repeats` times."""
    events = []
    for _ in range(n):
        start = int(rng.integers(0, 4))
        end = int(rng.integers(start + 1, 5))
        e = ev(stream, str(rng.choice(concepts)), 600 * start, 600 * end)
        events += [e] * int(rng.integers(1, repeats + 1))
    return events


def test_heterogeneous_matches_all_pairs_oracle_on_ties():
    rng = np.random.default_rng(19)
    for _ in range(5000):
        a = grid_events(rng, AUDIO, ["voice", "silence"], int(rng.integers(0, 6)),
                        repeats=3)
        b = grid_events(rng, LOCATION, ["dorm", "gym"], int(rng.integers(0, 6)))
        want = all_pairs_overlap(a, b)
        assert heterogeneous_edges(a, b) == want
        assert heterogeneous_edges(a[::-1], b[::-1]) == want


# ---------------------------------------------------------------------------
# local graph construction


def test_empty_window_empty_graph(vocab):
    graph = day_graph({}, vocab)
    assert graph.is_empty()
    assert graph.edges == []


def test_single_event_graph(vocab):
    streams = {ACTIVITY: [ev(ACTIVITY, "walking", 0, 5400)]}
    graph = day_graph(streams, vocab)
    assert len(graph.nodes) == 1
    assert graph.nodes[0].attribute == 1.5
    assert graph.edges == []


@pytest.mark.parametrize("src,dst", [(-1, 0), (0, 2)])
def test_graph_from_objects_rejects_an_edge_end_outside_its_nodes(src, dst):
    nodes = [GraphNode(AUDIO, c, 1.0, 0) for c in ("voice", "noise")]
    with pytest.raises(ValidationError, match="edge end"):
        LocalContextGraph(0, nodes, [GraphEdge(src, dst, HOMOGENEOUS, 1)])


def scripted_day():
    return {
        ACTIVITY: [ev(ACTIVITY, "walking", 0, 3600),
                   ev(ACTIVITY, "stationary", 3600, 7200)],
        AUDIO: [ev(AUDIO, "voice", 1800, 5400), ev(AUDIO, "silence", 5400, 9000)],
        LOCATION: [ev(LOCATION, "dorm", 0, 5000), ev(LOCATION, "library", 5200, 9000)],
    }


def test_scripted_day_matches_hand_enumeration(vocab):
    graph = day_graph(scripted_day(), vocab)
    keys = [(n.stream, n.concept) for n in graph.nodes]
    assert keys == [(ACTIVITY, "stationary"), (ACTIVITY, "walking"),
                    (AUDIO, "silence"), (AUDIO, "voice"),
                    (LOCATION, "dorm"), (LOCATION, "library")]
    attrs = {(n.stream, n.concept): n.attribute for n in graph.nodes}
    assert attrs[(LOCATION, "dorm")] == pytest.approx(5000 / 3600)
    assert attrs[(AUDIO, "voice")] == 1.0

    homo = {(e.src, e.dst) for e in graph.edges if e.kind == HOMOGENEOUS}
    assert homo == {(1, 0), (3, 2), (4, 5)}  # walking->stationary etc.

    het_pairs = {frozenset((e.src, e.dst)) for e in graph.edges
                 if e.kind == HETEROGENEOUS}
    expected = {frozenset(p) for p in
                [(1, 3), (0, 3), (0, 2), (1, 4), (0, 4), (0, 5), (3, 4), (3, 5), (2, 5)]}
    assert het_pairs == expected
    assert all(e.weight == 1 for e in graph.edges)
    # every het pair stored as two directed edges
    assert sum(e.kind == HETEROGENEOUS for e in graph.edges) == 18


def test_edge_weights_invariant_to_event_permutation(vocab):
    streams = scripted_day()
    shuffled = {s: list(reversed(v)) for s, v in streams.items()}
    g1 = day_graph(streams, vocab)
    g2 = day_graph(shuffled, vocab)
    assert graph_dict(g1) == graph_dict(g2)


def test_every_het_edge_backed_by_an_overlap(vocab):
    rng = np.random.default_rng(11)
    streams = {
        ACTIVITY: random_events(rng, ACTIVITY, ["walking", "running"], 20),
        AUDIO: random_events(rng, AUDIO, ["voice", "noise"], 20),
        LOCATION: random_events(rng, LOCATION, ["dorm", "gym"], 20),
    }
    window = one_day(streams)
    graph = day_graph(streams, vocab)
    for e in graph.edges:
        if e.kind != HETEROGENEOUS:
            continue
        src, dst = graph.nodes[e.src], graph.nodes[e.dst]
        found = any(
            max(a.start, b.start) < min(a.end, b.end)
            for a in window.events(src.stream) if a.concept == src.concept
            for b in window.events(dst.stream) if b.concept == dst.concept)
        assert found


# ---------------------------------------------------------------------------
# the column builder against the per-event builder it replaced

LOG_VOCAB = Vocabulary(locations=("dorm", "gym"))
# Index 2 of the location stream is missing from LOG_VOCAB, so it is remapped.
LOG_CONCEPTS = {ACTIVITY: ("running", "walking"), AUDIO: ("noise", "voice"),
                LOCATION: ("dorm", "gym", "moon-base")}
HOUR = 3600
# Whole hours often land on midnight: straddlers clipped there tie with events
# that start there, and events longer than a day clip to the same full day.
# On the 6-hour grid events of two streams often touch, end to start.
LOG_TIMES = st.one_of(st.integers(-2 * SECONDS_PER_DAY, 4 * SECONDS_PER_DAY),
                      st.integers(-48, 96).map(lambda h: h * HOUR),
                      st.integers(-8, 16).map(lambda q: q * 6 * HOUR))
LOG_LENGTHS = st.one_of(st.integers(1, 2 * SECONDS_PER_DAY),
                        st.integers(1, 60).map(lambda h: h * HOUR),
                        st.integers(1, 8).map(lambda q: q * 6 * HOUR))
LOG_ORIGINS = st.one_of(st.just(0), st.integers(-SECONDS_PER_DAY, SECONDS_PER_DAY),
                        st.integers(-24, 24).map(lambda h: h * HOUR))
RECORDS = st.lists(st.tuples(st.sampled_from(STREAMS), st.integers(0, 2), LOG_TIMES,
                             LOG_LENGTHS), max_size=30)


def assert_builds_as_reference(lines: list[str], origin: int, extra: int) -> None:
    """`lines` built by `lgbg` and by the per-event reference: the same
    counters, the same JSON text of every day and the same bytes of every
    index-form field."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_text("\n".join([json.dumps({"format": 1})] + lines) + "\n")
        parsed = parse_event_log(path, LOG_VOCAB)
        streams, remapped, deduplicated = read_events(path, LOG_VOCAB)
    assert (parsed.remapped_locations, parsed.deduplicated) == (remapped, deduplicated)
    assert parsed.before_origin(origin) == before_origin(streams, origin)
    days = parsed.day_span(origin) + extra
    assert days == day_span(streams, origin) + extra
    graphs = {g.day_index: g for g in build_days(parsed, LOG_VOCAB, days, origin)}
    for window in day_windows(streams, origin, days):
        want = build_local_graph(window, LOG_VOCAB)
        got = graphs.get(window.day_index)
        assert (got is None) == (not want.nodes)
        got = got or LocalContextGraph(window.day_index)
        assert got.dump_json() == dump_text(want)
        ours, theirs = got.arrays, graph_arrays(want)
        for f in fields(GraphArrays):
            a, b = getattr(ours, f.name), getattr(theirs, f.name)
            if f.name == "n":
                assert a == b
            else:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


@settings(settings.get_profile("derandomized"))
@given(records=RECORDS, repeats=st.lists(st.integers(0, 29), max_size=4),
       origin=LOG_ORIGINS, extra=st.integers(0, 2))
@example(records=[(AUDIO, 1, 20 * HOUR, 10 * HOUR),      # clipped to day 1's midnight
                  (AUDIO, 0, 25 * HOUR, 2 * HOUR),       # starts at that midnight
                  (AUDIO, 1, 0, 3 * SECONDS_PER_DAY),     # clips, on day 1, to the same
                  (AUDIO, 1, 20 * HOUR, 2 * SECONDS_PER_DAY),  # tuple as this one
                  (LOCATION, 2, -5 * HOUR, 7 * HOUR),    # remapped, before the origin
                  (LOCATION, 0, 2 * HOUR, 9 * HOUR),
                  (ACTIVITY, 0, HOUR, 30 * HOUR)],
         repeats=[0, 4, 4], origin=HOUR, extra=1)
@example(records=[(AUDIO, 1, HOUR, HOUR), (LOCATION, 0, 0, HOUR),   # touching, both ways
                  (ACTIVITY, 0, 2 * HOUR, HOUR), (AUDIO, 0, 3 * HOUR, HOUR)],
         repeats=[], origin=0, extra=0)
def test_column_builder_matches_per_event_reference(records, repeats, origin, extra):
    lines = [json.dumps({"stream": s, "concept": LOG_CONCEPTS[s][i % len(LOG_CONCEPTS[s])],
                         "start": start, "end": start + length})
             for s, i, start, length in records]
    lines += [lines[i] for i in repeats if i < len(lines)]
    assert_builds_as_reference(lines, origin, extra)


# ---------------------------------------------------------------------------
# samples


def samples_of(streams, labels, span, vocab, table, subject=""):
    """The samples of one subject's events, through the dataset path."""
    return events_dataset(vocab, [(subject, streams, labels, None)]).samples(span, table)


def test_build_samples_counts(vocab, small_table):
    streams = {AUDIO: [ev(AUDIO, "voice", d * 86400, d * 86400 + 60)
                       for d in range(5)]}
    labels = {d: d % 4 for d in range(5)}
    samples = samples_of(streams, labels, 3, vocab, small_table, subject="s")
    assert len(samples) == 3
    assert [s.anchor_day for s in samples] == [2, 3, 4]
    assert all(len(s.graphs) == 3 for s in samples)


def test_build_samples_span_one(vocab, small_table):
    streams = {AUDIO: [ev(AUDIO, "voice", 0, 60)]}
    labels = {0: 1, 1: 2}
    samples = samples_of(streams, labels, 1, vocab, small_table)
    assert len(samples) == 2


def test_build_samples_sparse_labels_match_window_oracle(vocab, small_table):
    rng = np.random.default_rng(13)
    days = 30
    streams = {AUDIO: [ev(AUDIO, "voice", d * 86400 + 100, d * 86400 + 200)
                       for d in range(days)]}
    labeled = sorted(rng.choice(days, size=12, replace=False).tolist())
    labels = {int(d): int(rng.integers(4)) for d in labeled}
    span = 3
    # independent sliding-window count
    expected = sum(1 for a in range(days - span + 1) if (a + span - 1) in labels)
    samples = samples_of(streams, labels, span, vocab, small_table)
    assert len(samples) == expected
    assert all(s.label == labels[s.anchor_day] for s in samples)


def test_sample_label_comes_from_anchor_day(vocab, small_table):
    streams = {AUDIO: [ev(AUDIO, "voice", d * 86400, d * 86400 + 60)
                       for d in range(3)]}
    samples = samples_of(streams, {2: 3}, 3, vocab, small_table)
    assert samples[0].label == 3
    assert samples[0].anchor_day == 2


# ---------------------------------------------------------------------------
# JSON dump

NAMES = st.one_of(st.sampled_from([ACTIVITY, AUDIO, LOCATION, "caf\u00e9", 'a"b', "a\\b",
                                   "\x00\x1f\n\t\x7f", "\u2028\U0001f600", ""]),
                  st.text(max_size=6))
ATTRIBUTES = st.one_of(st.sampled_from([1e-7, 1 / 3, 1e16, 5e-324, 2.0, 0.1 + 0.2]),
                       st.floats(allow_nan=False, allow_infinity=False))
NODES = st.lists(st.tuples(NAMES, NAMES, ATTRIBUTES), max_size=6)
EDGES = st.lists(st.tuples(st.integers(-1, 2 ** 40), st.integers(0, 9), st.integers(0, 1),
                           st.integers(0, 10 ** 12)), max_size=6)


def column_graph(day, nodes, edges) -> LocalContextGraph:
    """A graph whose columns are given outright: node i is key i, named by
    the (stream, concept) of `nodes[i]`; edges need not name real nodes."""
    keys = NodeKeys(tuple((s, c) for s, c, _ in nodes), np.zeros(len(nodes), dtype=np.intp))
    src, dst, kind, weight = (np.array(col, dtype=np.int64).reshape(-1)
                              for col in zip(*edges)) if edges else [np.zeros(0, np.int64)] * 4
    return LocalContextGraph.from_columns(day, keys, np.arange(len(nodes)),
                                          np.array([h for _, _, h in nodes], dtype=float),
                                          src, dst, kind, weight)


@settings(settings.get_profile("derandomized"))
@given(day=st.integers(0, 10 ** 6), nodes=NODES, edges=EDGES)
@example(day=0, nodes=[], edges=[])
@example(day=3, nodes=[(AUDIO, '\u00e9"\\\x01', 1 / 3)], edges=[])
@example(day=3, nodes=[], edges=[(0, 1, 0, 2)])
def test_dump_json_matches_json_dumps(day, nodes, edges):
    graph = column_graph(day, nodes, edges)
    expected = json.dumps(graph_dict(graph), sort_keys=True, separators=(",", ": "),
                          indent=1)
    assert graph.dump_json() == expected


# ---------------------------------------------------------------------------
# PAM quantization


@pytest.mark.parametrize("score,cls", [(1, 0), (4, 0), (5, 1), (8, 1),
                                       (9, 2), (12, 2), (13, 3), (16, 3)])
def test_quantize_pam_boundaries(score, cls):
    assert quantize_pam(score) == cls


@pytest.mark.parametrize("bad", [0, 17, -3, 2.5, "9"])
def test_quantize_pam_rejects_out_of_range(bad):
    with pytest.raises(ValidationError):
        quantize_pam(bad)


def test_quantize_pam_monotone():
    classes = [quantize_pam(s) for s in range(1, 17)]
    assert classes == sorted(classes)
