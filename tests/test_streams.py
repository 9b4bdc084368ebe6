import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgbg.errors import ParseError, ValidationError, VocabularyError
from lgbg.streams import (ACTIVITY, AUDIO, LOCATION, MAX_DAYS, OTHER_LOCATION,
                          SECONDS_PER_DAY, STREAMS, TIME_LIMIT, ConceptEvent, ParsedLog,
                          Vocabulary, parse_event_log, sort_events, write_event_log)

from conftest import cut_windows, day_graph, ev, events_of, one_day
from reference import DayWindow, behavior_feature


def write_log(path, records, header=True):
    lines = []
    if header:
        lines.append(json.dumps({"format": 1}))
    for r in records:
        lines.append(json.dumps(r) if isinstance(r, dict) else r)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def rec(stream, concept, start, end):
    return {"stream": stream, "concept": concept, "start": start, "end": end}


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_fixed_sizes(vocab):
    assert len(vocab.concepts(ACTIVITY)) == 4
    assert len(vocab.concepts(AUDIO)) == 4
    assert OTHER_LOCATION in vocab.concepts(LOCATION)


def test_vocab_rejects_too_many_locations():
    with pytest.raises(ValidationError):
        Vocabulary(locations=tuple(f"loc{i}" for i in range(101)))


def test_vocab_roundtrip(tmp_path, vocab):
    vocab.save(tmp_path / "vocab.json")
    loaded = Vocabulary.load(tmp_path / "vocab.json")
    assert loaded.locations == vocab.locations
    assert loaded.digest() == vocab.digest()


def test_vocab_rejects_bad_activity_list(tmp_path):
    doc = {"format": 1, "activity": ["sitting"], "audio": list(("silence", "voice", "noise", "other")),
           "location": ["dorm"]}
    (tmp_path / "v.json").write_text(json.dumps(doc))
    with pytest.raises(VocabularyError):
        Vocabulary.load(tmp_path / "v.json")


# ---------------------------------------------------------------------------
# parsing


def test_parse_empty_file(tmp_path, vocab):
    (tmp_path / "log.jsonl").write_text("")
    parsed = parse_event_log(tmp_path / "log.jsonl", vocab)
    assert parsed.start.size == parsed.end.size == parsed.key.size == 0
    assert events_of(parsed, vocab) == {ACTIVITY: [], AUDIO: [], LOCATION: []}


def test_parse_single_record(tmp_path, vocab):
    write_log(tmp_path / "log.jsonl", [rec("activity", "walking", 0, 3600)])
    parsed = parse_event_log(tmp_path / "log.jsonl", vocab)
    (event,) = events_of(parsed, vocab)[ACTIVITY]
    assert (event.end - event.start) == 3600


def test_parse_sorts_out_of_order_lines(tmp_path, vocab):
    records = [rec("audio", "voice", 5000, 6000), rec("audio", "silence", 0, 100),
               rec("audio", "noise", 200, 400)]
    write_log(tmp_path / "log.jsonl", records)
    parsed = parse_event_log(tmp_path / "log.jsonl", vocab)
    got = [(e.start, e.end) for e in events_of(parsed, vocab)[AUDIO]]
    assert got == sorted(got)  # independent sort oracle


def test_parse_malformed_line_reports_number(tmp_path, vocab):
    write_log(tmp_path / "log.jsonl", [rec("audio", "voice", 0, 10), "{broken"])
    with pytest.raises(ParseError, match="line 3"):
        parse_event_log(tmp_path / "log.jsonl", vocab)


def test_parse_unknown_stream(tmp_path, vocab):
    write_log(tmp_path / "log.jsonl", [rec("video", "cat", 0, 10)])
    with pytest.raises(VocabularyError):
        parse_event_log(tmp_path / "log.jsonl", vocab)


def test_parse_unknown_audio_concept(tmp_path, vocab):
    write_log(tmp_path / "log.jsonl", [rec("audio", "music", 0, 10)])
    with pytest.raises(VocabularyError):
        parse_event_log(tmp_path / "log.jsonl", vocab)


def test_parse_remaps_unknown_location(tmp_path, vocab):
    write_log(tmp_path / "log.jsonl", [rec("location", "moon-base", 0, 10)])
    parsed = parse_event_log(tmp_path / "log.jsonl", vocab)
    assert parsed.remapped_locations == 1
    assert events_of(parsed, vocab)[LOCATION][0].concept == OTHER_LOCATION


def test_parse_rejects_reversed_interval(tmp_path, vocab):
    write_log(tmp_path / "log.jsonl", [rec("audio", "voice", 10, 10)])
    with pytest.raises(ValidationError):
        parse_event_log(tmp_path / "log.jsonl", vocab)


def test_parse_deduplicates_exact_records(tmp_path, vocab):
    write_log(tmp_path / "log.jsonl",
              [rec("audio", "voice", 0, 10), rec("audio", "voice", 0, 10)])
    parsed = parse_event_log(tmp_path / "log.jsonl", vocab)
    assert parsed.deduplicated == 1
    assert len(events_of(parsed, vocab)[AUDIO]) == 1


def test_parse_serialize_parse_identity(tmp_path, vocab):
    records = [rec("audio", "voice", 50, 99), rec("activity", "walking", 0, 30),
               rec("location", "dorm", 20, 70), rec("audio", "silence", 100, 130)]
    write_log(tmp_path / "a.jsonl", records)
    first = events_of(parse_event_log(tmp_path / "a.jsonl", vocab), vocab)
    write_event_log(tmp_path / "b.jsonl", first)
    second = events_of(parse_event_log(tmp_path / "b.jsonl", vocab), vocab)
    assert first == second
    write_event_log(tmp_path / "c.jsonl", second)
    assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "c.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# day slicing


def test_parse_rejects_a_key_given_twice(tmp_path, vocab):
    """The last of two values used to win silently: this line parsed as one
    `noise` event over 0-20."""
    write_log(tmp_path / "log.jsonl", [rec("audio", "voice", 0, 10),
                                       '{"stream": "audio", "concept": "voice", '
                                       '"concept": "noise", "start": 0, "end": 10, "end": 20}'])
    with pytest.raises(ParseError, match="line 3: .*'concept' appears twice"):
        parse_event_log(tmp_path / "log.jsonl", vocab)


def test_parse_rejects_a_line_nested_past_the_decoder(tmp_path, vocab):
    """The decoder's RecursionError used to escape as a traceback."""
    write_log(tmp_path / "log.jsonl", ["[" * 100000 + "]" * 100000])
    with pytest.raises(ParseError, match="line 2: invalid JSON"):
        parse_event_log(tmp_path / "log.jsonl", vocab)


def test_parse_rejects_timestamps_past_the_column_range(tmp_path, vocab):
    write_log(tmp_path / "log.jsonl", [rec("audio", "voice", -TIME_LIMIT, TIME_LIMIT)])
    assert parse_event_log(tmp_path / "log.jsonl", vocab).start.tolist() == [-TIME_LIMIT]
    for start, end in ((-TIME_LIMIT - 1, 0), (0, TIME_LIMIT + 1), (0, 10 ** 30)):
        write_log(tmp_path / "log.jsonl", [rec("audio", "voice", start, end)])
        with pytest.raises(ValidationError, match="line 2"):
            parse_event_log(tmp_path / "log.jsonl", vocab)


def test_slice_splits_straddling_event(vocab):
    streams = {ACTIVITY: [ev(ACTIVITY, "walking", 23 * 3600, 25 * 3600)]}
    d0, d1 = cut_windows(streams, vocab, 0, 2)
    assert [(e.end - e.start) for e in d0.events(ACTIVITY)] == [3600]
    assert [(e.end - e.start) for e in d1.events(ACTIVITY)] == [3600]


def test_slice_keeps_inside_events(vocab):
    streams = {AUDIO: [ev(AUDIO, "voice", 100, 200), ev(AUDIO, "noise", 300, 500)]}
    (window,) = cut_windows(streams, vocab, 0, 1)
    assert [(e.start, e.end) for e in window.events(AUDIO)] == [(100, 200), (300, 500)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4 * 86400 - 2), st.integers(1, 90000)),
                min_size=1, max_size=20))
def test_slicing_conserves_total_duration(raw):
    vocab = Vocabulary(locations=())
    # Distinct events: the columns keep one of each repeated event.
    events = list(dict.fromkeys(ev(AUDIO, "voice", s, s + d) for s, d in raw))
    streams = {AUDIO: events}
    total = sum((e.end - e.start) for e in events) / 3600.0
    days = ParsedLog.from_events(streams, vocab).day_span()
    clipped = sum(sum((e.end - e.start) for e in w.events(AUDIO))
                  for w in cut_windows(streams, vocab, 0, days)) / 3600.0
    assert abs(total - clipped) < 1e-9


def test_day_span_never_negative(vocab):
    log = ParsedLog.from_events({AUDIO: [ev(AUDIO, "voice", 100, 200)]}, vocab)
    assert log.day_span(3 * SECONDS_PER_DAY) == 0
    assert log.day_span(199) == 1
    assert log.day_span(200) == 0


def test_day_windows_bounded_by_max_days(vocab):
    empty = ParsedLog.from_events({}, vocab)
    assert empty.cut(0, MAX_DAYS).day.size == 0
    with pytest.raises(ValidationError, match="day origin 0"):
        empty.cut(0, MAX_DAYS + 1)


def test_day_windows_admit_unix_epoch_seconds(vocab):
    start = 1_760_000_000  # October 2025, in seconds since 1970
    streams = {AUDIO: [ev(AUDIO, "voice", start, start + 60)]}
    log = ParsedLog.from_events(streams, vocab)
    days = log.day_span()
    assert days == start // SECONDS_PER_DAY + 1
    pieces = log.cut(0, days)
    assert pieces.day.tolist() == [days - 1]
    assert pieces.start.tolist() == [start] and pieces.end.tolist() == [start + 60]


def reference_window(streams, day_index: int, day_origin: int) -> DayWindow:
    """One scan of every stream for one day."""
    lo = day_origin + SECONDS_PER_DAY * day_index
    hi = lo + SECONDS_PER_DAY
    window = {}
    for s in STREAMS:
        clipped = []
        for e in streams.get(s, []):
            start = max(e.start, lo)
            end = min(e.end, hi)
            if start < end:
                clipped.append(ConceptEvent(start=start, end=end,
                                            stream=e.stream, concept=e.concept))
        window[s] = sort_events(clipped)
    return DayWindow(day_index=day_index, streams=window)


HOUR = 3600
# Whole hours often land on midnight, so straddlers clipped there tie with
# events that start there, and long events clip to identical tuples.
TIMES = st.one_of(st.integers(-2 * SECONDS_PER_DAY, 4 * SECONDS_PER_DAY),
                  st.integers(-48, 96).map(lambda h: h * HOUR))
LENGTHS = st.one_of(st.integers(1, 2 * SECONDS_PER_DAY),
                    st.integers(1, 60).map(lambda h: h * HOUR))
ORIGINS = st.one_of(st.just(0), st.integers(-SECONDS_PER_DAY, SECONDS_PER_DAY),
                    st.integers(-24, 24).map(lambda h: h * HOUR))
# Two concepts per stream, "x" and "y", whose names sort in that order.
XY = {ACTIVITY: {"x": "running", "y": "walking"}, AUDIO: {"x": "noise", "y": "voice"},
      LOCATION: {"x": "dorm", "y": "gym"}}


@settings(max_examples=200, deadline=None)
@given(raw=st.lists(st.tuples(st.sampled_from(STREAMS), st.sampled_from(["x", "y"]),
                              TIMES, LENGTHS), max_size=25),
       origin=ORIGINS, extra=st.integers(-2, 2))
@example(raw=[(AUDIO, "y", 20 * HOUR, 10 * HOUR),         # clipped to day 1's midnight
              (AUDIO, "x", 25 * HOUR, 2 * HOUR),          # starts at that midnight
              (AUDIO, "y", 0, 3 * SECONDS_PER_DAY),        # clips, on day 1, to the same
              (AUDIO, "y", 20 * HOUR, 2 * SECONDS_PER_DAY),  # tuple as this one
              (LOCATION, "x", -5 * HOUR, 7 * HOUR)],       # starts before the origin
         origin=HOUR, extra=0)
def test_day_windows_match_per_day_reference(raw, origin, extra):
    vocab = Vocabulary(locations=("dorm", "gym"))
    streams = {s: [] for s in STREAMS}
    # Distinct events: the columns keep one of each repeated event.
    for stream, concept, start, length in dict.fromkeys(raw):
        streams[stream].append(ev(stream, XY[stream][concept], start, start + length))
    days = max(0, ParsedLog.from_events(streams, vocab).day_span(origin) + extra)
    windows = cut_windows(streams, vocab, origin, days)
    assert len(windows) == days
    for d, window in enumerate(windows):
        assert window == reference_window(streams, d, origin)

# ---------------------------------------------------------------------------
# durations: the graph's node hours and the 108-d feature


def hours(graph) -> dict[tuple[str, str], float]:
    return {(n.stream, n.concept): n.attribute for n in graph.nodes}


def test_duration_additive(vocab):
    streams = {ACTIVITY: [ev(ACTIVITY, "walking", 0, 1800),
                          ev(ACTIVITY, "walking", 7200, 9000)]}
    graph = day_graph(streams, vocab)
    assert hours(graph) == {(ACTIVITY, "walking"): 1.0}


def test_duration_absent_concept_zero(vocab):
    streams = {ACTIVITY: [ev(ACTIVITY, "walking", 0, 1800)]}
    graph = day_graph(streams, vocab)
    assert (AUDIO, "voice") not in hours(graph)


def test_duration_matches_per_second_oracle(vocab):
    rng = np.random.default_rng(9)
    events = []
    for _ in range(15):
        start = int(rng.integers(0, 80000))
        events.append(ev(AUDIO, str(rng.choice(["voice", "silence"])),
                         start, start + int(rng.integers(1, 5000))))
    graph = day_graph({AUDIO: events}, vocab)
    for concept in ("voice", "silence"):
        per_second = sum(
            max(0, min(e.end, 86400) - max(e.start, 0))
            for e in events if e.concept == concept) / 3600.0
        assert abs(hours(graph)[(AUDIO, concept)] - per_second) < 1e-9


def test_behavior_feature_empty_day(vocab):
    assert np.array_equal(behavior_feature(one_day({}), vocab), np.zeros(108))


def test_behavior_feature_full_day_stationary(vocab):
    streams = {ACTIVITY: [ev(ACTIVITY, "stationary", 0, 86400)]}
    feat = behavior_feature(one_day(streams), vocab)
    assert feat[vocab.feature_index(ACTIVITY, "stationary")] == 24.0
    assert feat.sum() == 24.0


def test_behavior_feature_cross_checks_duration(vocab):
    """Every node's hours are the feature slot's bits, and every slot without
    a node is 0.0. The 29 seven-second `voice` events sum to other bits when
    their seconds are added before dividing."""
    rng = np.random.default_rng(4)
    streams = {
        ACTIVITY: [ev(ACTIVITY, str(rng.choice(vocab.concepts(ACTIVITY))), s, s + 600)
                   for s in range(0, 40000, 4000)],
        AUDIO: [ev(AUDIO, "voice", s, s + 7) for s in range(0, 29 * 60, 60)],
        LOCATION: [ev(LOCATION, "dorm", 0, 7200), ev(LOCATION, "gym", 9000, 12600)],
    }
    window = one_day(streams)
    feat = behavior_feature(window, vocab)
    slots = {vocab.feature_index(s, c): h
             for (s, c), h in hours(day_graph(streams, vocab)).items()}
    assert sum((e.end - e.start) for e in streams[AUDIO]) / 3600.0 != slots[
        vocab.feature_index(AUDIO, "voice")]
    for slot, value in enumerate(feat):
        assert value == slots.get(slot, 0.0)


def test_behavior_feature_invariant_to_event_order(tmp_path, vocab):
    records = [rec("location", "dorm", 100, 4000), rec("audio", "voice", 0, 500),
               rec("activity", "walking", 2000, 2600), rec("audio", "silence", 600, 900)]
    write_log(tmp_path / "a.jsonl", records)
    write_log(tmp_path / "b.jsonl", records[::-1])
    fa = behavior_feature(one_day(events_of(parse_event_log(tmp_path / "a.jsonl", vocab),
                                            vocab)), vocab)
    fb = behavior_feature(one_day(events_of(parse_event_log(tmp_path / "b.jsonl", vocab),
                                            vocab)), vocab)
    assert np.array_equal(fa, fb)
