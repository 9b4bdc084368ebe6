"""Concept event streams: vocabularies, log ingestion, day cuts.

Event logs are UTF-8 JSON lines. The first line is a header `{"format": 1}`;
every following line is one record
`{"stream": "activity|audio|location", "concept": "<name>", "start": <int s>, "end": <int s>}`.
The vocabulary file is a single JSON object
`{"format": 1, "activity": [...], "audio": [...], "location": [...]}`.
Both are read through `lgbg.schema`, so a file that is missing, not UTF-8 or
not JSON, a line or object that gives one key twice, a wrong `format`, a
`concept` that is not a string, a `start` or `end` that is not an integer (a
bool is not) or lies beyond 2**62 seconds either side of 0, and a `location`
that is not a list of strings are all input errors.

A log is held as columns, not as event objects: `parse_event_log` checks
each line and keeps every event's stream, start, end and concept key in
int64 arrays, sorted once. `ParsedLog.cut` clips every event into each day
it overlaps in one whole-log pass, at most `MAX_DAYS` days after the day
origin, so a timestamp far in the future is an input error rather than
billions of empty days. `ConceptEvent` lists remain the form that the
generator makes and writes; `ParsedLog.from_events` turns them into columns.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParseError, ValidationError, VocabularyError
from .schema import _unique_keys, read_json, read_lines, require, write_text

ACTIVITY = "activity"
AUDIO = "audio"
LOCATION = "location"
STREAMS = (ACTIVITY, AUDIO, LOCATION)

ACTIVITY_CONCEPTS = ("stationary", "walking", "running", "unknown")
AUDIO_CONCEPTS = ("silence", "voice", "noise", "other")

# Reserved class for locations missing from the vocabulary file.
OTHER_LOCATION = "other-location"

MAX_LOCATIONS = 100
SECONDS_PER_DAY = 86400
# At most a century of days after the day origin.
MAX_DAYS = 36525
# Timestamps lie within this many seconds of 0, so columns hold them in int64.
TIME_LIMIT = 2 ** 62
FORMAT_VERSION = 1

# activity[4] + audio[4] + location[100]
FEATURE_DIM = 4 + 4 + MAX_LOCATIONS


@dataclass(frozen=True)
class Vocabulary:
    """Fixed concept vocabularies per stream; location list comes from a file."""

    locations: tuple[str, ...]

    def __post_init__(self):
        if OTHER_LOCATION not in self.locations:
            object.__setattr__(self, "locations", self.locations + (OTHER_LOCATION,))
        if len(self.locations) > MAX_LOCATIONS:
            raise ValidationError(
                f"{len(self.locations)} location classes exceed the {MAX_LOCATIONS} limit")
        if len(set(self.locations)) != len(self.locations):
            raise ValidationError("duplicate location class names")

    def concepts(self, stream: str) -> tuple[str, ...]:
        if stream == ACTIVITY:
            return ACTIVITY_CONCEPTS
        if stream == AUDIO:
            return AUDIO_CONCEPTS
        if stream == LOCATION:
            return self.locations
        raise VocabularyError(f"unknown stream type {stream!r}")

    def all_concepts(self) -> list[tuple[str, str]]:
        """(stream, concept) pairs in feature order: activity, audio, location."""
        out = []
        for stream in STREAMS:
            out.extend((stream, c) for c in self.concepts(stream))
        return out

    @cached_property
    def embedding_rows(self) -> dict[str, int]:
        """The row of each concept name in every embedding table of this
        vocabulary: the names in sorted order, each once, so a name that two
        streams share has one row. Day graphs store these rows."""
        return {n: i for i, n in enumerate(sorted({c for _, c in self.all_concepts()}))}

    @cached_property
    def concept_keys(self) -> tuple[tuple[str, str], ...]:
        """Every (stream, concept) pair, sorted. A concept's key is its position
        here: keys follow STREAMS, which is sorted, and then name order."""
        return tuple(sorted(self.all_concepts()))

    def feature_index(self, stream: str, concept: str) -> int:
        """Slot of (stream, concept) in the fixed 108-entry feature layout."""
        vocab = self.concepts(stream)
        if concept not in vocab:
            raise VocabularyError(f"{concept!r} not in {stream} vocabulary")
        i = vocab.index(concept)
        if stream == ACTIVITY:
            return i
        if stream == AUDIO:
            return 4 + i
        return 8 + i

    def digest(self) -> str:
        payload = json.dumps({s: list(self.concepts(s)) for s in STREAMS}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def save(self, path) -> None:
        doc = {"format": FORMAT_VERSION,
               ACTIVITY: list(ACTIVITY_CONCEPTS),
               AUDIO: list(AUDIO_CONCEPTS),
               LOCATION: list(self.locations)}
        write_text(path, json.dumps(doc, indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        doc = read_json(path, "vocabulary file", FORMAT_VERSION)
        if doc.get(ACTIVITY) != list(ACTIVITY_CONCEPTS):
            raise VocabularyError("activity vocabulary must be exactly "
                                  + ", ".join(ACTIVITY_CONCEPTS))
        if doc.get(AUDIO) != list(AUDIO_CONCEPTS):
            raise VocabularyError("audio vocabulary must be exactly "
                                  + ", ".join(AUDIO_CONCEPTS))
        return cls(locations=tuple(require(doc, LOCATION, list[str])))


@dataclass(frozen=True, order=True, slots=True)
class ConceptEvent:
    """One detected concept occurrence with [start, end) second timestamps."""

    start: int
    end: int
    stream: str
    concept: str

    def __post_init__(self):
        if self.start >= self.end:
            raise ValidationError(
                f"event start {self.start} not before end {self.end}")


def sort_events(events: list[ConceptEvent]) -> list[ConceptEvent]:
    return sorted(events, key=lambda e: (e.start, e.end, e.concept))


@dataclass(eq=False)
class DayPieces:
    """Every event clipped into each day it overlaps, as int64 columns sorted
    by (day, stream, start, end, key): within a day and a stream, the order of
    `sort_events`. Times are seconds after the day origin."""

    day: np.ndarray
    stream: np.ndarray          # position in STREAMS
    start: np.ndarray
    end: np.ndarray
    key: np.ndarray             # position in the concepts' sorted names


@dataclass(eq=False)
class ParsedLog:
    """A log's events as int64 columns, sorted by stream and then as
    `sort_events` orders them, with its ingest counters. An event's key is
    its concept's position in `Vocabulary.concept_keys`."""

    stream: np.ndarray          # position in STREAMS
    start: np.ndarray
    end: np.ndarray
    key: np.ndarray
    remapped_locations: int = 0
    deduplicated: int = 0

    @classmethod
    def from_rows(cls, rows, vocab: Vocabulary, remapped_locations: int = 0) -> "ParsedLog":
        """The log of `rows`, flat `key, start, end` int64 triples in any order;
        a repeated triple is kept once and counted in `deduplicated`."""
        key, start, end = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T
        stream = np.array([STREAMS.index(s) for s, _ in vocab.concept_keys],
                          dtype=np.int64)[key]
        order = np.lexsort((key, end, start, stream))
        stream, start, end, key = stream[order], start[order], end[order], key[order]
        # Equal rows are adjacent once sorted.
        keep = np.ones(key.size, dtype=bool)
        keep[1:] = (key[1:] != key[:-1]) | (start[1:] != start[:-1]) | (end[1:] != end[:-1])
        return cls(stream[keep], start[keep], end[keep], key[keep], remapped_locations,
                   int(keep.size - keep.sum()))

    @classmethod
    def from_events(cls, streams: dict[str, list[ConceptEvent]],
                    vocab: Vocabulary) -> "ParsedLog":
        """The log of events that are already checked, such as generated ones,
        as if written and parsed back; each concept must be in `vocab`."""
        keys = {name: k for k, name in enumerate(vocab.concept_keys)}
        return cls.from_rows([(keys[e.stream, e.concept], e.start, e.end)
                              for evs in streams.values() for e in evs], vocab)

    def day_span(self, day_origin: int = 0) -> int:
        """Number of days needed to cover every event (0 for no events, or when
        every event ends by `day_origin`)."""
        last = int(self.end.max()) if self.end.size else day_origin
        return max(0, -((day_origin - last) // SECONDS_PER_DAY))

    def before_origin(self, day_origin: int = 0) -> int:
        """Number of events that start before `day_origin`: the cut drops the
        part of each that lies before it."""
        # Timestamps lie within TIME_LIMIT of 0, so an origin clamped to int64
        # compares the same.
        origin = min(max(day_origin, -2 ** 63), 2 ** 63 - 1)
        return int(np.count_nonzero(self.start < origin))

    def cut(self, day_origin: int, days: int) -> DayPieces:
        """Days 0 .. `days` - 1 after `day_origin`, cut in one pass over the log.

        Each event lands, clipped, in every day it overlaps, so summed durations
        over days conserve total event time; the part before `day_origin` or past
        the last day falls in no day. More than `MAX_DAYS` days is an input error.
        """
        if days > MAX_DAYS:
            raise ValidationError(f"day {days - 1} after day origin {day_origin} is past "
                                  f"the {MAX_DAYS}-day limit")
        # An event within TIME_LIMIT of 0 can only reach these days from such
        # an origin, which fits in int64. Clipping every time to a day either
        # side of the cut changes no piece and keeps the differences in int64.
        if days <= 0 or not -TIME_LIMIT - days * SECONDS_PER_DAY < day_origin < TIME_LIMIT:
            return DayPieces(*(np.zeros(0, dtype=np.int64) for _ in range(5)))
        lo, hi = day_origin - SECONDS_PER_DAY, day_origin + (days + 1) * SECONDS_PER_DAY
        start = np.clip(self.start, lo, hi) - day_origin
        end = np.clip(self.end, lo, hi) - day_origin
        first = np.maximum(start // SECONDS_PER_DAY, 0)
        count = np.maximum(np.minimum((end - 1) // SECONDS_PER_DAY, days - 1) - first + 1, 0)
        event = np.repeat(np.arange(count.size), count)
        day = first[event] + np.arange(event.size) - (np.cumsum(count) - count)[event]
        midnight = day * SECONDS_PER_DAY
        start = np.maximum(start[event], midnight)
        end = np.minimum(end[event], midnight + SECONDS_PER_DAY)
        stream, key = self.stream[event], self.key[event]
        # A straddler's piece starts at midnight, where it can tie with or come
        # before the day's own events, so the pieces are sorted again.
        order = np.lexsort((key, end, start, stream, day))
        return DayPieces(day[order], stream[order], start[order], end[order], key[order])


# Per-line decoder: a key given twice in one line is an error, as in every
# JSON input (`schema._unique_keys`). One decoder serves every line, and a
# stripped line needs no whitespace skipped around its value.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_event_log(path, vocab: Vocabulary) -> ParsedLog:
    """Read, validate, deduplicate and sort a JSON-lines event log.

    Unknown location names map to the reserved `other-location` class (the
    remap count is reported); unknown activity/audio names are vocabulary
    errors because those vocabularies are closed.
    """
    keys: dict[str, dict[str, int]] = {s: {} for s in STREAMS}
    for k, (stream, concept) in enumerate(vocab.concept_keys):
        keys[stream][concept] = k
    other = keys[LOCATION][OTHER_LOCATION]
    rows = array("q")
    remapped = 0
    for lineno, line in enumerate(read_lines(path, "event log"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec, end = _DECODER.raw_decode(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", line=lineno) from e
        except (ValueError, RecursionError) as e:
            raise ParseError(f"invalid JSON: {e}", line=lineno) from None
        if end != len(line):
            raise ParseError("invalid JSON: Extra data", line=lineno)
        if not isinstance(rec, dict):
            raise ParseError("record is not an object", line=lineno)
        if "format" in rec and lineno == 1:
            if type(rec["format"]) is not int or rec["format"] != FORMAT_VERSION:
                raise ParseError(f"unsupported log format {rec['format']!r}", line=lineno)
            continue
        missing = {"stream", "concept", "start", "end"} - rec.keys()
        if missing:
            raise ParseError(f"missing fields {sorted(missing)}", line=lineno)
        stream, concept, start, end = rec["stream"], rec["concept"], rec["start"], rec["end"]
        if stream not in STREAMS:
            raise VocabularyError(f"line {lineno}: unknown stream type {stream!r}")
        if type(concept) is not str:
            raise ParseError("concept must be a string", line=lineno)
        if type(start) is not int or type(end) is not int:
            raise ParseError("start/end must be integer seconds", line=lineno)
        if start >= end:
            raise ValidationError(f"line {lineno}: start {start} not before end {end}")
        if start < -TIME_LIMIT or end > TIME_LIMIT:
            raise ValidationError(f"line {lineno}: start/end beyond +-{TIME_LIMIT} seconds")
        key = keys[stream].get(concept)
        if key is None:
            if stream != LOCATION:
                raise VocabularyError(
                    f"line {lineno}: {concept!r} not in {stream} vocabulary")
            key = other
            remapped += 1
        rows.extend((key, start, end))
    return ParsedLog.from_rows(rows, vocab, remapped)


def write_event_log(path, streams: dict[str, list[ConceptEvent]]) -> None:
    """Serialize per-stream events in canonical order; inverse of parsing."""
    lines = [json.dumps({"format": FORMAT_VERSION})]
    for s in STREAMS:
        for e in sort_events(streams.get(s, [])):
            lines.append(json.dumps(
                {"stream": e.stream, "concept": e.concept, "start": e.start, "end": e.end},
                sort_keys=True))
    write_text(path, "\n".join(lines) + "\n")
