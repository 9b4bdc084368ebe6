"""Concept event streams: vocabularies, log ingestion, day windows.

Event logs are UTF-8 JSON lines. The first line is a header `{"format": 1}`;
every following line is one record
`{"stream": "activity|audio|location", "concept": "<name>", "start": <int s>, "end": <int s>}`.
The vocabulary file is a single JSON object
`{"format": 1, "activity": [...], "audio": [...], "location": [...]}`.
Both are read through `lgbg.schema`, so a file that is missing, not UTF-8 or
not JSON, a wrong `format`, a `concept` that is not a string, a `start` or
`end` that is not an integer (a bool is not), and a `location` that is not a
list of strings are all input errors.

A log becomes days in one pass: `day_windows` clips every event into each
day it overlaps, at most `MAX_DAYS` days after the day origin, so a timestamp
far in the future is an input error rather than billions of empty windows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import ParseError, ValidationError, VocabularyError
from .schema import read_json, read_lines, require, write_text

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
# Day windows are allocated up front: at most a century after the day origin.
MAX_DAYS = 36525
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

    def contains(self, stream: str, concept: str) -> bool:
        return concept in self.concepts(stream)

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

    @property
    def seconds(self) -> int:
        return self.end - self.start


@dataclass
class ParsedLog:
    """Per-stream event lists plus ingestion counters."""

    streams: dict[str, list[ConceptEvent]]
    remapped_locations: int = 0
    deduplicated: int = 0


def sort_events(events: list[ConceptEvent]) -> list[ConceptEvent]:
    return sorted(events, key=lambda e: (e.start, e.end, e.concept))


def parse_event_log(path, vocab: Vocabulary) -> ParsedLog:
    """Read, validate, deduplicate and sort a JSON-lines event log.

    Unknown location names map to the reserved `other-location` class (the
    remap count is reported); unknown activity/audio names are vocabulary
    errors because those vocabularies are closed.
    """
    streams: dict[str, list[ConceptEvent]] = {s: [] for s in STREAMS}
    seen: set[tuple] = set()
    remapped = 0
    deduped = 0
    for lineno, line in enumerate(read_lines(path, "event log"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", line=lineno) from e
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
        if not vocab.contains(stream, concept):
            if stream == LOCATION:
                concept = OTHER_LOCATION
                remapped += 1
            else:
                raise VocabularyError(
                    f"line {lineno}: {concept!r} not in {stream} vocabulary")
        key = (stream, concept, start, end)
        if key in seen:
            deduped += 1
            continue
        seen.add(key)
        streams[stream].append(
            ConceptEvent(start=start, end=end, stream=stream, concept=concept))
    for s in STREAMS:
        streams[s] = sort_events(streams[s])
    return ParsedLog(streams=streams, remapped_locations=remapped, deduplicated=deduped)


def write_event_log(path, streams: dict[str, list[ConceptEvent]]) -> None:
    """Serialize per-stream events in canonical order; inverse of parsing."""
    lines = [json.dumps({"format": FORMAT_VERSION})]
    for s in STREAMS:
        for e in sort_events(streams.get(s, [])):
            lines.append(json.dumps(
                {"stream": e.stream, "concept": e.concept, "start": e.start, "end": e.end},
                sort_keys=True))
    write_text(path, "\n".join(lines) + "\n")


@dataclass
class DayWindow:
    """One day's [start, end) slice of every stream, with straddlers clipped."""

    day_index: int
    streams: dict[str, list[ConceptEvent]] = field(default_factory=dict)

    def events(self, stream: str) -> list[ConceptEvent]:
        return self.streams.get(stream, [])


def day_windows(streams: dict[str, list[ConceptEvent]], day_origin: int,
                days: int) -> list[DayWindow]:
    """Windows for days 0 .. `days` - 1 after `day_origin`, cut in one pass.

    Each event lands, clipped, in every day it overlaps, so summed durations
    over days conserve total event time; the part before `day_origin` or past
    the last day falls in no window. More than `MAX_DAYS` days is an input error.
    """
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
    # Sorted per day: streams may come in any order, and clipping moves a straddler's
    # start to midnight, where it can tie with or follow an event that starts there.
    return [DayWindow(d, {s: sort_events(v) for s, v in window.items()})
            for d, window in enumerate(cut)]


def day_span(streams: dict[str, list[ConceptEvent]], day_origin: int = 0) -> int:
    """Number of day windows needed to cover every event (0 for no events,
    or when every event ends by `day_origin`)."""
    last = max((e.end for evs in streams.values() for e in evs), default=day_origin)
    return max(0, -((day_origin - last) // SECONDS_PER_DAY))


def before_origin(streams: dict[str, list[ConceptEvent]], day_origin: int = 0) -> int:
    """Number of events that start before `day_origin`: day windows drop the
    part of each that lies before it."""
    return sum(e.start < day_origin for evs in streams.values() for e in evs)
