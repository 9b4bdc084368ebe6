"""The one dataset type and its on-disk layout.

A `Dataset` is made by `load_dataset` from a directory and by
`synth.generate` from a scenario spec, and in both cases each subject is a
`SubjectRecord` built from its event columns by `SubjectRecord.from_log`. A
dataset directory holds `dataset.json` (the manifest), `vocab.json` and one
JSON-lines event log per subject under `logs/`; `write_dataset` writes one
from subjects' events. The manifest lists subjects with their per-day labels
(and grade when present) so training, evaluation and the grade task all read
the same structure. The manifest is read through `lgbg.schema`: `subjects`
must be a list of objects, each with an `id` and a `log` string, label days
must be decimal day indices, each day once per subject ("7" and "07" are the
same day), and label classes integers, `gpa` must be a number and
`day_origin` an integer.

The model reads a subject only through its day graphs, so a record keeps
those and not the events: `load_dataset` parses each log, builds its day
graphs and drops it, with its ingest counters kept. A subject's days without
an event share one empty graph, so a stray late event costs no object per
day between. `samples(span, table)`
assembles samples of any span from the stored graphs, and every call shares
them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError
from .graphs import GlobalSample, LocalContextGraph, build_days, span_samples
from .schema import read_json, require, write_text
from .streams import ParsedLog, Vocabulary, parse_event_log, write_event_log

MANIFEST = "dataset.json"
VOCAB_FILE = "vocab.json"


@dataclass
class SubjectRecord:
    """One subject's labels, grade and day graphs, with its event log's
    ingest counters (0 for generated events)."""

    subject: str
    labels: dict[int, int]
    gpa: float | None
    days: list[LocalContextGraph]
    remapped_locations: int = 0
    deduplicated: int = 0
    before_origin: int = 0

    @classmethod
    def from_log(cls, subject: str, log: ParsedLog, labels: dict[int, int],
                 gpa: float | None, vocab: Vocabulary,
                 day_origin: int = 0) -> "SubjectRecord":
        """The record of `log`: the graphs of days 0 through its last day with
        an event or a label, cut at `day_origin`. The days without an event
        share one empty graph, whose `day_index` is the first of them."""
        n_days = max(log.day_span(day_origin), max(labels, default=-1) + 1)
        graphs = {g.day_index: g for g in build_days(log, vocab, n_days, day_origin)}
        days, empty = [], None
        for d in range(n_days):
            graph = graphs.get(d)
            if graph is None:
                graph = empty = empty or LocalContextGraph(d)
            days.append(graph)
        return cls(subject, labels, gpa, days, log.remapped_locations, log.deduplicated,
                   log.before_origin(day_origin))


@dataclass
class Dataset:
    vocab: Vocabulary
    subjects: list[SubjectRecord]
    day_origin: int = 0  # the origin every record's days are cut at

    def samples(self, span: int, table) -> list[GlobalSample]:
        """Every subject's samples of `span` days; `table` must have the rows
        the graphs gather (`EmbeddingTable.check_rows`)."""
        table.check_rows(self.vocab)
        out = []
        for rec in self.subjects:
            out.extend(span_samples(rec.days, rec.labels, span, rec.subject))
        return out


def write_dataset(out_dir, vocab: Vocabulary, subjects, day_origin: int = 0,
                  scenario: dict | None = None) -> dict:
    """Write a dataset directory and return its manifest. `subjects` yields
    `(id, streams, labels, gpa)` per subject, and each log is written as it
    comes; `scenario` is the generating spec's dict, echoed in the manifest."""
    out = Path(out_dir)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    vocab.save(out / VOCAB_FILE)
    entries = []
    for subject, streams, labels, gpa in subjects:
        log_rel = f"logs/{subject}.jsonl"
        write_event_log(out / log_rel, streams)
        entry = {"id": subject, "log": log_rel,
                 "labels": {str(d): c for d, c in sorted(labels.items())}}
        if gpa is not None:
            entry["gpa"] = gpa
        entries.append(entry)
    manifest = {"format": 1, "day_origin": day_origin, "scenario": scenario,
                "subjects": entries}
    write_text(out / MANIFEST, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def load_dataset(path) -> Dataset:
    """The dataset at `path`. Each subject's log is parsed and built into day
    graphs in turn, and its events are then dropped."""
    root = Path(path)
    manifest = read_json(root / MANIFEST, "dataset manifest", 1)
    vocab = Vocabulary.load(root / VOCAB_FILE)
    day_origin = require(manifest, "day_origin", int, 0)
    subjects = []
    for entry in require(manifest, "subjects", list[dict]):
        labels = require(entry, "labels", dict[str, int], {})
        for day in labels:
            if not (day.isascii() and day.isdigit()):
                raise ParseError(f"label day {day!r} is not a day index")
        subject = require(entry, "id", str)
        if any(rec.subject == subject for rec in subjects):
            raise ValidationError(f"subject id {subject!r} is listed twice")
        labeled: dict[int, int] = {}
        for day, cls in labels.items():
            if int(day) in labeled:
                raise ValidationError(f"subject {subject!r} labels day {int(day)} twice")
            labeled[int(day)] = cls
        subjects.append(SubjectRecord.from_log(
            subject, parse_event_log(root / require(entry, "log", str), vocab), labeled,
            require(entry, "gpa", float, None), vocab, day_origin))
    return Dataset(vocab=vocab, subjects=subjects, day_origin=day_origin)
