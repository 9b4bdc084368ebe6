"""The one dataset type and its on-disk layout.

A `Dataset` is made by `load_dataset` from a directory and by
`synth.generate` from a scenario spec. A dataset directory holds
`dataset.json` (the manifest), `vocab.json` and one JSON-lines event log per
subject under `logs/`. The manifest lists subjects with their per-day labels
(and grade when present) so training, evaluation and the grade task all read
the same structure. The manifest is read through `lgbg.schema`: `subjects`
must be a list of objects, each with an `id` and a `log` string, label days
must be decimal day indices, each day once per subject ("7" and "07" are the
same day), and label classes integers, `gpa` must be a number and
`day_origin` an integer.

The model reads a subject only through its day graphs, so `load_dataset`
keeps those and not the events: each log is parsed, cut into days and built
into the graphs of days 0 through the subject's last labeled day, then
dropped, with its ingest counters kept. `samples(span, table)` assembles
samples of any span from the stored graphs, and every call shares them. A
generated dataset keeps its events, which `write_dataset` writes, and
`samples` builds its day graphs from them with the same `build_days`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, ValidationError
from .graphs import GlobalSample, LocalContextGraph, build_days, span_samples
from .schema import read_json, require, write_text
from .streams import (ConceptEvent, Vocabulary, before_origin, parse_event_log,
                      write_event_log)

MANIFEST = "dataset.json"
VOCAB_FILE = "vocab.json"


@dataclass
class SubjectRecord:
    """One subject's labels and grade, with either its events (`streams`,
    when generated) or its day graphs (`days`, when loaded), never both.

    `days` holds the graphs of days 0 through the last labeled day. The
    counters are those of the subject's event log, and stay 0 when generated.
    """

    subject: str
    streams: dict[str, list[ConceptEvent]] | None
    labels: dict[int, int] = field(default_factory=dict)
    gpa: float | None = None
    days: list[LocalContextGraph] | None = None
    remapped_locations: int = 0
    deduplicated: int = 0
    before_origin: int = 0

    def day_graphs(self, vocab: Vocabulary, day_origin: int) -> list[LocalContextGraph]:
        """The stored day graphs, or those that `build_days` makes of the events."""
        if self.streams is None:
            return self.days
        return build_days(self.streams, max(self.labels, default=-1) + 1, vocab,
                          day_origin)


@dataclass
class Dataset:
    vocab: Vocabulary
    subjects: list[SubjectRecord]
    day_origin: int = 0
    scenario: dict | None = None  # the generating spec's dict; None when loaded

    def samples(self, span: int, table) -> list[GlobalSample]:
        """Every subject's samples of `span` days; `table` must have the rows
        the graphs gather (`EmbeddingTable.check_rows`)."""
        table.check_rows(self.vocab)
        out = []
        for rec in self.subjects:
            out.extend(span_samples(rec.day_graphs(self.vocab, self.day_origin),
                                    rec.labels, span, rec.subject))
        return out


def write_dataset(dataset: Dataset, out_dir) -> Path:
    out = Path(out_dir)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    dataset.vocab.save(out / VOCAB_FILE)
    subjects = []
    for rec in dataset.subjects:
        if rec.streams is None:
            raise ValidationError(f"subject {rec.subject!r} holds day graphs, "
                                  f"not the events a dataset directory stores")
        log_rel = f"logs/{rec.subject}.jsonl"
        write_event_log(out / log_rel, rec.streams)
        entry = {"id": rec.subject, "log": log_rel,
                 "labels": {str(d): c for d, c in sorted(rec.labels.items())}}
        if rec.gpa is not None:
            entry["gpa"] = rec.gpa
        subjects.append(entry)
    manifest = {"format": 1, "day_origin": dataset.day_origin,
                "scenario": dataset.scenario, "subjects": subjects}
    write_text(out / MANIFEST, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def load_dataset(path) -> Dataset:
    """The dataset at `path`. Each subject's log is parsed, cut into days and
    built into day graphs in turn, and its events are then dropped."""
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
        parsed = parse_event_log(root / require(entry, "log", str), vocab)
        subjects.append(SubjectRecord(
            subject=subject, streams=None, labels=labeled,
            gpa=require(entry, "gpa", float, None),
            days=build_days(parsed.streams, max(labeled, default=-1) + 1, vocab,
                            day_origin),
            remapped_locations=parsed.remapped_locations,
            deduplicated=parsed.deduplicated,
            before_origin=before_origin(parsed.streams, day_origin)))
    return Dataset(vocab=vocab, subjects=subjects, day_origin=day_origin)
