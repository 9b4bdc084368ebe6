"""The one dataset type and its on-disk layout.

A `Dataset` is made by `load_dataset` from a directory and by
`synth.generate` from a scenario spec; `write_dataset` writes either. A
dataset directory holds `dataset.json` (the manifest), `vocab.json` and one
JSON-lines event log per subject under `logs/`. The manifest lists subjects
with their per-day labels (and grade when present) so training, evaluation
and the grade task all read the same structure. The manifest is read
through `lgbg.schema`: `subjects` must be a list of objects, each with an
`id` and a `log` string, label days must be decimal day indices, each day
once per subject ("7" and "07" are the same day), and label classes
integers, `gpa` must be a number and `day_origin` an integer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, ValidationError
from .graphs import GlobalSample, build_samples
from .schema import read_json, require, write_text
from .streams import (ConceptEvent, Vocabulary, parse_event_log, write_event_log)

MANIFEST = "dataset.json"
VOCAB_FILE = "vocab.json"


@dataclass
class SubjectRecord:
    subject: str
    streams: dict[str, list[ConceptEvent]]
    labels: dict[int, int] = field(default_factory=dict)
    gpa: float | None = None


@dataclass
class Dataset:
    vocab: Vocabulary
    subjects: list[SubjectRecord]
    day_origin: int = 0
    scenario: dict | None = None  # the generating spec's dict; None when loaded

    def samples(self, span: int, table) -> list[GlobalSample]:
        out = []
        for rec in self.subjects:
            out.extend(build_samples(rec.streams, rec.labels, span, self.vocab,
                                     table, subject=rec.subject,
                                     day_origin=self.day_origin))
        return out


def write_dataset(dataset: Dataset, out_dir) -> Path:
    out = Path(out_dir)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    dataset.vocab.save(out / VOCAB_FILE)
    subjects = []
    for rec in dataset.subjects:
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
    root = Path(path)
    manifest = read_json(root / MANIFEST, "dataset manifest", 1)
    vocab = Vocabulary.load(root / VOCAB_FILE)
    subjects = []
    for entry in require(manifest, "subjects", list[dict]):
        labels = require(entry, "labels", dict[str, int], {})
        for day in labels:
            if not (day.isascii() and day.isdigit()):
                raise ParseError(f"label day {day!r} is not a day index")
        subject = require(entry, "id", str)
        if any(rec.subject == subject for rec in subjects):
            raise ValidationError(f"subject id {subject!r} is listed twice")
        days: dict[int, int] = {}
        for day, cls in labels.items():
            if int(day) in days:
                raise ValidationError(f"subject {subject!r} labels day {int(day)} twice")
            days[int(day)] = cls
        parsed = parse_event_log(root / require(entry, "log", str), vocab)
        subjects.append(SubjectRecord(subject=subject, streams=parsed.streams,
                                      labels=days, gpa=require(entry, "gpa", float, None)))
    return Dataset(vocab=vocab, subjects=subjects,
                   day_origin=require(manifest, "day_origin", int, 0))
