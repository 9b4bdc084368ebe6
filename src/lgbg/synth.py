"""Deterministic generator of labeled multi-stream day logs.

Each scenario plants its class signal in exactly one mechanism the model can
exploit (plus one scenario that combines all three). Separating statistics,
implemented by `oracle_label` in `tests/reference.py`:

* node: classes differ only in how long they stay at their signature
  location, so the argmax of signature-location durations recovers the class;
  transition order and co-occurrence structure are class-independent.
* transition: every location is visited for the same total time and the same
  number of episodes in every class, but the class keeps alternating between
  the classroom and its signature location; the classroom<->signature
  consecutive-pair counts dominate every other pair and name the class.
* cooccurrence: locations, audio and activity each alternate hourly with
  identical durations and identical transition structure in every class; the
  class sets the phase of audio and activity relative to location, read back
  from which cross-stream pairs overlap.
* combined: all three signals agree; the node statistic suffices.

`subject_events` yields each subject's events, labels and grade once;
`generate` builds them into a `lgbg.dataset.Dataset`, and `lgbg synth`
writes them to a dataset directory without building a graph. Everything is
a pure function of the scenario seed, so rerunning the generator reproduces
byte-identical logs. Scenario spec files are read through `lgbg.schema`:
`format` must be 1, `mechanism` is required, and every other key must name
a `ScenarioSpec` field and have its type.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, SubjectRecord
from .errors import ValidationError
from .schema import build, read_json
from .streams import (ACTIVITY, AUDIO, LOCATION, MAX_DAYS, STREAMS, ConceptEvent,
                      SECONDS_PER_DAY, ParsedLog, Vocabulary, sort_events)

MECHANISMS = ("node", "transition", "cooccurrence", "combined")
MAX_SUBJECTS = 1000   # subject ids s000..s999
# Subject-days in one spec: 80x the acceptance workload's 40 x 30; at up to
# 3.3 kB of log per day, `lgbg synth` writes at most about 330 MB.
MAX_SUBJECT_DAYS = 100_000

SIGNATURES = ("dorm", "library", "gym", "cafe")   # class 0..3 signature locations
CYCLES = (
    ("dorm", "library", "gym", "cafe"),
    ("dorm", "gym", "cafe", "library"),
    ("dorm", "cafe", "library", "gym"),
    ("dorm", "library", "cafe", "gym"),
)
VOCAB = Vocabulary(locations=("cafe", "classroom", "dorm", "gym", "library"))

_H = 3600
_MARGIN = 300
_JITTER = 120


@dataclass
class ScenarioSpec:
    mechanism: str
    subjects: int = 8
    days: int = 15
    seed: int = 0
    noise: float = 0.0
    label_density: float = 1.0
    gpa: bool = False
    gpa_noise: float = 0.08

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValidationError(f"unknown scenario mechanism {self.mechanism!r}")
        if not 0.0 <= self.noise <= 1.0:
            raise ValidationError("noise must lie in [0, 1]")
        if self.subjects < 1 or self.days < 1:
            raise ValidationError("subjects and days must be positive")
        if self.subjects > MAX_SUBJECTS:
            raise ValidationError(f"subjects must be at most {MAX_SUBJECTS}")
        if self.days > MAX_DAYS:
            raise ValidationError(f"days must be at most {MAX_DAYS}, the longest "
                                  f"dataset lgbg reads")
        if self.subjects * self.days > MAX_SUBJECT_DAYS:
            raise ValidationError(f"subjects x days must be at most {MAX_SUBJECT_DAYS}")
        if self.seed < 0 or self.gpa_noise < 0:
            raise ValidationError("seed and gpa_noise must be >= 0")

    def to_dict(self) -> dict:
        return {"format": 1} | asdict(self)

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        doc = read_json(path, "scenario spec", 1)
        del doc["format"]
        return build(cls, doc, "scenario spec")


def _jit(rng) -> int:
    return int(rng.integers(-_JITTER, _JITTER + 1))


def _event(stream: str, concept: str, start: int, end: int) -> ConceptEvent:
    return ConceptEvent(stream=stream, concept=concept, start=start, end=end)


def _backdrop(base: int, lo_h: int, hi_h: int) -> list[ConceptEvent]:
    return [_event(AUDIO, "silence", base + lo_h * _H, base + hi_h * _H),
            _event(ACTIVITY, "stationary", base + lo_h * _H, base + hi_h * _H)]


def _node_day(rng, cls: int, base: int) -> list[ConceptEvent]:
    events = _backdrop(base, 8, 17)
    t = base + 8 * _H
    for loc in sorted(SIGNATURES):
        dur = 6 * _H if loc == SIGNATURES[cls] else _H
        events.append(_event(LOCATION, loc, t + _MARGIN + _jit(rng),
                             t + dur - _MARGIN + _jit(rng)))
        t += dur
    return events


def _transition_day(rng, cls: int, base: int) -> list[ConceptEvent]:
    # 6 classroom<->signature alternations, then 6 back-to-back episodes of
    # each remaining location: every location totals 3 h over 6 episodes in
    # every class, so only the transition structure carries the class.
    sig = SIGNATURES[cls]
    sequence = []
    for _ in range(6):
        sequence += ["classroom", sig]
    for loc in sorted(set(SIGNATURES) - {sig}):
        sequence += [loc] * 6
    events = _backdrop(base, 8, 23)
    t = base + 8 * _H
    for loc in sequence:
        events.append(_event(LOCATION, loc, t + 150 + _jit(rng),
                             t + 30 * 60 - 150 + _jit(rng)))
        t += 30 * 60
    return events


def _cooccurrence_slots(rng, cls: int, base: int, first_h: int = 8,
                        slots: int = 12) -> list[ConceptEvent]:
    phase_audio, phase_activity = cls >> 1, cls & 1
    events = []
    for s in range(slots):
        lo = base + (first_h + s) * _H
        hi = lo + _H
        for stream, concept in (
                (LOCATION, "dorm" if s % 2 == 0 else "library"),
                (AUDIO, "voice" if (s + phase_audio) % 2 == 0 else "silence"),
                (ACTIVITY, "walking" if (s + phase_activity) % 2 == 0 else "stationary")):
            events.append(_event(stream, concept, lo + _MARGIN + _jit(rng),
                                 hi - _MARGIN + _jit(rng)))
    return events


def _combined_day(rng, cls: int, base: int) -> list[ConceptEvent]:
    events = [_event(LOCATION, SIGNATURES[cls], base + _H + _jit(rng),
                     base + 7 * _H + _jit(rng))]
    events += _backdrop(base, 1, 7)
    events += _cooccurrence_slots(rng, cls, base)
    t = base + 20 * _H + 30 * 60
    for loc in CYCLES[cls]:
        events.append(_event(LOCATION, loc, t + _MARGIN + _jit(rng),
                             t + 45 * 60 - _MARGIN + _jit(rng)))
        t += 45 * 60
    return events


_DAY_BUILDERS = {"node": _node_day, "transition": _transition_day,
                 "cooccurrence": _cooccurrence_slots, "combined": _combined_day}


def subject_events(spec: ScenarioSpec) -> Iterator[
        tuple[str, dict[str, list[ConceptEvent]], dict[int, int], float | None]]:
    """Each subject's id, streams, day labels and grade (None without
    `spec.gpa`), in id order."""
    build = _DAY_BUILDERS[spec.mechanism]
    for idx in range(spec.subjects):
        rng = np.random.default_rng([spec.seed, idx])
        trait = float(rng.uniform(0.05, 0.95))
        events: list[ConceptEvent] = []
        labels: dict[int, int] = {}
        classes: list[int] = []
        for day in range(spec.days):
            if spec.gpa:
                cls = int(rng.binomial(3, trait))
            else:
                cls = int(rng.integers(4))
            classes.append(cls)
            events.extend(build(rng, cls, day * SECONDS_PER_DAY))
            labeled = rng.random() < spec.label_density
            noisy = rng.random() < spec.noise
            if labeled:
                labels[day] = int(rng.integers(4)) if noisy else cls
        streams = {s: sort_events([e for e in events if e.stream == s]) for s in STREAMS}
        gpa = None
        if spec.gpa:
            mean_cls = float(np.mean(classes))
            gpa = float(np.clip(0.4 + 3.4 * mean_cls / 3.0
                                + rng.normal(0.0, spec.gpa_noise), 0.0, 4.0))
        yield f"s{idx:03d}", streams, labels, gpa


def generate(spec: ScenarioSpec) -> Dataset:
    """The dataset of `spec`: every subject's day graphs, labels and grade."""
    return Dataset(vocab=VOCAB, subjects=[
        SubjectRecord.from_log(subject, ParsedLog.from_events(streams, VOCAB), labels, gpa,
                               VOCAB)
        for subject, streams, labels, gpa in subject_events(spec)])
