from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from lgbg.config import TrainConfig
from lgbg.dataset import Dataset, SubjectRecord
from lgbg.embeddings import EmbeddingTable
from lgbg.graphs import LocalContextGraph, build_days
from lgbg.streams import STREAMS, ConceptEvent, ParsedLog, Vocabulary

from reference import DayWindow, day_windows

# Mutated input files driven through the CLI (tests/test_cli.py): the same
# examples on every run, each a few CLI calls long.
settings.register_profile("input-fuzz", derandomize=True, deadline=None, max_examples=1000)
# Pure functions checked against a reference: the same examples on every run.
settings.register_profile("derandomized", derandomize=True, deadline=None, max_examples=300)


@pytest.fixture
def vocab() -> Vocabulary:
    return Vocabulary(locations=("cafe", "classroom", "dorm", "gym", "library"))


@pytest.fixture
def small_config() -> TrainConfig:
    return TrainConfig(d=8, de=6, dp=10, layers=2, span=3, seed=3)


@pytest.fixture
def small_table(vocab, small_config) -> EmbeddingTable:
    return EmbeddingTable.fallback(vocab, small_config.d, small_config.seed)


def ev(stream: str, concept: str, start: int, end: int) -> ConceptEvent:
    return ConceptEvent(stream=stream, concept=concept, start=start, end=end)


def one_day(streams, day: int = 0) -> DayWindow:
    """Window `day` of `streams`, days counted from origin 0, cut by the
    per-event reference."""
    return day_windows(streams, 0, day + 1)[day]


def day_graph(streams, vocab: Vocabulary, day: int = 0) -> LocalContextGraph:
    """The graph of day `day` of `streams`, days counted from origin 0, as
    `lgbg` builds it."""
    graphs = build_days(ParsedLog.from_events(streams, vocab), vocab, day + 1)
    return next((g for g in graphs if g.day_index == day), LocalContextGraph(day))


def events_of(log: ParsedLog, vocab: Vocabulary) -> dict[str, list[ConceptEvent]]:
    """`log`'s events as objects, per stream in column order."""
    out = {s: [] for s in STREAMS}
    for k, start, end in zip(log.key.tolist(), log.start.tolist(), log.end.tolist()):
        stream, concept = vocab.concept_keys[k]
        out[stream].append(ConceptEvent(start=start, end=end, stream=stream, concept=concept))
    return out


def cut_windows(streams, vocab: Vocabulary, day_origin: int, days: int) -> list[DayWindow]:
    """`ParsedLog.cut`'s pieces of `streams` as per-day event lists."""
    pieces = ParsedLog.from_events(streams, vocab).cut(day_origin, days)
    windows = [DayWindow(d, {s: [] for s in STREAMS}) for d in range(days)]
    for d, k, start, end in zip(pieces.day.tolist(), pieces.key.tolist(),
                                pieces.start.tolist(), pieces.end.tolist()):
        stream, concept = vocab.concept_keys[k]
        windows[d].streams[stream].append(ConceptEvent(
            start=start + day_origin, end=end + day_origin, stream=stream, concept=concept))
    return windows


def random_events(rng: np.random.Generator, stream: str, concepts, n: int,
                  horizon: int = 86400, max_len: int = 7200):
    """n random valid events of one stream within [0, horizon)."""
    events = []
    for _ in range(n):
        start = int(rng.integers(0, horizon - 2))
        end = int(start + rng.integers(1, max_len))
        events.append(ev(stream, str(rng.choice(concepts)), start, min(end, horizon - 1)))
    return events


def events_dataset(vocab: Vocabulary, subjects, day_origin: int = 0) -> Dataset:
    """The dataset of `(id, streams, labels, gpa)` subjects, as `synth.generate`
    makes it from `synth.subject_events`, with days cut at `day_origin`."""
    return Dataset(vocab, [SubjectRecord.from_log(subject, ParsedLog.from_events(streams, vocab),
                                                  labels, gpa, vocab, day_origin)
                           for subject, streams, labels, gpa in subjects], day_origin)
