"""A dataset holds day graphs, not events: a loaded one must give the
samples and grades its generating dataset gives, keep its logs' ingest
counters, refuse an embedding table whose rows its graphs would misread,
and stay smaller than its parsed events."""

import json
import time
import tracemalloc

import numpy as np
import pytest

from lgbg import training
from lgbg.cli import main
from lgbg.config import TrainConfig
from lgbg.dataset import load_dataset, write_dataset
from lgbg.embeddings import EmbeddingTable
from lgbg.errors import EmbeddingError
from lgbg.metrics import knn_regress_loo
from lgbg.model import Model
from lgbg.streams import AUDIO, LOCATION, SECONDS_PER_DAY, ParsedLog, parse_event_log
from lgbg.synth import VOCAB, ScenarioSpec, subject_events
from lgbg.training import grade_regression

from conftest import ev, events_dataset

ORIGIN = 3 * 3600


@pytest.fixture
def written(tmp_path):
    """A generated dataset with a day origin and grades, and its directory."""
    spec = ScenarioSpec(mechanism="combined", subjects=3, days=7, seed=11,
                        label_density=0.7, gpa=True)
    write_dataset(tmp_path / "data", VOCAB, subject_events(spec), ORIGIN)
    return events_dataset(VOCAB, subject_events(spec), ORIGIN), tmp_path / "data"


def _key(sample):
    return (sample.subject, sample.anchor_day, sample.label)


def test_loaded_samples_equal_generated_samples(written, small_config):
    dataset, root = written
    loaded = load_dataset(root)
    table = EmbeddingTable.fallback(dataset.vocab, small_config.d, small_config.seed)
    for span in (1, 3, 5):
        want = dataset.samples(span, table)
        got = loaded.samples(span, table)
        assert want and [_key(s) for s in got] == [_key(s) for s in want]
        for a, b in zip(want, got):
            assert [g.dump_json() for g in a.graphs] == [g.dump_json() for g in b.graphs]
        model = Model(small_config.replace(span=span), table, dataset.vocab.digest())
        for a, b in zip(model.forward_all(want), model.forward_all(got)):
            assert np.array_equal(a.probs.data, b.probs.data)


def test_samples_of_two_spans_share_the_stored_graphs(written, small_table):
    _, root = written
    loaded = load_dataset(root)
    first = loaded.samples(3, small_table)
    second = loaded.samples(2, small_table)
    assert first and second and all(len(s.graphs) == 2 for s in second)
    days = {(s.subject, g.day_index): g for s in first for g in s.graphs}
    for s in second:
        for g in s.graphs:
            assert days.get((s.subject, g.day_index), g) is g


def test_ingest_counters_equal_build_graph_counters(tmp_path):
    root = tmp_path / "data"
    write_dataset(root, VOCAB, subject_events(ScenarioSpec(mechanism="node", subjects=1,
                                                           days=3, seed=2)), ORIGIN)
    log = root / "logs" / "s000.jsonl"
    lines = log.read_text().splitlines()
    lines += [lines[1], lines[2], lines[1],
              json.dumps({"stream": "location", "concept": "harbour", "start": 10,
                          "end": 20}),
              json.dumps({"stream": "location", "concept": "pier", "start": 90000,
                          "end": 90060})]
    log.write_text("\n".join(lines) + "\n")
    assert main(["build-graph", "--log", str(log), "--vocab", str(root / "vocab.json"),
                 "--day-origin", str(ORIGIN), "--out", str(tmp_path / "graphs")]) == 0
    index = json.loads((tmp_path / "graphs" / "graphs.json").read_text())
    (rec,) = load_dataset(root).subjects
    counters = (rec.remapped_locations, rec.deduplicated, rec.before_origin)
    assert counters == (index["remapped_locations"], index["deduplicated"],
                        index["before_origin"])
    assert counters[:2] == (2, 3) and counters[2] >= 1


def _reordered(table: EmbeddingTable, order) -> EmbeddingTable:
    return EmbeddingTable([table.names[i] for i in order], table.vectors[order],
                          table.source)


def test_table_in_another_order_or_missing_a_concept_is_refused(written, small_table):
    dataset, root = written
    n = len(small_table.names)
    swapped = _reordered(small_table, [1, 0] + list(range(2, n)))
    short = _reordered(small_table, list(range(n - 1)))
    for data in (dataset, load_dataset(root)):
        with pytest.raises(EmbeddingError, match="row"):
            data.samples(3, swapped)
        with pytest.raises(EmbeddingError, match=repr(small_table.names[-1])):
            data.samples(3, short)


@pytest.mark.parametrize("order", ["swapped", "short"])
def test_eval_checkpoint_with_reordered_or_short_table_exits_2(written, tmp_path, capsys,
                                                               order):
    dataset, root = written
    config = TrainConfig(d=8, de=6, dp=10, layers=1)
    table = EmbeddingTable.fallback(dataset.vocab, config.d, config.seed)
    n = len(table.names)
    table = _reordered(table, [1, 0] + list(range(2, n)) if order == "swapped"
                       else list(range(n - 1)))
    Model(config, table, dataset.vocab.digest()).save(tmp_path / "ckpt.json")
    capsys.readouterr()
    assert main(["eval", "--data", str(root), "--out", str(tmp_path / "out"),
                 "--checkpoint", str(tmp_path / "ckpt.json"), "--splits", "2"]) == 2
    err = capsys.readouterr().err
    want = ("error: embedding table orders its concepts otherwise" if order == "swapped"
            else "error: no embedding for concept")
    assert err.startswith(want) and err.count("\n") == 1, err


def _dense_cohort(subjects: int, days: int, per_day: int):
    """Subjects whose days hold many short events over two concepts per
    stream: their parsed logs grow with the events, their day graphs only
    with the concepts, so the logs outweigh the graphs."""
    for idx in range(subjects):
        streams = {AUDIO: [], LOCATION: []}
        for day in range(days):
            for i in range(per_day):
                start = day * SECONDS_PER_DAY + 60 * i + idx
                streams[AUDIO].append(ev(AUDIO, ("voice", "noise")[i % 2], start, start + 50))
                streams[LOCATION].append(ev(LOCATION, ("library", "cafe")[i % 3 // 2],
                                            start + 20, start + 70))
        yield f"s{idx:03d}", streams, {d: d % 4 for d in range(days)}, None


def test_load_peak_stays_below_the_parsed_events(tmp_path):
    """The dataset keeps day graphs and drops each subject's parsed log once
    its graphs are built, so loading never holds every subject's parsed log
    at once, and no record holds a log."""
    root = tmp_path / "data"
    write_dataset(root, VOCAB, _dense_cohort(subjects=16, days=2, per_day=600))
    vocab = load_dataset(root).vocab
    tracemalloc.start()
    try:
        parsed = [parse_event_log(p, vocab) for p in sorted((root / "logs").glob("*"))]
        held = tracemalloc.get_traced_memory()[0]
        del parsed
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        data = load_dataset(root)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(data.subjects) == 16
    assert not any(isinstance(v, ParsedLog) for rec in data.subjects
                   for v in vars(rec).values())
    assert peak < held, (peak, held)


def test_grade_of_loaded_dataset_equals_grade_of_generated(tmp_path, monkeypatch):
    """Grade reads day graphs, so a dataset read back from disk grades as the
    generated one does, to the bit. s000's labels run past its log's last
    day, and s001's log runs past its last label."""
    features = []

    def knn(feats, gpas, k):
        features.append(feats)
        return knn_regress_loo(feats, gpas, k=k)
    monkeypatch.setattr(training, "knn_regress_loo", knn)
    cohort = list(subject_events(ScenarioSpec(mechanism="transition", subjects=6, days=6,
                                              seed=9, gpa=True)))
    subject, streams, labels, gpa = cohort[0]
    cohort[0] = (subject, streams, labels | {7: 1, 9: 2}, gpa)
    subject, streams, labels, gpa = cohort[1]
    cohort[1] = (subject, streams, {d: c for d, c in labels.items() if d < 3}, gpa)
    write_dataset(tmp_path, VOCAB, cohort, ORIGIN)
    loaded = load_dataset(tmp_path)
    assert [len(rec.days) for rec in loaded.subjects[:2]] == [10, 6]
    config = TrainConfig(d=8, de=6, dp=10, layers=2, span=3, seed=9)
    model = Model(config, EmbeddingTable.fallback(VOCAB, config.d, config.seed),
                  VOCAB.digest())
    want = grade_regression(model, events_dataset(VOCAB, cohort, ORIGIN), config)
    got = grade_regression(model, loaded, config)
    assert len(features) == 4
    for generated, read_back in zip(features[:2], features[2:]):
        assert np.array_equal(generated, read_back)
    assert got.graph.predictions == want.graph.predictions
    assert got.handcrafted.predictions == want.handcrafted.predictions
    assert got == want and not got.skipped


def test_empty_days_share_one_graph(tmp_path):
    """One stray event on day 30000 in each log of a 4 x 6 dataset used to
    make the load build a graph object for every day between: 120,004 of
    them, in 1.88 s of CPU. The days without an event now share one empty
    graph per subject, and the load takes a small part of that time."""
    far = 30000 * SECONDS_PER_DAY
    cohort = list(subject_events(ScenarioSpec(mechanism="combined", subjects=4, days=6,
                                              seed=1)))
    for _, streams, _, _ in cohort:
        streams[AUDIO].append(ev(AUDIO, "voice", far + 100, far + 200))
    write_dataset(tmp_path, VOCAB, cohort)
    started = time.process_time()
    data = load_dataset(tmp_path)
    elapsed = time.process_time() - started
    for rec in data.subjects:
        assert len(rec.days) == 30001
        non_empty = sum(not g.is_empty() for g in rec.days)
        assert non_empty == 7
        assert len({id(g) for g in rec.days}) <= non_empty + 1
    assert elapsed < 1.0, elapsed
