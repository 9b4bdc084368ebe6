import json

import numpy as np
import pytest

from lgbg.dataset import load_dataset, write_dataset
from lgbg.embeddings import EmbeddingTable
from lgbg.config import TrainConfig
from lgbg.errors import ValidationError
from lgbg.streams import parse_event_log, write_event_log
from lgbg.synth import MECHANISMS, VOCAB, ScenarioSpec, generate, subject_events
from lgbg.training import run_protocol

from conftest import events_dataset, events_of, one_day
from reference import behavior_feature, oracle_label


def test_rejects_unknown_mechanism():
    with pytest.raises(ValidationError):
        ScenarioSpec(mechanism="telepathy")


def test_behavior_features_pairwise_distinct_across_classes():
    spec = ScenarioSpec(mechanism="combined", subjects=1, days=16, seed=2)
    ((_, streams, labels, _),) = subject_events(spec)
    by_class = {}
    for day, cls in labels.items():     # zero noise: each label is the planted class
        by_class.setdefault(cls, day)
    assert set(by_class) == {0, 1, 2, 3}
    feats = [behavior_feature(one_day(streams, by_class[c]), VOCAB) for c in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(feats[i] - feats[j]) > 0.5


def test_same_seed_byte_identical_logs(tmp_path):
    for out in ("a", "b"):
        spec = ScenarioSpec(mechanism="node", subjects=2, days=4, seed=42)
        write_dataset(tmp_path / out, VOCAB, subject_events(spec), scenario=spec.to_dict())
    for name in ("dataset.json", "vocab.json", "logs/s000.jsonl", "logs/s001.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generated_logs_pass_parse_validation(tmp_path):
    for mechanism in MECHANISMS:
        spec = ScenarioSpec(mechanism=mechanism, subjects=1, days=3, seed=3)
        ((_, streams, _, _),) = subject_events(spec)
        write_event_log(tmp_path / "log.jsonl", streams)
        parsed = parse_event_log(tmp_path / "log.jsonl", VOCAB)
        assert events_of(parsed, VOCAB) == streams
        assert parsed.remapped_locations == 0


def test_dataset_roundtrip(tmp_path):
    spec = ScenarioSpec(mechanism="cooccurrence", subjects=2, days=4, seed=5, gpa=True)
    dataset = events_dataset(VOCAB, subject_events(spec), 86400)
    write_dataset(tmp_path, VOCAB, subject_events(spec), 86400, spec.to_dict())
    assert json.loads((tmp_path / "dataset.json").read_text())["scenario"] == spec.to_dict()
    loaded = load_dataset(tmp_path)
    assert loaded.day_origin == 86400
    assert len(loaded.subjects) == 2
    for orig, back in zip(dataset.subjects, loaded.subjects):
        assert back.subject == orig.subject
        assert back.labels == orig.labels
        assert back.gpa == orig.gpa
        assert [g.dump_json() for g in back.days] == [g.dump_json() for g in orig.days]


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_oracle_recovers_every_zero_noise_day(mechanism):
    """At zero noise and full density every day is labeled with its planted
    class, and the oracle reads that class back from the day's events."""
    spec = ScenarioSpec(mechanism=mechanism, subjects=3, days=10, seed=11)
    for _, streams, labels, _ in subject_events(spec):
        assert sorted(labels) == list(range(spec.days))
        for day, label in labels.items():
            window = one_day(streams, day)
            assert oracle_label(window.streams, spec) == label


def test_oracle_is_order_invariant():
    spec = ScenarioSpec(mechanism="transition", subjects=1, days=2, seed=13)
    ((_, streams, _, _),) = subject_events(spec)
    window = one_day(streams)
    label = oracle_label(window.streams, spec)
    shuffled = {s: list(reversed(v)) for s, v in window.streams.items()}
    assert oracle_label(shuffled, spec) == label


def test_oracle_abstains_on_ambiguity():
    spec = ScenarioSpec(mechanism="node", subjects=1, days=1, seed=1)
    assert oracle_label({"location": []}, spec) is None


def test_label_density_thins_labels():
    dense = generate(ScenarioSpec(mechanism="node", subjects=2, days=10, seed=7))
    sparse = generate(ScenarioSpec(mechanism="node", subjects=2, days=10, seed=7,
                                   label_density=0.3))
    n_dense = sum(len(r.labels) for r in dense.subjects)
    n_sparse = sum(len(r.labels) for r in sparse.subjects)
    assert n_sparse < n_dense


def test_full_label_noise_gives_chance_accuracy():
    """Labels drawn independently of content bound any model at chance."""
    config = TrainConfig(d=8, de=6, dp=10, layers=2, span=3, seed=19,
                         lr=3e-3, epochs=4, patience=2, splits=5)
    dataset = generate(ScenarioSpec(mechanism="node", subjects=12, days=12,
                                    seed=19, noise=1.0))
    table = EmbeddingTable.fallback(dataset.vocab, config.d, config.seed)
    result = run_protocol(dataset.samples(config.span, table), config, table)
    assert abs(result.average.accuracy - 0.25) <= 0.08
