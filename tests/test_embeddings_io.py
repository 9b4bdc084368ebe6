from pathlib import Path

import numpy as np
import pytest

from lgbg.cli import main
from lgbg.embeddings import EmbeddingTable
from lgbg.errors import EmbeddingError, ParseError, ValidationError
from lgbg.model import Model
from lgbg.synth import ScenarioSpec, generate

from reference import vector

DATA = Path(__file__).parent / "data"


def test_fallback_is_pure_function_of_name_and_seed(vocab):
    t1 = EmbeddingTable.fallback(vocab, 8, seed=1)
    t2 = EmbeddingTable.fallback(vocab, 8, seed=1)
    t3 = EmbeddingTable.fallback(vocab, 8, seed=2)
    assert np.array_equal(t1.vectors, t2.vectors)
    assert not np.array_equal(t1.vectors, t3.vectors)
    assert t1.source == "deterministic-fallback"


def test_fallback_vectors_unit_norm(vocab):
    table = EmbeddingTable.fallback(vocab, 12, seed=0)
    norms = np.linalg.norm(table.vectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_fallback_covers_every_concept(vocab):
    table = EmbeddingTable.fallback(vocab, 8, seed=0)
    for stream, concept in vocab.all_concepts():
        assert vector(table, concept).shape == (8,)


def test_unknown_concept_raises(vocab):
    table = EmbeddingTable.fallback(vocab, 8, seed=0)
    with pytest.raises(EmbeddingError):
        table.index("submarine")


def test_from_file_reads_vectors(tmp_path, vocab):
    lines = ["walking " + " ".join(str(0.1 * i) for i in range(4)),
             "dorm 1 0 0 0"]
    path = tmp_path / "emb.txt"
    path.write_text("\n".join(lines) + "\n")
    table = EmbeddingTable.from_file(path, vocab, dim=4, seed=0)
    assert np.allclose(vector(table, "walking"), [0.0, 0.1, 0.2, 0.3])
    assert np.array_equal(vector(table, "dorm"), [1, 0, 0, 0])
    # concepts not in the file fall back deterministically
    fallback = EmbeddingTable.fallback(vocab, 4, seed=0)
    assert np.array_equal(vector(table, "voice"), vector(fallback, "voice"))


def test_from_file_dimension_mismatch(tmp_path, vocab):
    (tmp_path / "emb.txt").write_text("walking 1 0\n")
    with pytest.raises(ParseError, match="line 1"):
        EmbeddingTable.from_file(tmp_path / "emb.txt", vocab, dim=4, seed=0)


def test_from_file_concept_listed_twice_names_the_second_line(tmp_path, vocab):
    path = tmp_path / "emb.txt"
    path.write_text("dorm 1 0 0 0\nwalking 0 1 0 0\n\ndorm 0 0 1 0\n")
    with pytest.raises(ParseError, match=r"^line 4: concept 'dorm' is listed twice$"):
        EmbeddingTable.from_file(path, vocab, dim=4, seed=0)
    code = main(["build-graph", "--log", str(DATA / "toy_log.jsonl"),
                 "--vocab", str(DATA / "toy_vocab.json"), "--embeddings", str(path),
                 "--d", "4", "--out", str(tmp_path / "graphs")])
    assert code == 2


def test_from_file_ignores_names_outside_the_vocabulary(tmp_path, vocab):
    path = tmp_path / "emb.txt"
    path.write_text("submarine 1 1 1 1\ndorm 1 0 0 0\nsubmarine 2 2 2 2\n")
    table = EmbeddingTable.from_file(path, vocab, dim=4, seed=0)
    assert table.names == EmbeddingTable.fallback(vocab, 4, seed=0).names
    assert np.array_equal(vector(table, "dorm"), [1, 0, 0, 0])


# ---------------------------------------------------------------------------
# checkpoints


def trained_tiny(tmp_path, small_config):
    dataset = generate(ScenarioSpec(mechanism="node", subjects=2, days=5, seed=5))
    table = EmbeddingTable.fallback(dataset.vocab, small_config.d, small_config.seed)
    samples = dataset.samples(small_config.span, table)
    model = Model(small_config, table, dataset.vocab.digest())
    return dataset, model, samples


def test_checkpoint_round_trip_preserves_predictions(tmp_path, small_config):
    dataset, model, samples = trained_tiny(tmp_path, small_config)
    path = tmp_path / "ckpt.json"
    model.save(path)
    loaded = Model.load(path, vocab=dataset.vocab)
    for s in samples:
        a = model.forward(s)
        b = loaded.forward(s)
        assert np.array_equal(a.probs.data, b.probs.data)
    assert loaded.config == model.config


def test_checkpoint_vocab_digest_mismatch(tmp_path, small_config, vocab):
    dataset, model, _ = trained_tiny(tmp_path, small_config)
    path = tmp_path / "ckpt.json"
    model.save(path)
    other = type(vocab)(locations=("somewhere-else",))
    with pytest.raises(ValidationError):
        Model.load(path, vocab=other)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        Model.load(p)
    with pytest.raises(ValidationError):
        Model.load(tmp_path / "missing.json")
