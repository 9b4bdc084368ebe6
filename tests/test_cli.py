import json
from pathlib import Path

import numpy as np
import pytest

from lgbg.cli import main
from lgbg.dataset import load_dataset, write_dataset
from lgbg.model import Model
from lgbg.synth import ScenarioSpec, generate

DATA = Path(__file__).parent / "data"


def write_spec(path, **kw):
    doc = {"format": 1, "mechanism": "combined", "subjects": 3, "days": 6, "seed": 5}
    doc.update(kw)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    spec = write_spec(tmp_path / "spec.json")
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# build-graph


def test_build_graph_golden_dump(tmp_path):
    out = tmp_path / "graphs"
    code = main(["build-graph", "--log", str(DATA / "toy_log.jsonl"),
                 "--vocab", str(DATA / "toy_vocab.json"), "--out", str(out)])
    assert code == 0
    got = (out / "day_00000.json").read_bytes()
    assert got == (DATA / "golden_day_00000.json").read_bytes()
    index = json.loads((out / "graphs.json").read_text())
    assert index["days"] == 1
    assert index["samples"] == []  # one day cannot fill a 3-day span


def test_build_graph_missing_vocab_exit_2(tmp_path, capsys):
    code = main(["build-graph", "--log", str(DATA / "toy_log.jsonl"),
                 "--vocab", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_build_graph_empty_log_warns(tmp_path, capsys):
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    code = main(["build-graph", "--log", str(log),
                 "--vocab", str(DATA / "toy_vocab.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert "no events" in capsys.readouterr().err
    assert json.loads((tmp_path / "o" / "graphs.json").read_text())["samples"] == []


def test_build_graph_idempotent(tmp_path):
    out = tmp_path / "graphs"
    args = ["build-graph", "--log", str(DATA / "toy_log.jsonl"),
            "--vocab", str(DATA / "toy_vocab.json"), "--out", str(out)]
    assert main(args) == 0
    first = (out / "day_00000.json").read_bytes()
    assert main(args) == 0
    assert (out / "day_00000.json").read_bytes() == first


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_loadable_dataset(synth_dir):
    data = load_dataset(synth_dir)
    assert len(data.subjects) == 3
    assert all(r.labels for r in data.subjects)


def test_synth_rejects_bad_mechanism(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", mechanism="bogus")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# train / eval


FAST = ["--epochs", "2", "--lr", "3e-3", "--d", "8", "--de", "6", "--dp", "10",
        "--layers", "2", "--batch-size", "8"]


def test_train_writes_artifacts(synth_dir, tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--data", str(synth_dir), "--out", str(out)] + FAST)
    assert code == 0
    assert (out / "checkpoint.json").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_loss,val_accuracy"
    assert len(history) >= 2
    config = json.loads((out / "config.json").read_text())
    assert config["epochs"] == 2
    Model.load(out / "checkpoint.json")  # parses and validates


def test_train_zero_layers_runs(synth_dir, tmp_path):
    out = tmp_path / "run0"
    code = main(["train", "--data", str(synth_dir), "--out", str(out),
                 "--layers", "0", "--epochs", "1", "--d", "8", "--de", "6",
                 "--dp", "10"])
    assert code == 0
    report = json.loads((out / "train_report.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0


def test_eval_protocol_deterministic(synth_dir, tmp_path):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        code = main(["eval", "--data", str(synth_dir), "--out", str(out),
                     "--splits", "3", "--seed", "5"] + FAST)
        assert code == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0] == "task,n,accuracy,precision,recall,f1"
    assert len(lines) == 5  # 3 tasks + average + header
    assert lines[-1].startswith("average,")


def test_eval_with_checkpoint_skips_training(synth_dir, tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--data", str(synth_dir), "--out", str(run)] + FAST) == 0
    out = tmp_path / "eval"
    code = main(["eval", "--data", str(synth_dir), "--out", str(out),
                 "--checkpoint", str(run / "checkpoint.json"), "--splits", "3"])
    assert code == 0
    rows = json.loads((out / "metrics.json").read_text())
    assert rows[-1]["task"] == "average"


def test_env_seed_default(tmp_path, synth_dir, monkeypatch):
    monkeypatch.setenv("LGBG_SEED", "77")
    out = tmp_path / "run"
    assert main(["train", "--data", str(synth_dir), "--out", str(out),
                 "--epochs", "1", "--d", "8", "--de", "6", "--dp", "10",
                 "--layers", "1"]) == 0
    assert json.loads((out / "config.json").read_text())["seed"] == 77


def test_env_seed_not_an_integer_exit_2(tmp_path, synth_dir, monkeypatch, capsys):
    monkeypatch.setenv("LGBG_SEED", "abc")
    assert main(["eval", "--data", str(synth_dir), "--out", str(tmp_path / "e")]
                + FAST) == 2
    assert main(["gradcheck"]) == 2
    err = capsys.readouterr().err
    assert err.count("LGBG_SEED") == 2
    assert "Traceback" not in err


def test_train_with_embedding_file(tmp_path, synth_dir):
    emb = tmp_path / "emb.txt"
    rng = np.random.default_rng(0)
    lines = [f"{name} " + " ".join(f"{v:.4f}" for v in rng.uniform(-1, 1, 8))
             for name in ("walking", "dorm", "voice")]
    emb.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    code = main(["train", "--data", str(synth_dir), "--out", str(out),
                 "--embeddings", str(emb)] + FAST)
    assert code == 0
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert ckpt["embeddings"]["source"] == "file"


def test_linear_layers_flag(synth_dir, tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--data", str(synth_dir), "--out", str(out),
                 "--linear-layers"] + FAST)
    assert code == 0
    assert json.loads((out / "config.json").read_text())["linear_layers"] is True


def test_flag_overrides_config_file(tmp_path, synth_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "seed": 3, "d": 8, "de": 6,
                               "dp": 10, "layers": 1}))
    out = tmp_path / "run"
    assert main(["train", "--data", str(synth_dir), "--out", str(out),
                 "--config", str(cfg), "--seed", "9"]) == 0
    effective = json.loads((out / "config.json").read_text())
    assert effective["seed"] == 9
    assert effective["epochs"] == 1


# ---------------------------------------------------------------------------
# inspect


def test_inspect_attention_round_trip(synth_dir, tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--data", str(synth_dir), "--out", str(run)] + FAST) == 0
    target = tmp_path / "attention.json"
    data = load_dataset(synth_dir)
    sample_id = f"{data.subjects[0].subject}:{max(data.subjects[0].labels)}"
    code = main(["inspect", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(synth_dir), "--sample", sample_id,
                 "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    gamma = np.array(doc["day_attention"])
    assert gamma.shape == (3, 3)
    assert np.all(np.abs(gamma.sum(axis=1) - 1.0) <= 1e-12)
    for day in doc["days"]:
        if not day["empty"]:
            assert abs(sum(day["node_attention"]) - 1.0) <= 1e-12

    # bit-for-bit match with the in-process forward pass
    model = Model.load(run / "checkpoint.json")
    samples = data.samples(model.config.span, model.table)
    subject, anchor = sample_id.rsplit(":", 1)
    match = [s for s in samples
             if s.subject == subject and s.anchor_day == int(anchor)][0]
    out = model.forward(match)
    assert doc["day_attention"] == out.day_attention.tolist()
    assert doc["probabilities"] == out.probs.data.tolist()


def test_inspect_single_day_span_identity(tmp_path):
    dataset = generate(ScenarioSpec(mechanism="node", subjects=1, days=3, seed=4))
    data_dir = tmp_path / "d"
    write_dataset(dataset, data_dir)
    run = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out", str(run),
                 "--span", "1"] + FAST) == 0
    target = tmp_path / "att.json"
    assert main(["inspect", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(data_dir), "--sample", "s000:0",
                 "--out", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc["day_attention"] == [[1.0]]


def test_inspect_unknown_sample_exit_2(synth_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--data", str(synth_dir), "--out", str(run)] + FAST) == 0
    code = main(["inspect", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(synth_dir), "--sample", "sXXX:2",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "gnn.layer0.activity.self" in out  # per-group reporting


def test_gradcheck_corrupted_gradient_fails(capsys):
    assert main(["gradcheck", "--seed", "0", "--corrupt"]) == 1
    assert "FAIL" in capsys.readouterr().out
