import ast
import errno
import json
import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgbg
from lgbg import autograd as ag
from lgbg import cli, schema
from lgbg.cli import main
from lgbg.config import TrainConfig
from lgbg.dataset import load_dataset, write_dataset
from lgbg.embeddings import EmbeddingTable
from lgbg.model import Model
from lgbg.streams import MAX_DAYS, Vocabulary
from lgbg.synth import MAX_SUBJECTS, VOCAB, ScenarioSpec, subject_events

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


def test_build_graph_makes_no_embedding_table_unless_given_one(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("build-graph made a fallback embedding table")

    monkeypatch.setattr(EmbeddingTable, "fallback", refuse)
    assert main(["build-graph", "--log", str(DATA / "toy_log.jsonl"),
                 "--vocab", str(DATA / "toy_vocab.json"), "--out", str(tmp_path / "o")]) == 0


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


def test_build_graph_counts_events_before_origin(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text('{"format": 1}\n'
                   '{"stream": "audio", "concept": "voice", "start": -90000, "end": 100}\n'
                   '{"stream": "audio", "concept": "noise", "start": 100, "end": 200}\n')
    for origin, expected in (("0", 1), ("150", 2)):
        out = tmp_path / f"graphs{origin}"
        assert main(["build-graph", "--log", str(log), "--vocab", str(DATA / "toy_vocab.json"),
                     "--out", str(out), "--day-origin", origin]) == 0
        assert json.loads((out / "graphs.json").read_text())["before_origin"] == expected


def test_build_graph_log_before_origin_builds_nothing(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text('{"format": 1}\n'
                   '{"stream": "audio", "concept": "voice", "start": 100, "end": 200}\n')
    out = tmp_path / "graphs"
    assert main(["build-graph", "--log", str(log), "--vocab", str(DATA / "toy_vocab.json"),
                 "--out", str(out), "--day-origin", str(3 * 86400)]) == 0
    assert "nothing to build" in capsys.readouterr().err
    index = json.loads((out / "graphs.json").read_text())
    assert (index["days"], index["samples"], index["before_origin"]) == (0, [], 1)
    assert [p.name for p in out.iterdir()] == ["graphs.json"]


def test_build_graph_counts_a_day_of_mutual_overlaps_fast(tmp_path):
    """20,000 events a stream on one day, each overlapping every other: each
    cross-stream pair of concepts overlaps 400,000,000 times. A sweep that
    pairs events one at a time took 0.96 s at 2,000 events a stream and grows
    as the square of it."""
    n = 20000
    lines = [json.dumps({"format": 1})]
    for stream, concept in (("activity", "walking"), ("audio", "voice"),
                            ("location", "dorm")):
        lines += [json.dumps({"stream": stream, "concept": concept, "start": i,
                              "end": 40000 + i}) for i in range(n)]
    log = tmp_path / "log.jsonl"
    log.write_text("\n".join(lines) + "\n")
    VOCAB.save(tmp_path / "vocab.json")
    started = time.perf_counter()
    assert main(["build-graph", "--log", str(log), "--vocab", str(tmp_path / "vocab.json"),
                 "--out", str(tmp_path / "graphs")]) == 0
    elapsed = time.perf_counter() - started
    doc = json.loads((tmp_path / "graphs" / "day_00000.json").read_text())
    assert [(e["src"], e["dst"], e["kind"], e["weight"]) for e in doc["edges"]] == [
        (s, d, "heterogeneous", n * n) for s in range(3) for d in range(3) if s != d]
    assert elapsed < 5.0, elapsed


def test_build_graph_idempotent(tmp_path):
    out = tmp_path / "graphs"
    args = ["build-graph", "--log", str(DATA / "toy_log.jsonl"),
            "--vocab", str(DATA / "toy_vocab.json"), "--out", str(out)]
    assert main(args) == 0
    first = (out / "day_00000.json").read_bytes()
    assert main(args) == 0
    assert (out / "day_00000.json").read_bytes() == first


def _failing_replace(monkeypatch, after: int):
    """Make `os.replace` raise ENOSPC once `after` calls have succeeded."""
    real, calls = os.replace, []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) > after:
            raise OSError(errno.ENOSPC, "No space left on device", str(dst))
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return calls


def test_build_graph_failure_leaves_no_index(tmp_path, capsys, monkeypatch):
    log = tmp_path / "log.jsonl"
    log.write_text('{"format": 1}\n' + "".join(
        f'{{"stream": "audio", "concept": "voice", "start": {d * 86400 + 100}, '
        f'"end": {d * 86400 + 200}}}\n' for d in range(5)))
    out = tmp_path / "graphs"
    argv = ["build-graph", "--log", str(log), "--vocab", str(DATA / "toy_vocab.json"),
            "--out", str(out)]
    for before in ("fresh", "complete build"):
        if before == "complete build":
            monkeypatch.undo()
            assert main(argv) == 0 and (out / "graphs.json").exists()
        calls = _failing_replace(monkeypatch, after=3)
        capsys.readouterr()
        assert main(argv) == 2, before
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert len(calls) == 4
        assert sorted(p.name for p in out.iterdir()) == [
            f"day_{d:05d}.json" for d in range(3 if before == "fresh" else 5)], before


def test_build_graph_reused_out_drops_stale_days(tmp_path):
    out = tmp_path / "graphs"
    for days in (5, 2):
        log = tmp_path / f"log{days}.jsonl"
        log.write_text('{"format": 1}\n' + "".join(
            f'{{"stream": "audio", "concept": "voice", "start": {d * 86400 + 100}, '
            f'"end": {d * 86400 + 200}}}\n' for d in range(days)))
        assert main(["build-graph", "--log", str(log), "--vocab",
                     str(DATA / "toy_vocab.json"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "day_00000.json", "day_00001.json", "graphs.json"]
    assert json.loads((out / "graphs.json").read_text())["days"] == 2


# ---------------------------------------------------------------------------
# one writer for every output file


@pytest.mark.parametrize("fails_in", ["write", "replace"])
@pytest.mark.parametrize("old", [None, b"old bytes\n"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, fails_in, old):
    target = tmp_path / "out.json"
    if old is not None:
        target.write_bytes(old)
    if fails_in == "write":
        real_open = open

        class HalfWritten:
            def __init__(self, path, *args, **kwargs):
                self.fh = real_open(path, *args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(schema, "open", HalfWritten, raising=False)
    else:
        _failing_replace(monkeypatch, after=0)
    with pytest.raises(OSError):
        schema.write_text(target, "new text that is long enough\n" * 100)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["out.json"])
    if old is not None:
        assert target.read_bytes() == old


def test_write_text_replaces_whole_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("a much longer old text\n" * 50)
    schema.write_text(target, "caf\u00e9\n")
    assert target.read_bytes() == "caf\u00e9\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_loadable_dataset(synth_dir):
    data = load_dataset(synth_dir)
    assert len(data.subjects) == 3
    assert all(r.labels for r in data.subjects)


def test_synth_rejects_bad_mechanism(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", mechanism="bogus")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("size", [{"subjects": 10**9, "days": 10**9},
                                  {"days": MAX_DAYS + 75},
                                  {"subjects": MAX_SUBJECTS + 1},
                                  {"subjects": 1000, "days": 36525}])
def test_synth_rejects_oversized_spec_before_generating(tmp_path, capsys, monkeypatch,
                                                        size):
    monkeypatch.setattr(cli, "subject_events", lambda spec: pytest.fail("generation started"))
    spec = write_spec(tmp_path / "spec.json", **size)
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


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


def test_train_val_fraction_near_one_keeps_a_training_sample(tmp_path):
    data = tmp_path / "data"
    spec = write_spec(tmp_path / "spec.json", subjects=6, days=8)
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    dataset = load_dataset(data)
    table = EmbeddingTable.fallback(dataset.vocab, 8, 0)
    assert len(dataset.samples(3, table)) == 36
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"val_fraction": 0.99}))
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--config", str(config)] + FAST)
    assert code == 0
    rows = (out / "history.csv").read_text().splitlines()[1:]
    assert rows
    assert all(math.isfinite(float(row.split(",")[1])) for row in rows)


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


def test_eval_with_checkpoint_echoes_the_checkpoint_config(synth_dir, tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--data", str(synth_dir), "--out", str(run)] + FAST
                + ["--no-homo", "--linear-layers", "--batch-size", "3"]) == 0
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(synth_dir), "--out", str(out),
                 "--checkpoint", str(run / "checkpoint.json"), "--splits", "3"]) == 0
    echoed = json.loads((out / "config.json").read_text())
    trained = json.loads((run / "config.json").read_text())
    for key in ("d", "de", "dp", "layers", "span", "use_homogeneous",
                "use_heterogeneous", "linear_layers", "batch_size"):
        assert echoed[key] == trained[key], key
    assert (echoed["use_homogeneous"], echoed["linear_layers"], echoed["batch_size"]) == (
        False, True, 3)


def test_eval_with_checkpoint_rejects_embeddings(synth_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--data", str(synth_dir), "--out", str(run)] + FAST) == 0
    emb = tmp_path / "emb.txt"
    emb.write_text("dorm " + " ".join(["0.5"] * 8) + "\n")
    capsys.readouterr()
    assert main(["eval", "--data", str(synth_dir), "--out", str(tmp_path / "eval"),
                 "--checkpoint", str(run / "checkpoint.json"),
                 "--embeddings", str(emb)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "eval").exists()


def test_eval_with_checkpoint_warns_once_per_overridden_field(synth_dir, tmp_path,
                                                              capsys):
    run = tmp_path / "run"
    assert main(["train", "--data", str(synth_dir), "--out", str(run)] + FAST) == 0
    trained = json.loads((run / "config.json").read_text())
    config = tmp_path / "config.json"
    # layers differs from the checkpoint, span and de repeat it, lr is not
    # taken from the checkpoint; the flag --d wins over the file's d.
    config.write_text(json.dumps({"m": trained["layers"] + 1, "span": trained["span"],
                                  "de": trained["de"], "d": trained["d"], "lr": 0.5}))
    capsys.readouterr()
    assert main(["eval", "--data", str(synth_dir), "--out", str(tmp_path / "eval"),
                 "--checkpoint", str(run / "checkpoint.json"), "--splits", "3",
                 "--config", str(config), "--d", str(trained["d"] + 2),
                 "--no-hetero", "--no-homo", "--dp", str(trained["dp"])]) == 0
    warned = [line.split()[1] for line in capsys.readouterr().err.splitlines()
              if line.startswith("warning: ")]
    assert warned == ["d", "layers", "use_homogeneous", "use_heterogeneous"]
    echoed = json.loads((tmp_path / "eval" / "config.json").read_text())
    for key in ("d", "layers", "use_homogeneous", "use_heterogeneous"):
        assert echoed[key] == trained[key], key

    # Defaults that were not given never warn, even where they differ from
    # the checkpoint's (FAST trains with a small d, de, dp and layers).
    capsys.readouterr()
    assert main(["eval", "--data", str(synth_dir), "--out", str(tmp_path / "eval2"),
                 "--checkpoint", str(run / "checkpoint.json"), "--splits", "3"]) == 0
    assert "warning:" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [["train"] + FAST, ["eval", "--splits", "2"] + FAST])
@pytest.mark.parametrize("origin, warned", [("86400", True), ("0", False), (None, False)])
def test_train_and_eval_warn_when_they_ignore_day_origin(synth_dir, tmp_path, capsys,
                                                         command, origin, warned):
    flag = [] if origin is None else ["--day-origin", origin]
    capsys.readouterr()
    assert main(command + ["--data", str(synth_dir), "--out", str(tmp_path / "o")]
                + flag) == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("warning:")]
    assert lines == (["warning: day_origin 86400 is ignored; the dataset's 0 is used"]
                     if warned else [])
    assert json.loads((tmp_path / "o" / "config.json").read_text())["day_origin"] == 0


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


@pytest.mark.parametrize("value, line", [("x0.5", 2), ("nan", 3)])
def test_train_bad_embedding_value_exit_2_with_line(tmp_path, synth_dir, capsys,
                                                    value, line):
    emb = tmp_path / "emb.txt"
    rows = [f"{name} " + " ".join(["0.5"] * 8) for name in ("walking", "voice")[:line - 1]]
    rows.append("dorm " + " ".join(["0.5"] * 7 + [value]))
    emb.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run"),
                 "--embeddings", str(emb)] + FAST) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1, err


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
    data_dir = tmp_path / "d"
    write_dataset(data_dir, VOCAB, subject_events(ScenarioSpec(mechanism="node", subjects=1,
                                                               days=3, seed=4)))
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


def test_inspect_sample_without_colon_exit_2(tmp_path, capsys):
    inputs = Inputs(tmp_path)
    capsys.readouterr()
    assert main(["inspect", "--checkpoint", str(inputs.files["checkpoint"]),
                 "--data", str(tmp_path / "data"), "--sample", "nocolon",
                 "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: --sample must look like subject:day, got 'nocolon'\n", err


# ---------------------------------------------------------------------------
# numeric failure: exit 1 with one error line


def test_overflowing_checkpoint_exit_1_with_one_line(tmp_path, capsys):
    inputs = Inputs(tmp_path)
    path = inputs.files["checkpoint"]
    doc = json.loads(path.read_text())
    doc["embeddings"]["vectors"] = [[1e300] * len(v) for v in doc["embeddings"]["vectors"]]
    for stored in doc["params"].values():
        stored["data"] = [1e300] * len(stored["data"])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(inputs.argv("eval")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "gnn.layer0.activity.self" in out  # per-group reporting


def test_gradcheck_forwards_its_batch_as_one_union(monkeypatch):
    from lgbg import cli, model

    calls = []
    forward = model.graph_forward
    monkeypatch.setattr(model, "graph_forward",
                        lambda parts, *a: calls.append(len(parts)) or forward(parts, *a))
    _, loss_fn = cli._gradcheck_setup(0)
    loss_fn()
    # Two 3-day spans one day apart: 4 distinct days, the 2 shared ones once.
    assert calls == [4]


def test_gradcheck_corrupted_gradient_fails(monkeypatch, capsys):
    setup = cli._gradcheck_setup

    def corrupted(seed):
        model, loss_fn = setup(seed)
        target = next(iter(model.named_parameters().values()))

        def f():   # the taped gradient of the first parameter is off by 0.05
            loss = loss_fn()
            tape = ag.active_tape()
            if tape is not None:
                tape.record(lambda: np.add(target.grad, 0.05, out=target.grad))
            return loss

        return model, f

    monkeypatch.setattr(cli, "_gradcheck_setup", corrupted)
    assert main(["gradcheck", "--seed", "0"]) == 1
    assert "FAIL" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exited:     # no hidden switch plants it
        main(["gradcheck", "--seed", "0", "--corrupt"])
    assert exited.value.code == 2


# ---------------------------------------------------------------------------
# malformed input files: always exit 2 with one error line


class Inputs:
    """One valid file of each kind that the CLI reads, under `root`."""

    def __init__(self, root: Path):
        self.root = root
        data = root / "data"
        self.files = {"spec": root / "spec.json", "manifest": data / "dataset.json",
                      "vocab": data / "vocab.json", "log": data / "logs" / "s000.jsonl",
                      "config": root / "config.json", "checkpoint": root / "checkpoint.json",
                      "embeddings": root / "emb.txt"}
        write_spec(self.files["spec"], gpa=True)
        assert main(["synth", "--spec", str(self.files["spec"]), "--out", str(data)]) == 0
        self.files["config"].write_text(json.dumps({"splits": 2, "seed": 1, "lr": 0.01}))
        vocab = Vocabulary.load(self.files["vocab"])
        config = TrainConfig(d=8, de=6, dp=10, layers=1)
        Model(config, EmbeddingTable.fallback(vocab, config.d, config.seed),
              vocab.digest()).save(self.files["checkpoint"])
        self.files["embeddings"].write_text("dorm " + " ".join(["0.5"] * 8) + "\n")

    def argv(self, command: str) -> list[str]:
        f = {k: str(v) for k, v in self.files.items()}
        out = str(self.root / "out")
        return {"synth": ["synth", "--spec", f["spec"], "--out", out],
                "eval": ["eval", "--data", str(self.root / "data"), "--out", out,
                         "--checkpoint", f["checkpoint"], "--config", f["config"]],
                "build-graph": ["build-graph", "--log", f["log"], "--vocab", f["vocab"],
                                "--embeddings", f["embeddings"], "--d", "8",
                                "--out", out]}[command]


def _set(**kw):
    return lambda doc: doc.update(kw)


def _drop(key):
    return lambda doc: doc.pop(key)


def _first_subject(change):
    return lambda doc: change(doc["subjects"][0])


NOT_UTF8 = b'{"format": 1, "name": "caf\xe9"}\n'

PROBES = [
    ("spec-not-json", "spec", b"{not json", "synth"),
    ("spec-unknown-key", "spec", _set(colour="red"), "synth"),
    ("spec-list", "spec", b"[1, 2]", "synth"),
    ("spec-subjects-string", "spec", _set(subjects="3"), "synth"),
    ("spec-seed-negative", "spec", _set(seed=-1), "synth"),
    ("spec-gpa-noise-negative", "spec", _set(gpa_noise=-1.0), "synth"),
    ("manifest-no-subjects", "manifest", _drop("subjects"), "eval"),
    ("manifest-label-day-x", "manifest",
     _first_subject(lambda s: s["labels"].update(x=1)), "eval"),
    ("manifest-subject-no-log", "manifest", _first_subject(_drop("log")), "eval"),
    ("manifest-label-day-far", "manifest",
     _first_subject(lambda s: s["labels"].update({"99999999": 1})), "eval"),
    ("config-epochs-string", "config", _set(epochs="x"), "eval"),
    ("config-d-bool", "config", _set(d=True), "eval"),
    ("config-lr-nan", "config", _set(lr=float("nan")), "eval"),
    ("config-seed-negative", "config", _set(seed=-1), "eval"),
    ("config-val-fraction-2", "config", _set(val_fraction=2.0), "eval"),
    ("config-patience-negative", "config", _set(patience=-3), "eval"),
    ("config-knn-k-0", "config", _set(knn_k=0), "eval"),
    ("config-d-513", "config", _set(d=513), "eval"),
    ("config-de-513", "config", _set(de=513), "eval"),
    ("config-dp-513", "config", _set(dp=513), "eval"),
    ("config-layers-9", "config", _set(layers=9), "eval"),
    ("config-span-65", "config", _set(span=65), "eval"),
    ("config-batch-size-1025", "config", _set(batch_size=1025), "eval"),
    ("checkpoint-no-params", "checkpoint", _drop("params"), "eval"),
    ("checkpoint-no-embeddings", "checkpoint", _drop("embeddings"), "eval"),
    ("checkpoint-config-int", "checkpoint", _set(config=5), "eval"),
    ("vocab-location-int", "vocab", _set(location=5), "eval"),
    ("vocab-not-utf8", "vocab", NOT_UTF8, "eval"),
    ("log-not-utf8", "log", NOT_UTF8, "build-graph"),
    ("embeddings-not-utf8", "embeddings", b"caf\xe9 " + b"0.5 " * 8 + b"\n", "build-graph"),
    ("log-start-bool", "log",
     b'{"format": 1}\n{"stream": "audio", "concept": "voice", "start": true, "end": 10}\n',
     "build-graph"),
    ("log-concept-list", "log",
     b'{"format": 1}\n{"stream": "location", "concept": ["x"], "start": 0, "end": 10}\n',
     "build-graph"),
    ("log-end-far-future", "log",
     b'{"format": 1}\n{"stream": "audio", "concept": "voice", "start": 0,'
     b' "end": 1000000000000000}\n', "build-graph"),
    ("log-key-twice", "log",
     b'{"format": 1}\n{"stream": "audio", "concept": "voice", "start": 0, "start": 5,'
     b' "end": 10}\n', "build-graph"),
]


@pytest.mark.parametrize("target, change, command", [p[1:] for p in PROBES],
                         ids=[p[0] for p in PROBES])
def test_malformed_input_exit_2(tmp_path, capsys, target, change, command):
    inputs = Inputs(tmp_path)
    path = inputs.files[target]
    if isinstance(change, bytes):
        path.write_bytes(change)
    else:
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(inputs.argv(command)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_duplicate_subject_id_exit_2(synth_dir, tmp_path, capsys):
    manifest = synth_dir / "dataset.json"
    doc = json.loads(manifest.read_text())
    doc["subjects"].append(dict(doc["subjects"][0]))
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run")]
                + FAST) == 2
    assert capsys.readouterr().err == "error: subject id 's000' is listed twice\n"
    assert not (tmp_path / "run").exists()


def test_label_day_given_twice_exit_2(synth_dir, tmp_path, capsys):
    manifest = synth_dir / "dataset.json"
    doc = json.loads(manifest.read_text())
    labels = doc["subjects"][1]["labels"]
    labels["05"] = (labels["5"] + 1) % 4        # "05" and "5" name the same day
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run")]
                + FAST) == 2
    assert capsys.readouterr().err == "error: subject 's001' labels day 5 twice\n"
    assert not (tmp_path / "run").exists()


def test_manifest_label_key_given_twice_exit_2(synth_dir, tmp_path, capsys):
    manifest = synth_dir / "dataset.json"
    doc = json.loads(manifest.read_text())
    doc["subjects"][0]["labels"] = {"5": 3, "6": 1}
    # json.dumps writes each key once, so the repeat is made in the text.
    manifest.write_text(json.dumps(doc).replace('"5": 3, "6": 1', '"5": 3, "5": 1'))
    capsys.readouterr()
    assert main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run")]
                + FAST) == 2
    assert capsys.readouterr().err == ("error: dataset manifest is not valid JSON: "
                                       "key '5' appears twice in one object\n")
    assert not (tmp_path / "run").exists()


def test_config_key_given_twice_exit_2(synth_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"epochs": 2, "seed": 1, "seed": 2}')
    capsys.readouterr()
    assert main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run"),
                 "--config", str(config)]) == 2
    assert capsys.readouterr().err == ("error: config file is not valid JSON: "
                                       "key 'seed' appears twice in one object\n")
    assert not (tmp_path / "run").exists()


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from lgbg import *", namespace)
    assert set(lgbg.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(lgbg, name) for name in lgbg.__all__)


# Imported by tests/test_acceptance.py, which is kept as written: the
# per-graph forward and the vector softmax its criteria check, and the edge
# counts of event lists that criterion 3 checks against brute force (each
# runs its events through the day-graph count).
KEPT_FOR_ACCEPTANCE = {"heterogeneous_edges", "homogeneous_edges", "local_graph_forward",
                       "softmax"}


def test_no_code_in_lgbg_is_reached_only_by_tests():
    """Each function, class or method that `src/lgbg` defines is named in
    `src/lgbg` code, as a `Name` or an `Attribute`, or exported in
    `lgbg.__all__`. Code only the tests use belongs in `tests/reference.py`.

    Dunder methods are left out: Python calls them itself. The check matches
    by name, so a definition whose name is also used for something else is
    not flagged. Before their move to `tests/reference.py` it missed
    `autograd.rows` (named by the `rows` argument of `segment_sum`),
    `autograd.tanh` (`np.tanh`), `LocalContextGraph.to_dict`
    (`TrainConfig.to_dict`) and `streams.behavior_feature` (then called by
    the grade task).
    """
    defined, used = set(), set()
    for path in sorted(Path(lgbg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreached = {name for name in defined - used - set(lgbg.__all__)
                 if not (name.startswith("__") and name.endswith("__"))}
    assert unreached == KEPT_FOR_ACCEPTANCE


@pytest.mark.parametrize("origin, code", [(0.9, 2), ("x", 2), (3600, 0)])
def test_manifest_day_origin_must_be_an_integer(tmp_path, capsys, origin, code):
    inputs = Inputs(tmp_path)
    manifest = inputs.files["manifest"]
    doc = json.loads(manifest.read_text())
    doc["day_origin"] = origin
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(inputs.argv("eval")) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        config = json.loads((tmp_path / "out" / "config.json").read_text())
        assert config["day_origin"] == origin


# Which command reads each fuzzed file kind.
READER = {"spec": "synth", "manifest": "eval", "vocab": "eval", "config": "eval",
          "checkpoint": "eval", "log": "build-graph", "embeddings": "build-graph"}
# Replacement values of each JSON type but bool (which has its own mutation).
OTHER_TYPES = [None, "x", [0], {"k": 0}, 0.5]
# The embeddings file is text, decoded to a token list per line: a token is
# dropped or replaced by one of these.
TEXT_VALUES = ["nan", "1e999", "x"]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    return Inputs(tmp_path_factory.mktemp("inputs"))


def _decode(target: str, raw: bytes):
    if target == "log":
        return [json.loads(line) for line in raw.decode().splitlines()]
    if target == "embeddings":
        return [line.split() for line in raw.decode().splitlines()]
    return json.loads(raw)


def _encode(target: str, doc) -> bytes:
    if target == "log":
        return "".join(json.dumps(rec) + "\n" for rec in doc).encode()
    if target == "embeddings":
        return "".join(" ".join(tokens) + "\n" for tokens in doc).encode()
    return json.dumps(doc).encode()


def _paths(doc, prefix=()):
    """Every key of every object and the first two items of every list."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc[:2])
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@settings(settings.get_profile("input-fuzz"))
@given(data=st.data())
def test_mutated_input_exits_0_or_2(valid_inputs, data):
    target = data.draw(st.sampled_from(sorted(READER)), label="file")
    text = target == "embeddings"
    how = data.draw(st.sampled_from(["drop", "swap", "truncate"] if text else
                                    ["drop", "swap", "bool", "nan", "truncate"]),
                    label="mutation")
    path = valid_inputs.files[target]
    original = path.read_bytes()
    if how == "truncate":
        mutated = original[:data.draw(st.integers(0, len(original) - 1), label="cut")]
    else:
        doc = _decode(target, original)
        paths = [p for p in _paths(doc) if not text or len(p) == 2]  # a text token
        *parents, key = data.draw(st.sampled_from(paths), label="path")
        holder = doc
        for k in parents:
            holder = holder[k]
        if how == "drop":
            del holder[key]
        elif text:
            holder[key] = data.draw(st.sampled_from(TEXT_VALUES), label="value")
        elif how == "swap":
            holder[key] = data.draw(st.sampled_from(
                [v for v in OTHER_TYPES if type(v) is not type(holder[key])]), label="value")
        else:
            holder[key] = True if how == "bool" else float("nan")
        mutated = _encode(target, doc)
    try:
        path.write_bytes(mutated)
        code = main(valid_inputs.argv(READER[target]))
    finally:
        path.write_bytes(original)
    assert code in (0, 2)
