"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The wearable-sensor cohort this method was originally evaluated on cannot be
redistributed, so the reference numbers reported on it (about 0.47 accuracy
for the full model; grade MAE 0.195 vs 0.296 for the duration-vector
baseline) are documentation targets only. Criteria 2-9 are the
property-based substitutes that gate this artifact.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time

import numpy as np

from lgbg import autograd as ag
from lgbg.autograd import finite_diff_errors
from lgbg.cli import main
from lgbg.config import TrainConfig
from lgbg.embeddings import EmbeddingTable
from lgbg.gnn import local_graph_forward, GnnParams
from lgbg.graphs import (GraphEdge, LocalContextGraph, heterogeneous_edges,
                         homogeneous_edges, quantize_pam)
from lgbg.metrics import report_from_confusion
from lgbg.model import Model
from lgbg.streams import AUDIO, LOCATION
from lgbg.synth import ScenarioSpec, generate
from lgbg.training import (evaluate, grade_regression, node_variance_loss,
                           run_protocol, split_protocol, total_loss, train)

from conftest import random_events
from test_graphs import adjacent_pair_tally, all_pairs_overlap
from test_model import mixed_graph


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_reference_numbers_are_documentation_only():
    # No redistributable cohort exists at desk scale; the remaining criteria
    # substitute property-based gates for absolute-number reproduction.
    _criterion(1, True, "published cohort numbers treated as documentation; "
                        "property-based gates follow")


def test_criterion_2_end_to_end_gradient_oracle():
    started = time.time()
    config = TrainConfig(d=8, de=6, dp=10, layers=2, span=3, seed=3)
    dataset = generate(ScenarioSpec(mechanism="combined", subjects=2, days=4, seed=3))
    table = EmbeddingTable.fallback(dataset.vocab, config.d, config.seed)
    samples = dataset.samples(config.span, table)[:2]
    assert len(samples) == 2 and all(len(s.graphs) == 3 for s in samples)
    model = Model(config, table, dataset.vocab.digest())
    labels = [s.label for s in samples]

    def f():
        outputs = [model.forward(s) for s in samples]
        return total_loss(outputs, labels, config.lam)

    named = model.named_parameters()
    errors = finite_diff_errors(f, list(named.values()), eps=1e-5,
                                coords_per_param=4, seed=0)
    worst = max(errors)
    elapsed = time.time() - started
    _criterion(2, worst < 1e-4 and elapsed < 60,
               f"max rel err {worst:.2e} over {len(named)} parameter groups "
               f"in {elapsed:.1f}s")


def test_criterion_3_graph_construction_oracles():
    started = time.time()
    rng = np.random.default_rng(23)
    checked = 0
    for case in range(200):
        n_a = int(rng.integers(0, 50))
        n_b = int(rng.integers(0, 50))
        a = random_events(rng, AUDIO, ["voice", "silence", "noise", "other"], n_a)
        b = random_events(rng, LOCATION, ["dorm", "gym", "cafe"], n_b)
        assert homogeneous_edges(a) == adjacent_pair_tally(a)
        assert homogeneous_edges(b) == adjacent_pair_tally(b)
        assert heterogeneous_edges(a, b) == all_pairs_overlap(a, b)
        checked += 1
    elapsed = time.time() - started
    _criterion(3, checked == 200 and elapsed < 10,
               f"200 random event sets matched both oracles exactly in {elapsed:.1f}s")


def test_criterion_4_synthetic_learnability():
    started = time.time()
    config = TrainConfig(lr=3e-3, epochs=6, patience=2, seed=7, splits=10)
    dataset = generate(ScenarioSpec(mechanism="combined", subjects=40, days=30,
                                    seed=7))
    table = EmbeddingTable.fallback(dataset.vocab, config.d, config.seed)
    samples = dataset.samples(config.span, table)
    result = run_protocol(samples, config, table, dataset.vocab.digest())
    elapsed = time.time() - started
    acc, f1 = result.average.accuracy, result.average.f1
    _criterion(4, acc >= 0.90 and f1 >= 0.88 and elapsed < 600,
               f"{len(samples)} samples, 10-split mean accuracy {acc:.3f}, "
               f"weighted F1 {f1:.3f}, {elapsed:.0f}s")


def _holdout_accuracy(mechanism: str, config: TrainConfig) -> float:
    dataset = generate(ScenarioSpec(mechanism=mechanism, subjects=12, days=20,
                                    seed=config.seed))
    table = EmbeddingTable.fallback(dataset.vocab, config.d, config.seed)
    samples = dataset.samples(config.span, table)
    train_idx, test_idx = split_protocol(len(samples), 5, config.seed)[0]
    fit = train([samples[i] for i in train_idx], config, table)
    return evaluate(fit.model, [samples[i] for i in test_idx]).accuracy


def test_criterion_5_mechanism_ablations():
    config = TrainConfig(lr=3e-3, epochs=8, patience=3, seed=7)
    full_het = _holdout_accuracy("cooccurrence", config)
    no_het = _holdout_accuracy("cooccurrence",
                               config.replace(use_heterogeneous=False))
    full_homo = _holdout_accuracy("transition", config)
    no_homo = _holdout_accuracy("transition",
                                config.replace(use_homogeneous=False))
    het_drop = full_het - no_het
    homo_drop = full_homo - no_homo
    _criterion(5, het_drop >= 0.15 and homo_drop >= 0.15,
               f"co-occurrence {full_het:.3f} -> {no_het:.3f} (drop {het_drop:.2f}); "
               f"transition {full_homo:.3f} -> {no_homo:.3f} (drop {homo_drop:.2f})")


def test_criterion_6_invariant_suite(vocab, small_table, small_config):
    ok = True
    notes = []

    for z in ([0.0, 0.0], [3.0, -1.0, 7.0], list(np.linspace(-5, 5, 9))):
        s = ag.softmax(ag.constant(z)).data
        ok &= abs(s.sum() - 1.0) <= 1e-12

    graph = mixed_graph(vocab, small_table)
    params = GnnParams(small_config, np.random.default_rng(8))
    rep = local_graph_forward(graph, small_table, params, small_config)
    ok &= abs(rep.node_attention.sum() - 1.0) <= 1e-12
    ok &= abs(rep.edge_attention.sum() - 1.0) <= 1e-12
    notes.append("attention distributions valid")

    dataset = generate(ScenarioSpec(mechanism="combined", subjects=1, days=3, seed=2))
    table = EmbeddingTable.fallback(dataset.vocab, small_config.d, small_config.seed)
    sample = dataset.samples(small_config.span, table)[0]
    out = Model(small_config, table, dataset.vocab.digest()).forward(sample)
    ok &= np.all(np.abs(out.day_attention.sum(axis=1) - 1.0) <= 1e-12)
    notes.append("day attention rows valid")

    perm = np.random.default_rng(0).permutation(len(graph.nodes))
    inverse = np.argsort(perm)
    shuffled = LocalContextGraph(
        day_index=0, nodes=[graph.nodes[i] for i in perm],
        edges=[GraphEdge(src=int(inverse[e.src]), dst=int(inverse[e.dst]),
                         kind=e.kind, weight=e.weight) for e in graph.edges])
    rep_perm = local_graph_forward(shuffled, small_table, params, small_config)
    ok &= np.array_equal(rep.g_s.data, rep_perm.g_s.data)
    ok &= np.array_equal(rep.g_e.data, rep_perm.g_e.data)
    notes.append("node-permutation invariance")

    scaled = LocalContextGraph(
        day_index=0, nodes=list(graph.nodes),
        edges=[GraphEdge(src=e.src, dst=e.dst, kind=e.kind, weight=5 * e.weight)
               for e in graph.edges])
    rep_scaled = local_graph_forward(scaled, small_table, params, small_config)
    ok &= np.array_equal(rep.rep.data, rep_scaled.rep.data)
    notes.append("edge-weight scaling invariance")

    rng = np.random.default_rng(3)
    for _ in range(25):
        states = ag.constant(rng.uniform(-8, 8, (int(rng.integers(2, 10)), 5)))
        v = node_variance_loss([states]).item()
        ok &= -1.0 < v <= -0.5
    notes.append("variance loss range")

    table = {1: 0, 4: 0, 5: 1, 8: 1, 9: 2, 12: 2, 13: 3, 16: 3}
    ok &= all(quantize_pam(s) == c for s, c in table.items())
    notes.append("quantization boundaries")

    _criterion(6, bool(ok), "; ".join(notes))


def test_criterion_7_metrics_oracle():
    def oracle(matrix):
        n = len(matrix)
        total = sum(sum(row) for row in matrix)
        acc = sum(matrix[i][i] for i in range(n)) / total
        precision = recall = f1 = 0.0
        for c in range(n):
            support = sum(matrix[c])
            predicted = sum(matrix[r][c] for r in range(n))
            pc = matrix[c][c] / predicted if predicted else 0.0
            rc = matrix[c][c] / support if support else 0.0
            fc = 2 * pc * rc / (pc + rc) if pc + rc else 0.0
            w = support / total
            precision += w * pc
            recall += w * rc
            f1 += w * fc
        return acc, precision, recall, f1

    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(100):
        cm = rng.integers(0, 30, (4, 4))
        if cm.sum() == 0:
            cm[0, 0] = 1
        rep = report_from_confusion(cm)
        acc, prec, rec, f1 = oracle(cm.tolist())
        worst = max(worst, abs(rep.accuracy - acc), abs(rep.precision - prec),
                    abs(rep.recall - rec), abs(rep.f1 - f1))
    _criterion(7, worst <= 1e-12,
               f"100 random confusion matrices, max deviation {worst:.1e}")


def test_criterion_8_byte_identical_runs(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"format": 1, "mechanism": "combined", "subjects": 6, '
                    '"days": 8, "seed": 21}')
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(["eval", "--data", str(data), "--out", str(out),
                     "--splits", "4", "--seed", "21", "--epochs", "3",
                     "--lr", "3e-3", "--d", "10", "--de", "6", "--dp", "12",
                     "--layers", "2"])
        assert code == 0
        blobs.append((out / "metrics.csv").read_bytes())
    _criterion(8, blobs[0] == blobs[1],
               f"two train+eval runs produced identical {len(blobs[0])}-byte CSVs")


def test_criterion_9_grade_application():
    config = TrainConfig(lr=3e-3, epochs=8, patience=3, seed=13)
    dataset = generate(ScenarioSpec(mechanism="cooccurrence", subjects=16,
                                    days=12, seed=13, gpa=True))
    table = EmbeddingTable.fallback(dataset.vocab, config.d, config.seed)
    samples = dataset.samples(config.span, table)
    fit = train(samples, config, table, dataset.vocab.digest())
    grades = grade_regression(fit.model, dataset, config)
    g, h = grades.graph, grades.handcrafted
    _criterion(9, g.mae < h.mae and g.pearson > h.pearson,
               f"graph reps MAE {g.mae:.3f} / Pearson {g.pearson:.3f} vs "
               f"hand-crafted MAE {h.mae:.3f} / Pearson {h.pearson:.3f}")
