import json
from dataclasses import asdict

import numpy as np
import pytest

from lgbg import autograd as ag
from lgbg import training
from lgbg.autograd import Tape, Tensor
from lgbg.config import TrainConfig
from lgbg.embeddings import EmbeddingTable
from lgbg.errors import NumericError, ValidationError
from lgbg.metrics import (average_reports, classification_report, grade_report,
                          knn_regress_loo)
from lgbg.model import Model
from lgbg.streams import LOCATION, SECONDS_PER_DAY, sort_events
from lgbg.synth import VOCAB, ScenarioSpec, generate, subject_events
from lgbg.training import (cross_entropy, evaluate, grade_regression,
                           node_variance_loss, split_protocol, total_loss, train)

from conftest import ev, events_dataset
from reference import behavior_feature, day_span, day_windows


def tiny_dataset(mechanism="combined", subjects=3, days=6, seed=5,
                 config=None, **spec_kw):
    config = config or TrainConfig(d=8, de=6, dp=10, layers=2, span=3,
                                   seed=seed, lr=3e-3)
    dataset = generate(ScenarioSpec(mechanism=mechanism, subjects=subjects,
                                    days=days, seed=seed, **spec_kw))
    table = EmbeddingTable.fallback(dataset.vocab, config.d, config.seed)
    return dataset, config, table, dataset.samples(config.span, table)


# ---------------------------------------------------------------------------
# losses


def test_cross_entropy_perfect_prediction_zero():
    probs = ag.constant([[0.0 + 1e-300, 1.0, 0.0, 0.0]])
    assert cross_entropy(probs, [1]).item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_uniform_is_ln4():
    probs = ag.constant([[0.25] * 4])
    assert cross_entropy(probs, [2]).item() == pytest.approx(np.log(4), abs=1e-12)


def test_cross_entropy_batch_mean_of_hand_values():
    ps = ag.constant([[0.7, 0.1, 0.1, 0.1], [0.25] * 4, [0.05, 0.05, 0.8, 0.1]])
    labels = [0, 3, 2]
    want = -(np.log(0.7) + np.log(0.25) + np.log(0.8)) / 3
    assert cross_entropy(ps, labels).item() == pytest.approx(want, abs=1e-12)


def test_cross_entropy_clamps_zero_probability():
    probs = ag.constant([[0.0, 1.0, 0.0, 0.0]])
    value = cross_entropy(probs, [0]).item()
    assert value == pytest.approx(-np.log(1e-12), abs=1e-9)


def test_node_variance_identical_states():
    states = ag.constant(np.tile([1.0, 2.0], (5, 1)))
    assert node_variance_loss([states]).item() == pytest.approx(-0.5, abs=1e-15)


def test_node_variance_hand_computation():
    states = ag.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    # per-column population variance is 5, mean 5, loss -sigmoid(5)
    want = -1.0 / (1.0 + np.exp(-5.0))
    assert node_variance_loss([states]).item() == pytest.approx(want, abs=1e-12)


def test_node_variance_range_bound():
    rng = np.random.default_rng(1)
    for _ in range(20):
        states = ag.constant(rng.uniform(-10, 10, (int(rng.integers(2, 9)), 4)))
        value = node_variance_loss([states]).item()
        assert -1.0 < value <= -0.5


def test_node_variance_degenerate_single_state():
    assert node_variance_loss([ag.constant([[1.0, 2.0]])]).item() == -0.5
    assert node_variance_loss([]).item() == -0.5


def test_node_variance_strictly_decreases_moving_off_centroid():
    rng = np.random.default_rng(2)
    base = rng.uniform(-1, 1, (5, 3))
    before = node_variance_loss([ag.constant(base)]).item()
    moved = base.copy()
    centroid = base.mean(axis=0)
    moved[0, 1] += np.sign(moved[0, 1] - centroid[1]) * 0.5 or 0.5
    after = node_variance_loss([ag.constant(moved)]).item()
    assert after < before


def test_total_loss_lambda_zero_is_cross_entropy():
    _, config, table, samples = tiny_dataset()
    model = Model(config, table, "")
    outs = [model.forward(s) for s in samples[:3]]
    labels = [s.label for s in samples[:3]]
    ce = cross_entropy(ag.constant([o.probs.data for o in outs]), labels).item()
    assert total_loss(outs, labels, 0.0).item() == pytest.approx(ce, abs=1e-12)


def test_total_loss_arithmetic():
    ce = ag.constant(1.0)
    ln = ag.constant(-0.6)
    assert ag.add(ce, ag.mul(ln, 1.0)).item() == pytest.approx(0.4)


def test_total_loss_gradients_match_finite_differences():
    _, config, table, samples = tiny_dataset(subjects=2, days=4, seed=3)
    samples = samples[:2]
    model = Model(config, table, "")
    labels = [s.label for s in samples]

    def f():
        outs = [model.forward(s) for s in samples]
        return total_loss(outs, labels, config.lam)

    errors = ag.finite_diff_errors(f, model.parameters(), eps=1e-5,
                                   coords_per_param=3, seed=0)
    assert max(errors) < 1e-4


def test_edgeless_batch_gradients_match_finite_differences():
    """With both edge kinds off, the edge pool runs on zero rows: its
    backward must give the edge maps an exact zero gradient."""
    _, config, table, samples = tiny_dataset(subjects=2, days=4, seed=3)
    config = config.replace(use_homogeneous=False, use_heterogeneous=False)
    model = Model(config, table, "")
    samples = samples[:2]

    def f():
        return total_loss(model.forward_batch(samples), [s.label for s in samples],
                          config.lam)

    errors = ag.finite_diff_errors(f, model.parameters(), eps=1e-5,
                                   coords_per_param=3, seed=0)
    assert max(errors) < 1e-4
    for name in ("gnn.edge_proj", "gnn.edge_query_proj"):     # analytic, kept by the check
        assert not model.named_parameters()[name].grad.any()
    assert model.named_parameters()["gnn.rep_proj"].grad.any()


def test_loss_records_the_same_tape_ops_for_every_batch_size():
    _, config, table, samples = tiny_dataset(subjects=3, days=9, seed=5)
    samples = [s for s in samples if all(g.edges for g in s.graphs)]
    assert len(samples) >= 16
    model = Model(config, table, "")
    counts = []
    for n in (1, 4, 16):
        batch = samples[:n]
        with Tape() as tape:
            total_loss(model.forward_batch(batch), [s.label for s in batch], config.lam)
        counts.append(len(tape))
    assert counts[0] == counts[1] == counts[2], counts


# ---------------------------------------------------------------------------
# training loop


def test_single_sample_memorization():
    _, config, table, samples = tiny_dataset(subjects=1, days=3, seed=9)
    config = config.replace(lam=0.0, epochs=150, lr=0.05, batch_size=1)
    result = train(samples[:1], config, table)
    out = result.model.forward(samples[0])
    ce = -np.log(out.probs.data[samples[0].label])
    assert ce < 0.01


def test_lambda_changes_trajectory():
    _, config, table, samples = tiny_dataset(subjects=2, days=5, seed=4)
    fit0 = train(samples, config.replace(lam=0.0, epochs=2), table)
    fit1 = train(samples, config.replace(lam=0.1, epochs=2), table)
    p0 = fit0.model.named_parameters()["gnn.layer0.audio.self"].data
    p1 = fit1.model.named_parameters()["gnn.layer0.audio.self"].data
    assert not np.array_equal(p0, p1)


def test_training_is_bitwise_deterministic():
    def run():
        _, config, table, samples = tiny_dataset(subjects=2, days=5, seed=6)
        fit = train(samples, config.replace(epochs=3), table)
        report = evaluate(fit.model, samples)
        return fit.model.snapshot(), report

    snap1, rep1 = run()
    snap2, rep2 = run()
    for key in snap1:
        assert np.array_equal(snap1[key], snap2[key])
    assert rep1 == rep2


def test_empty_training_set_rejected():
    _, config, table, _ = tiny_dataset()
    with pytest.raises(ValidationError):
        train([], config, table)


def test_nan_loss_aborts_with_dump(tmp_path, monkeypatch):
    _, config, table, samples = tiny_dataset(subjects=2, days=5, seed=6)
    monkeypatch.setattr(training, "total_loss",
                        lambda outs, labels, lam: Tensor(np.nan, requires_grad=True))
    with pytest.raises(NumericError, match="offending batch"):
        train(samples, config.replace(epochs=1), table, dump_dir=tmp_path)
    assert (tmp_path / "nan_batch.json").exists()


# ---------------------------------------------------------------------------
# metrics


def metrics_oracle(y_true, y_pred, n_classes=4):
    """Independent plain-python weighted precision/recall/F1."""
    precision = recall = f1 = 0.0
    total = len(y_true)
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        support = tp + fn
        pc = tp / (tp + fp) if tp + fp else 0.0
        rc = tp / (tp + fn) if tp + fn else 0.0
        fc = 2 * pc * rc / (pc + rc) if pc + rc else 0.0
        precision += support / total * pc
        recall += support / total * rc
        f1 += support / total * fc
    accuracy = sum(1 for t, p in zip(y_true, y_pred) if t == p) / total
    return accuracy, precision, recall, f1


def test_metrics_perfect_predictions():
    rep = classification_report([0, 1, 2, 3, 1], [0, 1, 2, 3, 1])
    assert (rep.accuracy, rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0, 1.0)


def test_metrics_constant_predictor_balanced():
    y_true = [0, 1, 2, 3] * 5
    rep = classification_report(y_true, [2] * 20)
    assert rep.accuracy == 0.25


def test_metrics_match_independent_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(4, 60))
        y_true = rng.integers(0, 4, n).tolist()
        y_pred = rng.integers(0, 4, n).tolist()
        rep = classification_report(y_true, y_pred)
        acc, prec, rec, f1 = metrics_oracle(y_true, y_pred)
        assert abs(rep.accuracy - acc) <= 1e-12
        assert abs(rep.precision - prec) <= 1e-12
        assert abs(rep.recall - rec) <= 1e-12
        assert abs(rep.f1 - f1) <= 1e-12


def test_evaluate_invariant_to_sample_order():
    _, config, table, samples = tiny_dataset(subjects=2, days=5, seed=8)
    model = Model(config, table, "")
    fwd = evaluate(model, samples)
    rev = evaluate(model, samples[::-1])
    assert fwd.accuracy == rev.accuracy
    assert fwd.confusion == rev.confusion


def test_confusion_rows_are_class_counts():
    _, config, table, samples = tiny_dataset(subjects=2, days=6, seed=8)
    rep = evaluate(Model(config, table, ""), samples)
    counts = [sum(1 for s in samples if s.label == c) for c in range(4)]
    assert [sum(row) for row in rep.confusion] == counts


def test_average_reports_means_metrics():
    r1 = classification_report([0, 1], [0, 1], task="a")
    r2 = classification_report([0, 1], [1, 0], task="b")
    avg = average_reports([r1, r2])
    assert avg.accuracy == pytest.approx(0.5)
    assert avg.n == 4


# ---------------------------------------------------------------------------
# split protocol


def test_split_protocol_loo_when_k_equals_n():
    tasks = split_protocol(10, 10, seed=0)
    assert len(tasks) == 10
    assert all(len(test) == 1 for _, test in tasks)


def test_split_protocol_partitions():
    tasks = split_protocol(23, 5, seed=1)
    seen = np.concatenate([test for _, test in tasks])
    assert sorted(seen.tolist()) == list(range(23))
    for tr, te in tasks:
        assert set(tr.tolist()).isdisjoint(te.tolist())
        assert len(tr) + len(te) == 23


def test_split_protocol_deterministic():
    a = split_protocol(40, 10, seed=3)
    b = split_protocol(40, 10, seed=3)
    for (tr1, te1), (tr2, te2) in zip(a, b):
        assert np.array_equal(tr1, tr2)
        assert np.array_equal(te1, te2)


def test_split_protocol_rejects_too_many_splits():
    with pytest.raises(ValidationError):
        split_protocol(5, 10, seed=0)


def test_run_protocol_tests_a_frozen_model_on_every_split_and_trains_nothing(
        monkeypatch):
    _, config, table, samples = tiny_dataset(subjects=2, days=6, seed=8)
    config = config.replace(splits=3)
    model = Model(config, table, "")

    def no_training(*args, **kwargs):
        raise AssertionError("a frozen model is not trained")

    monkeypatch.setattr(training, "train", no_training)
    result = training.run_protocol(samples, config, table, model=model)
    tasks = split_protocol(len(samples), config.splits, config.seed)
    assert len(result.reports) == 3
    for i, (report, (_, test)) in enumerate(zip(result.reports, tasks)):
        assert report == evaluate(model, [samples[j] for j in test], task=f"task-{i + 1}")
    assert result.average == average_reports(result.reports)


# ---------------------------------------------------------------------------
# grades


def test_grade_report_perfect():
    rep = grade_report([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert rep.mae == 0.0
    assert rep.r2 == pytest.approx(1.0)
    assert rep.pearson == pytest.approx(1.0)


def test_grade_report_constant_predictions_flagged():
    rep = grade_report([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert rep.degenerate
    assert rep.pearson == 0.0
    assert rep.r2 <= 0.0


def test_knn_loo_hand_case():
    # two tight clusters; each point's neighbors share its cluster value
    feats = np.array([[0.0], [0.1], [0.05], [5.0], [5.1], [5.05]])
    targets = np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0])
    preds = knn_regress_loo(feats, targets, k=2)
    assert np.allclose(preds, targets, atol=1e-9)


def test_knn_requires_two_subjects():
    with pytest.raises(ValidationError):
        knn_regress_loo(np.zeros((1, 3)), np.array([1.0]))


def test_grade_regression_requires_two_usable_subjects():
    dataset, config, table, _ = tiny_dataset(subjects=1, days=4, seed=2, gpa=True)
    model = Model(config, table, "")
    with pytest.raises(ValidationError):
        grade_regression(model, dataset, config)


def test_grade_baseline_is_the_event_side_feature_sum_bit_for_bit(monkeypatch):
    """The baseline read from node hours is, bit for bit, the per-day
    features summed from each day's events, and so are its predictions. Each
    subject has a stay that straddles midnight and the day boundary at the
    origin, and day 0 starts before the origin."""
    features = []

    def knn(feats, gpas, k):
        features.append(feats)
        return knn_regress_loo(feats, gpas, k=k)
    monkeypatch.setattr(training, "knn_regress_loo", knn)
    config = TrainConfig(d=8, de=6, dp=10, layers=2, span=3, seed=8, lr=3e-3)
    table = EmbeddingTable.fallback(VOCAB, config.d, config.seed)
    spec = ScenarioSpec(mechanism="combined", subjects=5, days=7, seed=8, gpa=True)
    cohort = []
    for i, (subject, streams, labels, gpa) in enumerate(subject_events(spec)):
        streams[LOCATION] = sort_events(streams[LOCATION] + [
            ev(LOCATION, "dorm", d * SECONDS_PER_DAY - 1800 - 7 * i,
               d * SECONDS_PER_DAY + 7200 + 13 * i) for d in range(1, 7)])
        cohort.append((subject, streams, labels, gpa))
    dataset = events_dataset(VOCAB, cohort, 5000)
    result = grade_regression(Model(config, table, ""), dataset, config)

    ref = []
    for _, streams, _, _ in cohort:
        hand = np.zeros(108)
        for window in day_windows(streams, 5000, day_span(streams, 5000)):
            hand += behavior_feature(window, VOCAB)
        ref.append(hand)
    gpas = np.array([gpa for _, _, _, gpa in cohort])
    want = grade_report(gpas, knn_regress_loo(np.stack(ref), gpas, k=config.knn_k))
    assert np.array_equal(features[1], np.stack(ref))
    assert result.handcrafted.predictions == want.predictions
    assert result.subjects == [subject for subject, _, _, _ in cohort]


def test_grade_skips_subjects_without_a_grade_or_a_full_span():
    """A subject without a grade, or whose events cover fewer days than a
    span, is left out with its reason, and the others grade as they would
    alone. s003's labels run to day 4, but its events stop after day 1."""
    config = TrainConfig(d=8, de=6, dp=10, layers=2, span=3, seed=4)
    table = EmbeddingTable.fallback(VOCAB, config.d, config.seed)
    model = Model(config, table, VOCAB.digest())
    cohort = list(subject_events(ScenarioSpec(mechanism="combined", subjects=5, days=5,
                                              seed=4, gpa=True)))
    subject, streams, labels, _ = cohort[1]
    cohort[1] = (subject, streams, labels, None)
    subject, streams, labels, gpa = cohort[3]
    cohort[3] = (subject, {s: [e for e in evs if e.end <= 2 * SECONDS_PER_DAY]
                           for s, evs in streams.items()}, labels, gpa)
    result = grade_regression(model, events_dataset(VOCAB, cohort), config)
    assert result.skipped == {"s001": "no grade", "s003": "2 days, fewer than span 3"}
    assert result.subjects == ["s000", "s002", "s004"]
    alone = grade_regression(model, events_dataset(VOCAB, cohort[0::2]), config)
    assert (result.graph, result.handcrafted) == (alone.graph, alone.handcrafted)
    assert alone.skipped == {}

    ungraded = generate(ScenarioSpec(mechanism="combined", subjects=4, days=5))
    with pytest.raises(ValidationError, match="need at least 2 subjects"):
        grade_regression(model, ungraded, config)


def test_grade_result_round_trips_through_json():
    dataset, config, table, _ = tiny_dataset(subjects=4, days=5, seed=6, gpa=True)
    result = grade_regression(Model(config, table, ""), dataset, config)
    result.handcrafted = grade_report([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert result.handcrafted.degenerate is True and result.graph.degenerate is False
    doc = asdict(result)
    assert json.loads(json.dumps(doc)) == doc
