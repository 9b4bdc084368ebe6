"""Losses, the optimization loop, the k-split protocol and the grade task,
with one writer, `csv_text`, for the history and metrics tables."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Adam, Tape, Tensor
from .config import TrainConfig
from .dataset import Dataset
from .embeddings import EmbeddingTable
from .errors import NumericError, ValidationError
from .graphs import GlobalSample, span_samples
from .metrics import (EvalReport, GradeReport, average_reports,
                      classification_report, grade_report, knn_regress_loo)
from .model import Model, SampleOutput
from .schema import write_text
from .streams import FEATURE_DIM

PROB_FLOOR = 1e-12


def cross_entropy(probs: Tensor, labels: list[int]) -> Tensor:
    """Mean of -log p[label] over the rows of n x 4 `probs`; zeros clamp to 1e-12."""
    if probs.data.ndim != 2 or probs.data.shape[0] != len(labels) or not labels:
        raise ValidationError("probabilities and labels must pair up")
    picked = ag.pick(probs, (np.arange(len(labels)), np.asarray(labels)))
    return ag.mean(ag.neg(ag.log(ag.clamp_min(picked, PROB_FLOOR))))


def node_variance_loss(state_matrices: list[Tensor]) -> Tensor:
    """-sigmoid(mean per-dimension population variance) over all node states.

    Fewer than two states degenerate to the value at zero variance (-0.5).
    """
    mats = [m for m in state_matrices if m is not None]
    total_rows = sum(m.data.shape[0] for m in mats)
    if total_rows < 2:
        return ag.constant(-0.5)
    stacked = ag.concat(mats, axis=0)
    centered = ag.sub_rowvec(stacked, ag.col_mean(stacked))
    variances = ag.col_mean(ag.mul(centered, centered))
    return ag.neg(ag.sigmoid(ag.mean(variances)))


def _joined(outputs: list[SampleOutput], matrix) -> tuple[Tensor | None, dict[int, int]]:
    """The matrices `matrix(batch)` of the distinct batches of `outputs`,
    joined row-wise (None adds no rows), and each batch's first row there."""
    mats = {id(o.batch): matrix(o.batch) for o in outputs}
    sizes = [0 if m is None else m.data.shape[0] for m in mats.values()]
    parts = [m for m in mats.values() if m is not None]
    start = dict(zip(mats, np.cumsum([0] + sizes).tolist()))
    return (ag.concat(parts, axis=0) if parts else None), start


def total_loss(outputs: list[SampleOutput], labels: list[int],
               lam: float) -> Tensor:
    """Classification loss plus lambda times the node variance constraint,
    each read by one gather from the join of the outputs' batches (a
    training step has one). A day that two outputs share counts in each."""
    probs, start = _joined(outputs, lambda b: b.probs)
    ce = cross_entropy(ag.gather_rows(probs, [start[id(o.batch)] + o.index
                                              for o in outputs]), labels)
    states, start = _joined(outputs, lambda b: None if b.readout is None
                            else b.readout.states)
    rows = np.concatenate([start[id(o.batch)] + o.node_rows() for o in outputs])
    nodes = ag.gather_rows(states, rows) if rows.size else None
    return ag.add(ce, ag.mul(node_variance_loss([nodes]), lam))


def csv_text(columns: list[str], rows: list[dict]) -> str:
    """`columns` of `rows` as CSV lines: a float as its repr, which reads back
    bit for bit, None as an empty cell and any other value through `str`."""
    def cell(value) -> str:
        return "" if value is None else repr(value) if isinstance(value, float) else str(value)
    lines = [",".join(columns)] + [",".join(cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    model: Model
    history: list[dict] = field(default_factory=list)
    best_epoch: int | None = None

    def history_csv(self) -> str:
        return csv_text(["epoch", "train_loss", "val_loss", "val_accuracy"], self.history)


def _batch_eval(model: Model, samples: list[GlobalSample]) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) without gradient recording."""
    outputs = list(model.forward_all(samples))
    labels = [s.label for s in samples]
    # forward_all's outputs run chunk by chunk, so the join is in sample order.
    loss = cross_entropy(_joined(outputs, lambda b: b.probs)[0], labels).item()
    correct = sum(int(o.predicted() == label) for o, label in zip(outputs, labels))
    return loss, correct / len(samples)


def train(samples: list[GlobalSample], config: TrainConfig, table: EmbeddingTable,
          vocab_digest: str = "", dump_dir=None) -> TrainResult:
    """Deterministic Adam training with plateau early stopping.

    A held-out fraction of the training samples drives early stopping when
    the dataset is big enough to spare it; the best-validation parameters are
    restored at the end. A non-finite loss aborts with a dump of the batch.
    """
    if not samples:
        raise ValidationError("empty training set")
    model = Model(config, table, vocab_digest)
    optimizer = Adam(model.parameters(), lr=config.lr)
    rng = np.random.default_rng(config.seed)

    n = len(samples)
    perm = rng.permutation(n)
    # At least one sample is held out once there are 8, and one is trained on.
    val_n = min(n - 1, max(1, int(round(n * config.val_fraction)))) if n >= 8 else 0
    val_idx = perm[:val_n]
    train_idx = perm[val_n:]
    val_set = [samples[i] for i in val_idx]

    result = TrainResult(model=model)
    best_val = np.inf
    best_snap = None
    stale = 0
    for epoch in range(config.epochs):
        order = rng.permutation(train_idx)
        epoch_losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = [samples[i] for i in order[lo:lo + config.batch_size]]
            labels = [s.label for s in batch]
            optimizer.zero_grad()
            try:
                with Tape() as tape:
                    outputs = model.forward_batch(batch)
                    loss = total_loss(outputs, labels, config.lam)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError("loss is not finite")
                tape.backward(loss)
            except NumericError as e:
                _dump_bad_batch(batch, epoch, str(e), dump_dir)
                raise NumericError(
                    f"aborted at epoch {epoch}: {e}; offending batch "
                    f"{[(s.subject, s.anchor_day) for s in batch]}") from e
            optimizer.step()
            epoch_losses.append((value, len(batch)))

        weights = np.array([w for _, w in epoch_losses], dtype=np.float64)
        train_loss = float(np.dot([v for v, _ in epoch_losses], weights) / weights.sum())
        val_loss = val_acc = None
        if val_set:
            val_loss, val_acc = _batch_eval(model, val_set)
        result.history.append({"epoch": epoch, "train_loss": train_loss,
                               "val_loss": val_loss, "val_accuracy": val_acc})
        if val_set:
            if val_loss < best_val - 1e-6:
                best_val = val_loss
                best_snap = model.snapshot()
                result.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    if best_snap is not None:
        model.restore(best_snap)
    return result


def _dump_bad_batch(batch, epoch, message, dump_dir) -> None:
    if dump_dir is None:
        return
    doc = {"epoch": epoch, "message": message,
           "batch": [{"subject": s.subject, "anchor_day": s.anchor_day,
                      "label": s.label} for s in batch]}
    write_text(Path(dump_dir, "nan_batch.json"), json.dumps(doc, indent=2) + "\n")


def evaluate(model: Model, samples: list[GlobalSample], task: str = "") -> EvalReport:
    if not samples:
        raise ValidationError("no samples to evaluate")
    y_true = [s.label for s in samples]
    y_pred = [out.predicted() for out in model.forward_all(samples)]
    return classification_report(y_true, y_pred, task=task)


def split_protocol(n: int, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic shuffled partition into k disjoint covering test splits."""
    if k > n:
        raise ValidationError(f"cannot make {k} splits from {n} samples")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k)
    tasks = []
    for i in range(k):
        test = folds[i]
        train_parts = [folds[j] for j in range(k) if j != i]
        tasks.append((np.concatenate(train_parts), test))
    return tasks


@dataclass
class ProtocolResult:
    reports: list[EvalReport]
    average: EvalReport

    def metrics_csv(self) -> str:
        return csv_text(["task", "n", "accuracy", "precision", "recall", "f1"],
                        [r.row() for r in self.reports + [self.average]])


def run_protocol(samples: list[GlobalSample], config: TrainConfig,
                 table: EmbeddingTable, vocab_digest: str = "",
                 model: Model | None = None) -> ProtocolResult:
    """Train on k-1 splits and test on the held-out one, for every split.

    Given a frozen `model`, test it on every split and train nothing: its
    prediction of a sample is the same in every split, so every sample is
    forwarded once, in order, and neighbouring spans share their days. The
    splits are the same, drawn from `config.splits` and `config.seed`.
    """
    tasks = split_protocol(len(samples), config.splits, config.seed)
    if model is not None:
        predicted = [out.predicted() for out in model.forward_all(samples)]
    reports = []
    for i, (train_ids, test_ids) in enumerate(tasks):
        task = f"task-{i + 1}"
        if model is None:
            fitted = train([samples[j] for j in train_ids], config, table,
                           vocab_digest).model
            reports.append(evaluate(fitted, [samples[j] for j in test_ids], task=task))
        else:
            reports.append(classification_report([samples[j].label for j in test_ids],
                                                 [predicted[j] for j in test_ids],
                                                 task=task))
    return ProtocolResult(reports=reports, average=average_reports(reports))


@dataclass
class GradeResult:
    graph: GradeReport
    handcrafted: GradeReport
    subjects: list[str]
    skipped: dict[str, str]  # subject -> why it is left out


def grade_regression(model: Model, dataset: Dataset, config: TrainConfig) -> GradeResult:
    """Leave-one-out KNN grade prediction from frozen graph representations,
    against the per-day duration-vector baseline summed over the term.

    A subject's days run from day 0 through its last day with an event, and
    its representation is the mean over the spans that end on each of them.
    The baseline adds each node's hours, day by day, into the concept's slot
    of the 108-entry layout (`Vocabulary.feature_index`), reading the same
    day graphs. A subject without a grade, or with fewer than `config.span`
    days, is left out and listed in `skipped` with the reason."""
    model.table.check_rows(dataset.vocab)
    usable, skipped = [], {}
    for rec in dataset.subjects:
        n_days = max((g.day_index + 1 for g in rec.days if not g.is_empty()), default=0)
        if rec.gpa is None:
            skipped[rec.subject] = "no grade"
        elif n_days < config.span:
            skipped[rec.subject] = f"{n_days} days, fewer than span {config.span}"
        else:
            usable.append((rec, n_days))
    if len(usable) < 2:
        raise ValidationError("need at least 2 subjects with a grade and a full span "
                              "of days")

    graph_feats, hand_feats = [], []
    for rec, n_days in usable:
        anchors = {d: 0 for d in range(config.span - 1, n_days)}
        samples = span_samples(rec.days, anchors, config.span, rec.subject)
        reps = np.stack([out.g_star for out in model.forward_all(samples)])
        graph_feats.append(reps.mean(axis=0))
        hand = np.zeros(FEATURE_DIM)
        for day in rec.days[:n_days]:
            for node in day.nodes:
                hand[dataset.vocab.feature_index(node.stream, node.concept)] += node.attribute
        hand_feats.append(hand)

    gpas = np.array([rec.gpa for rec, _ in usable])
    ours = knn_regress_loo(np.stack(graph_feats), gpas, k=config.knn_k)
    base = knn_regress_loo(np.stack(hand_feats), gpas, k=config.knn_k)
    return GradeResult(graph=grade_report(gpas, ours),
                       handcrafted=grade_report(gpas, base),
                       subjects=[rec.subject for rec, _ in usable], skipped=skipped)
