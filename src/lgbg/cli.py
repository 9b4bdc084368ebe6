"""Command line entry point.

Exit codes: 0 success, 1 internal/numeric failure, 2 input validation
failure, which every malformed input file is (see `lgbg.schema`). The
LGBG_SEED environment variable overrides the default seed; explicit flags
win over config-file values which win over the environment.
Commands only write under their --out target.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import autograd as ag
from .config import TrainConfig, config_from_dict, read_config, save_config
from .dataset import load_dataset, write_dataset
from .embeddings import EmbeddingTable
from .errors import DimensionError, LgbgError, NumericError, ValidationError
from .graphs import LocalContextGraph, build_days, dump_graph
from .model import Model
from .schema import write_text
from .streams import Vocabulary, parse_event_log
from .synth import VOCAB, ScenarioSpec, generate, subject_events
from .training import evaluate, run_protocol, total_loss, train

GRADCHECK_TOLERANCE = 1e-4

_CONFIG_FLAGS = [
    ("--seed", int, "seed"),
    ("--lambda", float, "lam"),
    ("--layers", int, "layers"),
    ("--d", int, "d"),
    ("--de", int, "de"),
    ("--dp", int, "dp"),
    ("--span", int, "span"),
    ("--lr", float, "lr"),
    ("--epochs", int, "epochs"),
    ("--batch-size", int, "batch_size"),
    ("--patience", int, "patience"),
    ("--splits", int, "splits"),
    ("--knn-k", int, "knn_k"),
    ("--day-origin", int, "day_origin"),
]
# Switches without a value: (flag, field, the value the flag sets).
_CONFIG_SWITCHES = [("--linear-layers", "linear_layers", True),
                    ("--no-homo", "use_homogeneous", False),
                    ("--no-hetero", "use_heterogeneous", False)]


# Fields that `eval --checkpoint` takes from the checkpoint; a flag or a
# config key that sets one of them otherwise draws a warning (`_fixed`).
_CHECKPOINT_FIELDS = ("d", "de", "dp", "layers", "span", "use_homogeneous",
                      "use_heterogeneous", "linear_layers")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for flag, typ, dest in _CONFIG_FLAGS:
        parser.add_argument(flag, type=typ, dest=dest, default=None)
    for flag, dest, value in _CONFIG_SWITCHES:
        parser.add_argument(flag, action="store_const", const=value, default=None,
                            dest=dest)
    parser.add_argument("--config", default=None, help="JSON config file")


def _env_seed(default: int) -> int:
    """LGBG_SEED when it is set, else `default`."""
    text = os.environ.get("LGBG_SEED")
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"LGBG_SEED must be an integer, got {text!r}") from None


def _config_and_given(args) -> tuple[TrainConfig, set[str]]:
    """The effective config, and the fields that --config or a flag set."""
    config = TrainConfig()
    config = config.replace(seed=_env_seed(config.seed))
    given = set()
    if getattr(args, "config", None):
        values = read_config(args.config)
        config = config_from_dict(values, config)
        given |= set(values)
    names = [dest for _, _, dest in _CONFIG_FLAGS] + [dest for _, dest, _ in _CONFIG_SWITCHES]
    overrides = {name: getattr(args, name) for name in names
                 if getattr(args, name, None) is not None}
    return config_from_dict(overrides, config), given | set(overrides)


def _fixed(config: TrainConfig, given: set[str], fixed: dict, source: str) -> TrainConfig:
    """`config` with the `fixed` values, which `source` sets; one warning per
    field that a flag or config key set to another value."""
    for name, value in fixed.items():
        if name in given and getattr(config, name) != value:
            print(f"warning: {name} {json.dumps(getattr(config, name))} is ignored; "
                  f"the {source}'s {json.dumps(value)} is used", file=sys.stderr)
    return config.replace(**fixed)


def _table_for(args, vocab: Vocabulary, config: TrainConfig) -> EmbeddingTable:
    if getattr(args, "embeddings", None):
        return EmbeddingTable.from_file(args.embeddings, vocab, config.d, config.seed)
    return EmbeddingTable.fallback(vocab, config.d, config.seed)


def cmd_build_graph(args) -> int:
    vocab = Vocabulary.load(args.vocab)
    config, _ = _config_and_given(args)
    parsed = parse_event_log(args.log, vocab)
    if args.embeddings:
        # Day files hold no vectors, but a bad --embeddings file still exits 2.
        _table_for(args, vocab, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # graphs.json is written last and marks a complete build, so a rebuild
    # first drops the marker of the build it overwrites.
    (out / "graphs.json").unlink(missing_ok=True)
    days = parsed.day_span(config.day_origin)
    if days == 0:
        print("warning: no events after the day origin; nothing to build", file=sys.stderr)
    # Each day's text is written as soon as its graph is made.
    graphs = build_days(parsed, vocab, days, config.day_origin)
    graph = next(graphs, None)
    for d in range(days):
        if graph is not None and graph.day_index == d:
            dump_graph(graph, out / f"day_{d:05d}.json")
            graph = next(graphs, None)
        else:
            dump_graph(LocalContextGraph(d), out / f"day_{d:05d}.json")
    # Day files of an earlier, longer build are stale once this build's are
    # in; MAX_DAYS keeps every day index to five digits.
    for path in out.glob("day_" + "[0-9]" * 5 + ".json"):
        if int(path.name[4:9]) >= days:
            path.unlink()
    spans = [list(range(d - config.span + 1, d + 1))
             for d in range(config.span - 1, days)]
    index = {"format": 1, "days": days, "span": config.span, "samples": spans,
             "remapped_locations": parsed.remapped_locations,
             "deduplicated": parsed.deduplicated,
             "before_origin": parsed.before_origin(config.day_origin)}
    write_text(out / "graphs.json", json.dumps(index, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_train(args) -> int:
    config, given = _config_and_given(args)
    data = load_dataset(args.data)
    config = _fixed(config, given, {"day_origin": data.day_origin}, "dataset")
    table = _table_for(args, data.vocab, config)
    samples = data.samples(config.span, table)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = train(samples, config, table, data.vocab.digest(), dump_dir=out)
    result.model.save(out / "checkpoint.json")
    write_text(out / "history.csv", result.history_csv())
    save_config(config, out / "config.json")
    report = evaluate(result.model, samples, task="train-set")
    write_text(out / "train_report.json",
               json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")
    print(f"trained on {len(samples)} samples; train-set accuracy "
          f"{report.accuracy:.4f}; checkpoint at {out / 'checkpoint.json'}")
    return 0


def cmd_eval(args) -> int:
    if args.checkpoint and args.embeddings:
        raise ValidationError("--embeddings cannot be used with --checkpoint: "
                              "the checkpoint holds its own embedding table")
    config, given = _config_and_given(args)
    data = load_dataset(args.data)
    config = _fixed(config, given, {"day_origin": data.day_origin}, "dataset")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = None
    if args.checkpoint:
        model = Model.load(args.checkpoint, vocab=data.vocab)
        # The echoed config is the one the checkpoint's model runs with.
        config = _fixed(config, given,
                        {k: getattr(model.config, k) for k in _CHECKPOINT_FIELDS},
                        "checkpoint").replace(batch_size=model.config.batch_size)
    table = model.table if model else _table_for(args, data.vocab, config)
    protocol = run_protocol(data.samples(config.span, table), config, table,
                            data.vocab.digest(), model=model)
    csv = protocol.metrics_csv()
    rows = [asdict(r) for r in protocol.reports + [protocol.average]]
    write_text(out / "metrics.csv", csv)
    write_text(out / "metrics.json", json.dumps(rows, indent=2, sort_keys=True) + "\n")
    save_config(config, out / "config.json")
    print(csv, end="")
    return 0


def cmd_synth(args) -> int:
    spec = ScenarioSpec.load(args.spec)
    manifest = write_dataset(args.out, VOCAB, subject_events(spec),
                             scenario=spec.to_dict())
    n_days = sum(len(s["labels"]) for s in manifest["subjects"])
    print(f"wrote {len(manifest['subjects'])} subjects, {n_days} labeled days "
          f"to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    data = load_dataset(args.data)
    model = Model.load(args.checkpoint, vocab=data.vocab)
    try:
        subject, day_text = args.sample.rsplit(":", 1)
        anchor = int(day_text)
    except ValueError:
        raise ValidationError(f"--sample must look like subject:day, got {args.sample!r}")
    samples = data.samples(model.config.span, model.table)
    matches = [s for s in samples if s.subject == subject and s.anchor_day == anchor]
    if not matches:
        raise ValidationError(f"no sample for subject {subject!r} anchor day {anchor}")
    out = model.forward(matches[0])
    doc = {"subject": subject, "anchor_day": anchor, "label": matches[0].label,
           "predicted": out.predicted(),
           "probabilities": [float(p) for p in out.probs.data]}
    doc.update(out.attention_export())
    write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote attention export to {args.out}")
    return 0


def _gradcheck_setup(seed: int):
    """Small but full-coverage model plus a 2-sample batch for checking."""
    config = TrainConfig(d=8, de=6, dp=10, layers=2, span=3, seed=seed)
    dataset = generate(ScenarioSpec(mechanism="combined", subjects=2, days=4,
                                    seed=seed))
    table = EmbeddingTable.fallback(dataset.vocab, config.d, config.seed)
    samples = dataset.samples(config.span, table)[:2]
    model = Model(config, table, dataset.vocab.digest())

    def loss_fn():
        return total_loss(model.forward_batch(samples), [s.label for s in samples],
                          config.lam)

    return model, loss_fn


def cmd_gradcheck(args) -> int:
    seed = _env_seed(0) if args.seed is None else args.seed
    model, loss_fn = _gradcheck_setup(seed)
    named = model.named_parameters()
    errors = ag.finite_diff_errors(loss_fn, list(named.values()), eps=1e-5,
                                   coords_per_param=4, seed=seed)
    worst = 0.0
    for name, err in zip(named, errors):
        print(f"{name:40s} {err:.3e}")
        worst = max(worst, err)
    ok = worst < GRADCHECK_TOLERANCE
    print(f"max relative error {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {GRADCHECK_TOLERANCE:g})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lgbg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="dump per-day context graphs")
    p.add_argument("--log", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--embeddings", default=None)
    _add_config_flags(p)
    p.set_defaults(run=cmd_build_graph)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--embeddings", default=None)
    _add_config_flags(p)
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("eval", help="k-split protocol (or frozen checkpoint eval)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--embeddings", default=None)
    _add_config_flags(p)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_synth)

    p = sub.add_parser("inspect", help="export attention weights for one sample")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--sample", required=True, help="subject:anchor_day")
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_inspect)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=None,
                   help="default: LGBG_SEED, else 0")
    p.set_defaults(run=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every Tensor is checked for NaN and Inf and raises NumericError;
        # numpy's overflow warnings would only repeat that failure.
        with np.errstate(all="ignore"):
            return args.run(args)
    except (NumericError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (LgbgError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
