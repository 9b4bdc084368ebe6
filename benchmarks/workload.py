"""One workload's program job, run in a fresh process by run.py.

    python3 benchmarks/workload.py --workload <name> --inputs <dir>
        --seed <n> --seconds <s> --trace <0|1> --out <result.json> [--setup-only]

Set-up is timed from just before `import lgbg` until the first item can be
processed. The timed phase then repeats whole rounds until `--seconds` have
been spent in them; every round does the same work:

* train_combined: one `run_protocol` (k-split training and test) on freshly
  built samples; an item is one training sample taken through forward,
  backward and Adam.
* eval_frozen: `evaluate` on every split of a frozen checkpoint, on freshly
  built samples; an item is one sample classified.
* ingest_long_logs: one `lgbg build-graph` over one year-long log; an item
  is one day graph built and written.

Only the stdlib is imported before the set-up clock starts. The outputs that
run.py checks are written to `--out` with the measurements.
"""

import argparse
import contextlib
import gc
import json
import os
import shutil
import sys
import time

_T0 = time.perf_counter()

MIN_ROUNDS = 3


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class NullRecorder:
    """Stands in for tracing.Recorder when the run is not traced."""

    tape_ops = 0
    tensors = 0

    def open(self, name):
        return None

    def close(self, rec):
        pass

    def span(self, name):
        return contextlib.nullcontext()


class Hooks:
    """Records which samples `run_protocol` trains and tests on, and the
    training history of each split, by wrapping `train` and `evaluate` where
    `lgbg.training` looks them up."""

    def __init__(self, training_module):
        self.splits = []
        self._train = training_module.train
        self._evaluate = training_module.evaluate
        training_module.train = self.train
        training_module.evaluate = self.evaluate

    def train(self, samples, *args, **kwargs):
        result = self._train(samples, *args, **kwargs)
        self.splits.append({"train": [[s.subject, s.anchor_day] for s in samples],
                            "history": result.history})
        return result

    def evaluate(self, model, samples, *args, **kwargs):
        self.splits[-1]["test"] = [[s.subject, s.anchor_day] for s in samples]
        return self._evaluate(model, samples, *args, **kwargs)


def _report_doc(report) -> dict:
    return report.row() | {"confusion": report.confusion}


def _train_items(split_sizes, epochs, val_fraction):
    """Training samples per round: each split holds out a validation share
    (as `lgbg.train` does) and trains `epochs` full passes on the rest."""
    items = 0
    for n in split_sizes:
        val_n = max(1, int(round(n * val_fraction))) if n >= 8 else 0
        items += epochs * (n - val_n)
    return items


def main(argv=None) -> int:
    args = _args(argv)
    recorder = NullRecorder()
    if args.trace:
        import tracing
        recorder = tracing.Recorder()
    setup_span = recorder.open("phase:setup")
    with recorder.span("setup.import_lgbg"):
        import lgbg
        import lgbg.cli
        import lgbg.dataset
        import lgbg.training
    missing = recorder.install() if args.trace else []
    inputs = args.inputs
    ingest = args.workload == "ingest_long_logs"
    if not ingest:
        import inputs as spec
        data_dir = os.path.join(inputs, "data")
        with recorder.span("dataset.load_dataset"):
            data = lgbg.dataset.load_dataset(data_dir)
        if args.workload == "train_combined":
            config = lgbg.TrainConfig(seed=args.seed, day_origin=data.day_origin,
                                      **spec.TRAIN_CONFIG)
            table = lgbg.EmbeddingTable.fallback(data.vocab, config.d, config.seed)
        else:
            with recorder.span("model.load"):
                model = lgbg.Model.load(os.path.join(inputs, "checkpoint.json"),
                                        vocab=data.vocab)
            config = model.config
            table = model.table
        samples = data.samples(config.span, table)
    setup_s = time.perf_counter() - _T0
    recorder.close(setup_span)
    if args.setup_only:
        _write(args.out, {"setup_s": setup_s})
        return 0

    hooks = Hooks(lgbg.training) if args.workload == "train_combined" else None
    rounds = []          # (items, seconds) per round
    outputs = []         # per-round outputs for the checks
    tape_ops = tensors = 0
    timed_total = 0.0
    if args.workload == "eval_frozen":
        import numpy as np
        perm = np.random.default_rng(args.seed).permutation(len(samples))
        splits = [part.tolist() for part in np.array_split(perm, spec.EVAL_SPLITS)]
    if ingest:
        with open(os.path.join(inputs, "planted.json"), encoding="utf-8") as fh:
            planted = json.load(fh)
        vocab_path = os.path.join(inputs, "vocab.json")
    while timed_total < args.seconds or len(rounds) < MIN_ROUNDS:
        i = len(rounds)
        with recorder.span("phase:between"):
            if ingest:
                log = planted["logs"][i % len(planted["logs"])]
                out_dir = os.path.join(inputs, "graphs", log.removesuffix(".jsonl"))
                shutil.rmtree(out_dir, ignore_errors=True)
                argv = ["build-graph", "--log", os.path.join(inputs, log),
                        "--vocab", vocab_path, "--out", out_dir]
            elif i > 0:
                samples = data.samples(config.span, table)
            if hooks is not None:
                hooks.splits = []
            # Each round starts from a collected heap, as a fresh process would.
            gc.collect()
        t_ops, t_tensors = recorder.tape_ops, recorder.tensors
        with recorder.span("phase:timed"):
            start = time.perf_counter()
            if args.workload == "train_combined":
                result = lgbg.run_protocol(samples, config, table, data.vocab.digest())
            elif args.workload == "eval_frozen":
                reports = [lgbg.evaluate(model, [samples[j] for j in split],
                                         task=f"task-{k + 1}")
                           for k, split in enumerate(splits)]
            else:
                code = lgbg.cli.main(argv)
            elapsed = time.perf_counter() - start
        tape_ops += recorder.tape_ops - t_ops
        tensors += recorder.tensors - t_tensors
        timed_total += elapsed
        if args.workload == "train_combined":
            sizes = [len(s["train"]) for s in hooks.splits]
            items = _train_items(sizes, config.epochs, config.val_fraction)
            outputs.append({"reports": [_report_doc(r) for r in result.reports],
                            "average": _report_doc(result.average),
                            "splits": hooks.splits})
        elif args.workload == "eval_frozen":
            items = len(samples)
            outputs.append({"reports": [_report_doc(r) for r in reports]})
        else:
            if code != 0:
                raise SystemExit(f"lgbg build-graph exited with {code}")
            items = planted["days"]
            outputs.append({"log": log, "graphs": out_dir})
        rounds.append((items, elapsed))

    import resource
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    doc = {"setup_s": setup_s, "rounds": rounds, "peak_rss_mb": peak_rss_mb,
           "outputs": outputs}
    if args.workload == "eval_frozen":
        # Per-sample probabilities, after the clock, for the output checks.
        doc["splits"] = splits
        with recorder.span("phase:after"):
            doc["samples"] = [{"subject": s.subject, "anchor_day": s.anchor_day,
                               "label": s.label,
                               "probs": model.forward(s).probs.data.tolist()}
                              for s in samples]
    elif args.workload == "train_combined":
        doc["samples"] = [[s.subject, s.anchor_day] for s in samples]
        doc["epochs"] = config.epochs
        doc["span"] = config.span
    if args.trace:
        items = sum(n for n, _ in rounds)
        trace_path = args.out.removesuffix(".json") + "-spans.json"
        recorder.dump(trace_path)
        with open(trace_path, encoding="utf-8") as fh:
            spans = json.load(fh)
        doc["per_layer"] = tracing.per_layer(spans, items, tape_ops, tensors)
        doc["spans"] = trace_path
        doc["missing_hooks"] = missing
    _write(args.out, doc)
    return 0


def _write(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
