"""The lgbg benchmark: three workloads, each run in fresh processes.

    python3 benchmarks/run.py [--workload <name>|all] [--seed <n>]
                              [--seconds <s>] [--trace 0|1]

Run from the root of a source checkout; lgbg is imported from its `src`.
For each workload this generates the inputs in one process, times set-up in
several fresh processes, runs the workload's timed phase in one more, checks
the outputs against references computed here, and confirms that each check
rejects a corrupted output. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics, or with `--trace 1` the per-layer ones). README.md describes the
workloads and metrics.
"""

import os

# One BLAS/OpenMP thread in this process and every child: a second OpenBLAS
# thread on a 2-core machine makes timings swing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("train_combined", "eval_frozen", "ingest_long_logs")
SETUP_PROBES = 4           # extra set-up-only processes per run
REFERENCE_EVERY = 70       # eval_frozen: reference forward on 16 of 1120 samples


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(script: str, *args, timeout: float) -> None:
    """Run one benchmark script in a fresh interpreter; its stdout goes to
    our stderr so that the result line stays last on stdout."""
    subprocess.run([sys.executable, str(HERE / script), *map(str, args)],
                   env=_env(), cwd=ROOT, stdout=sys.stderr, timeout=timeout, check=True)


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check(workload: str, doc: dict, inputs: Path) -> list[str]:
    """Output checks of one run, then the self-test: each check must reject
    a corrupted copy of this run's output."""
    if workload == "train_combined":
        universe = checks.expected_samples(inputs / "data" / "dataset.json", doc["span"])
        errors = checks.check_train(doc["outputs"], universe, doc["epochs"])
        if set(map(tuple, doc["samples"])) != universe:
            errors.append("the built samples are not the labeled days with a full span")
        corrupted = [("flipped prediction",
                      checks.check_train(checks.corrupt_train(doc["outputs"]),
                                         universe, doc["epochs"]))]
    elif workload == "eval_frozen":
        args = (inputs / "data", inputs / "checkpoint.json", REFERENCE_EVERY)
        errors = checks.check_eval(doc, *args)
        corrupted = [("flipped prediction",
                      checks.check_eval(checks.corrupt_eval(doc), *args))]
    else:
        planted = _read(inputs / "planted.json")
        last = {out["log"]: out["graphs"] for out in doc["outputs"]}
        errors = []
        for log, graphs in last.items():
            errors += checks.check_ingest(inputs / log, inputs / "vocab.json", graphs,
                                          planted)
        log, graphs = next(iter(last.items()))
        dropped, index, wrong = checks.corrupt_graphs(graphs)
        ingest = (inputs / log, inputs / "vocab.json", graphs, planted)
        corrupted = [("dropped edge", checks.check_ingest(*ingest, graphs=dropped,
                                                          index=index)),
                     ("wrong counter", checks.check_ingest(*ingest, index=wrong))]
    for name, found in corrupted:
        if not found:
            errors.append(f"self-test: the check passed a {name}")
    return errors


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "in"
    try:
        _python("inputs.py", "--workload", workload, "--seed", seed, "--out", inputs,
                timeout=30)
        common = ["--workload", workload, "--inputs", inputs, "--seed", seed,
                  "--seconds", seconds]
        setups = []
        if not trace:
            for i in range(SETUP_PROBES):
                out = work / f"setup{i}.json"
                _python("workload.py", *common, "--out", out, "--setup-only", timeout=15)
                setups.append(_read(out)["setup_s"])
        out = work / "result.json"
        _python("workload.py", *common, "--trace", trace, "--out", out,
                timeout=seconds + 60)
        doc = _read(out)
        errors = _check(workload, doc, inputs)
        if trace:
            kept = HERE / ".work" / f"spans-{workload}-{seed}.json"
            shutil.move(doc["spans"], kept)
            print(f"{workload}: spans written to {kept.relative_to(ROOT)}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print(f"{workload}: CHECK FAILED: {e}", file=sys.stderr)
    rates = [items / secs for items, secs in doc["rounds"]]
    attempted = sum(n for n, _ in doc["rounds"])
    throughput = attempted / sum(secs for _, secs in doc["rounds"])
    if trace:
        metrics = doc["per_layer"]
        for hook in doc["missing_hooks"]:
            print(f"{workload}: no {hook} to trace; its layer reads 0", file=sys.stderr)
        print(f"{workload}: traced throughput {throughput:.4f} items/s", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [doc["setup_s"]]), "unit": "s"},
            "throughput": {"value": throughput, "unit": "items/s"},
            "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MiB"},
        }
    print(f"{workload}: {len(rates)} rounds, item rates "
          + " ".join(f"{r:.2f}" for r in rates), file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": 0, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lgbg" / "__init__.py").is_file():
        print(f"error: no lgbg source under {ROOT / 'src'}; run from the root of a "
              f"source checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        for metric, m in results[name]["metrics"].items():
            print(f"{name:18s} {metric:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": v for n, r in results.items()
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
