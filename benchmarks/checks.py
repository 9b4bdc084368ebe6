"""Output checks, written apart from lgbg.

Each check returns a list of error strings (empty when the output is right).
The references are computed here from the raw log lines, the manifest and
the checkpoint's parameters, following the method's definitions: nothing is
compared against a stored copy of an earlier output.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

DAY = 86400
STREAMS = ("activity", "audio", "location")
OTHER_LOCATION = "other-location"
CHANCE = 0.25
# Mean k-split accuracy required on the planted combined signal; README.md
# gives the accuracies over several seeds that this margin is set from.
MIN_TRAIN_ACCURACY = 0.4
PROB_TOLERANCE = 1e-9
HOURS_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# raw logs and day graphs


def read_vocab(path) -> dict[str, set]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    vocab = {s: set(doc[s]) for s in STREAMS}
    vocab["location"].add(OTHER_LOCATION)
    return vocab


def read_events(path, vocab) -> tuple[list[tuple], int, int]:
    """Raw log lines -> unique (stream, concept, start, end) events, with
    unlisted locations renamed to the reserved class; also returns how many
    lines were renamed and how many repeated an earlier event."""
    events, seen, remapped, repeated = [], set(), 0, 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "format" in rec:
                continue
            stream, concept = rec["stream"], rec["concept"]
            if concept not in vocab[stream]:
                if stream != "location":
                    raise ValueError(f"{concept!r} is not a {stream} concept")
                concept = OTHER_LOCATION
                remapped += 1
            key = (stream, concept, rec["start"], rec["end"])
            if key in seen:
                repeated += 1
                continue
            seen.add(key)
            events.append(key)
    return events, remapped, repeated


def day_count(events) -> int:
    return -(-max(e[3] for e in events) // DAY) if events else 0


def clip_days(events, days: int) -> list[dict[str, list[tuple]]]:
    """Per day and stream, the (start, end, concept) pieces of every event
    that overlaps the day, clipped to it."""
    out = [{s: [] for s in STREAMS} for _ in range(days)]
    for stream, concept, start, end in events:
        for d in range(start // DAY, min(days, -(-end // DAY))):
            lo, hi = max(start, d * DAY), min(end, (d + 1) * DAY)
            if lo < hi:
                out[d][stream].append((lo, hi, concept))
    return out


def reference_graph(day: dict[str, list[tuple]]) -> tuple[dict, dict]:
    """(node hours by (stream, concept), edge weight by (src key, dst key,
    kind)) for one day, from the method's definitions: node hours are summed
    clipped durations, homogeneous edges tally consecutive pairs of distinct
    concepts, heterogeneous edges count every overlapping cross-stream pair."""
    hours: dict[tuple, float] = {}
    for stream in STREAMS:
        for lo, hi, concept in day[stream]:
            hours[(stream, concept)] = hours.get((stream, concept), 0) + (hi - lo)
    hours = {k: v / 3600.0 for k, v in hours.items()}
    edges: dict[tuple, int] = {}
    for stream in STREAMS:
        seq = sorted(day[stream])
        for (_, _, a), (_, _, b) in zip(seq, seq[1:]):
            if a != b:
                key = ((stream, a), (stream, b), "homogeneous")
                edges[key] = edges.get(key, 0) + 1
    for i, sa in enumerate(STREAMS):
        for sb in STREAMS[i + 1:]:
            for lo_a, hi_a, ca in day[sa]:
                for lo_b, hi_b, cb in day[sb]:
                    if max(lo_a, lo_b) < min(hi_a, hi_b):
                        for key in (((sa, ca), (sb, cb), "heterogeneous"),
                                    ((sb, cb), (sa, ca), "heterogeneous")):
                            edges[key] = edges.get(key, 0) + 1
    return hours, edges


# ---------------------------------------------------------------------------
# ingest_long_logs


def check_graph(doc: dict, day: dict[str, list[tuple]]) -> list[str]:
    """One dumped day graph against the reference built from the log."""
    where = f"day {doc['day_index']}"
    hours, edges = reference_graph(day)
    nodes = [(n["stream"], n["concept"]) for n in doc["nodes"]]
    errors = []
    if sorted(nodes) != sorted(hours):
        errors.append(f"{where}: nodes {sorted(nodes)} != {sorted(hours)}")
        return errors
    for n in doc["nodes"]:
        want = hours[(n["stream"], n["concept"])]
        if abs(n["attribute"] - want) > HOURS_TOLERANCE:
            errors.append(f"{where}: {n['stream']}/{n['concept']} holds "
                          f"{n['attribute']} h, the log gives {want} h")
    got = {}
    for e in doc["edges"]:
        key = (nodes[e["src"]], nodes[e["dst"]], e["kind"])
        got[key] = got.get(key, 0) + e["weight"]
    if got != edges:
        diff = sorted(set(got.items()) ^ set(edges.items()))
        errors.append(f"{where}: edges differ from the reference: {diff[:4]}")
    return errors


def read_graphs(graph_dir) -> dict[int, dict]:
    """Dumped day graphs of one `build-graph` output, by day index."""
    graphs = {}
    for path in sorted(Path(graph_dir).glob("day_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        graphs[doc["day_index"]] = doc
    return graphs


def check_ingest(log_path, vocab_path, graph_dir, planted: dict,
                 graphs: dict[int, dict] | None = None,
                 index: dict | None = None) -> list[str]:
    """Day count, every day graph and the ingest counters of one
    `build-graph` output. `graphs` and `index` replace what is read from
    `graph_dir` (the self-test passes corrupted copies)."""
    vocab = read_vocab(vocab_path)
    events, remapped, repeated = read_events(log_path, vocab)
    days = day_count(events)
    graph_dir = Path(graph_dir)
    if index is None:
        index = json.loads((graph_dir / "graphs.json").read_text(encoding="utf-8"))
    errors = []
    if remapped != planted["remapped_locations"] or repeated != planted["deduplicated"]:
        errors.append(f"the log holds {remapped} unlisted locations and {repeated} "
                      f"repeats; the generator planted {planted['remapped_locations']} "
                      f"and {planted['deduplicated']}")
    for key in ("remapped_locations", "deduplicated"):
        if index.get(key) != planted[key]:
            errors.append(f"{key} is {index.get(key)}, the generator planted {planted[key]}")
    if graphs is None:
        graphs = read_graphs(graph_dir)
    if index.get("days") != days or sorted(graphs) != list(range(days)):
        errors.append(f"{len(graphs)} graphs (index says {index.get('days')}); "
                      f"the last event implies {days} days")
        return errors
    for d, day in enumerate(clip_days(events, days)):
        errors += check_graph(graphs[d], day)
    return errors


# ---------------------------------------------------------------------------
# classification metrics


def metrics_from_confusion(cm) -> dict:
    """Accuracy and support-weighted precision, recall and F1, computed
    class by class from a confusion matrix (rows are true classes)."""
    k = len(cm)
    n = sum(sum(row) for row in cm)
    precision = recall = f1 = 0.0
    for c in range(k):
        tp = cm[c][c]
        support = sum(cm[c])
        predicted = sum(cm[r][c] for r in range(k))
        p = tp / predicted if predicted else 0.0
        r = tp / support if support else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        precision += support * p / n
        recall += support * r / n
        f1 += support * f / n
    return {"accuracy": sum(cm[c][c] for c in range(k)) / n, "precision": precision,
            "recall": recall, "f1": f1, "n": n}


def check_report(report: dict, where: str) -> list[str]:
    want = metrics_from_confusion(report["confusion"])
    errors = []
    if report["n"] != want["n"]:
        errors.append(f"{where}: n is {report['n']}, the confusion matrix holds {want['n']}")
    for key in ("accuracy", "precision", "recall", "f1"):
        if not math.isclose(report[key], want[key], rel_tol=1e-12, abs_tol=1e-12):
            errors.append(f"{where}: {key} {report[key]!r} != {want[key]!r} "
                          f"recomputed from the confusion matrix")
    return errors


def expected_samples(manifest_path, span: int) -> set[tuple[str, int]]:
    """(subject, anchor day) of every labeled day with a full span before it."""
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    return {(s["id"], int(d)) for s in manifest["subjects"]
            for d in s["labels"] if int(d) >= span - 1}


def manifest_labels(manifest_path) -> dict[tuple[str, int], int]:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    return {(s["id"], int(d)): c for s in manifest["subjects"]
            for d, c in s["labels"].items()}


# ---------------------------------------------------------------------------
# train_combined


def check_train(outputs: list[dict], universe: set, epochs: int) -> list[str]:
    """k-split protocol outputs of every round of one run."""
    errors = []
    first = json.dumps([outputs[0]["reports"], outputs[0]["average"]], sort_keys=True)
    for r, out in enumerate(outputs):
        again = json.dumps([out["reports"], out["average"]], sort_keys=True)
        if again != first:
            errors.append(f"round {r}: metrics differ from round 0 with the same seed")
        tests = [set(map(tuple, s["test"])) for s in out["splits"]]
        if sum(len(t) for t in tests) != len(universe) or set().union(*tests) != universe:
            errors.append(f"round {r}: test splits do not partition the samples")
        for i, split in enumerate(out["splits"]):
            train = set(map(tuple, split["train"]))
            if train & tests[i] or train | tests[i] != universe:
                errors.append(f"round {r} split {i}: train and test overlap or miss samples")
            losses = [h[k] for h in split["history"] for k in ("train_loss", "val_loss")
                      if h[k] is not None]
            if len(split["history"]) != epochs or not all(map(math.isfinite, losses)):
                errors.append(f"round {r} split {i}: {len(split['history'])} epochs "
                              f"(want {epochs}) or a non-finite loss")
        if len(out["reports"]) != len(out["splits"]):
            errors.append(f"round {r}: {len(out['reports'])} reports for "
                          f"{len(out['splits'])} splits")
        for i, (report, test) in enumerate(zip(out["reports"], tests)):
            errors += check_report(report, f"round {r} split {i}")
            if report["n"] != len(test):
                errors.append(f"round {r} split {i}: {report['n']} classified, "
                              f"{len(test)} in the test split")
        mean_acc = sum(rep["accuracy"] for rep in out["reports"]) / len(out["reports"])
        if not math.isclose(out["average"]["accuracy"], mean_acc, rel_tol=1e-12):
            errors.append(f"round {r}: average accuracy is not the mean over splits")
    accuracy = outputs[0]["average"]["accuracy"]
    if accuracy < MIN_TRAIN_ACCURACY:
        errors.append(f"mean accuracy {accuracy:.3f} on the planted signal is below "
                      f"{MIN_TRAIN_ACCURACY} (chance is {CHANCE})")
    return errors


# ---------------------------------------------------------------------------
# eval_frozen: a plain-numpy forward from the checkpoint's parameters


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _positions(t: int, dim: int) -> np.ndarray:
    """Sinusoidal position codes: sin at even and cos at odd coordinates,
    with frequencies 10000^(-2j/dim)."""
    out = np.zeros((t, dim))
    for i in range(t):
        for c in range(dim):
            freq = 10000.0 ** (-2 * (c // 2) / dim)
            out[i, c] = math.sin(i * freq) if c % 2 == 0 else math.cos(i * freq)
    return out


class ReferenceModel:
    """The paper's local graph network and cross-day attention, evaluated
    directly from a checkpoint file."""

    def __init__(self, checkpoint_path):
        doc = json.loads(Path(checkpoint_path).read_text(encoding="utf-8"))
        self.config = doc["config"]
        self.p = {k: np.array(v["data"]).reshape(v["shape"])
                  for k, v in doc["params"].items()}
        emb = doc["embeddings"]
        self.embedding = dict(zip(emb["names"], np.array(emb["vectors"])))

    def day_rep(self, hours: dict, edges: dict) -> np.ndarray:
        p, cfg = self.p, self.config
        if not hours:
            return p["gnn.empty_day"]
        keys = sorted(hours)
        pos = {k: i for i, k in enumerate(keys)}
        kept = {k: w for k, w in edges.items()
                if cfg["use_homogeneous" if k[2] == "homogeneous" else "use_heterogeneous"]}
        # h_i^0: the concept embedding scaled by the concept's share of the day.
        x = np.stack([self.embedding[c] * hours[(s, c)] / 24.0 for s, c in keys])
        adj = {}
        for kind in ("homogeneous", "heterogeneous"):
            a = np.zeros((len(keys), len(keys)))
            for (src, dst, k), w in kept.items():
                if k == kind:
                    a[pos[dst], pos[src]] += w
            totals = a.sum(axis=1, keepdims=True)
            adj[kind] = np.divide(a, totals, out=np.zeros_like(a), where=totals > 0)
        for layer in range(cfg["layers"]):
            homo, het = adj["homogeneous"] @ x, adj["heterogeneous"] @ x
            new = np.zeros_like(x)
            for i, (stream, _) in enumerate(keys):
                w = f"gnn.layer{layer}.{stream}."
                new[i] = p[w + "self"] @ x[i] + p[w + "homo"] @ homo[i] + p[w + "het"] @ het[i]
            x = new if cfg["linear_layers"] else np.tanh(new)
        g_s = _softmax(x @ p["gnn.node_query"]) @ x
        if kept:
            pairs = [(pos[src], pos[dst]) for src, dst, _ in kept]
            e = np.stack([p["gnn.edge_proj"] @ np.concatenate([x[a], x[b]]) for a, b in pairs])
            g_e = _softmax(e @ (p["gnn.edge_query_proj"] @ g_s)) @ e
        else:
            g_e = np.zeros(p["gnn.edge_proj"].shape[0])
        return p["gnn.rep_proj"] @ np.concatenate([g_e, g_s])

    def probabilities(self, days: list[tuple[dict, dict]]) -> np.ndarray:
        p = self.p
        g = np.stack([self.day_rep(h, e) for h, e in days])
        dp = g.shape[1]
        gp = g + _positions(len(days), dp)
        q = gp @ p["temporal.query_proj"].T
        k = gp @ p["temporal.key_proj"].T
        gamma = _softmax(q @ k.T / math.sqrt(dp))
        g_star = (gamma @ (g @ p["temporal.value_proj"].T)).sum(axis=0)
        return _softmax(p["classifier.weights"] @ g_star + p["classifier.bias"])


def confusion(pairs, k: int = 4) -> list[list[int]]:
    cm = [[0] * k for _ in range(k)]
    for true, pred in pairs:
        cm[true][pred] += 1
    return cm


def check_eval(doc: dict, data_dir, checkpoint_path, reference_every: int) -> list[str]:
    """Frozen-checkpoint evaluation of one run: every round's split reports,
    the per-sample probabilities, and a reference forward on every
    `reference_every`-th sample."""
    data_dir = Path(data_dir)
    ref = ReferenceModel(checkpoint_path)
    span = ref.config["span"]
    labels = manifest_labels(data_dir / "dataset.json")
    samples = doc["samples"]
    keys = [(s["subject"], s["anchor_day"]) for s in samples]
    errors = []
    if sorted(keys) != sorted(expected_samples(data_dir / "dataset.json", span)):
        errors.append("the evaluated samples are not the labeled days with a full span")
    for s in samples:
        if s["label"] != labels[(s["subject"], s["anchor_day"])]:
            errors.append(f"{s['subject']}:{s['anchor_day']} carries label {s['label']}")
        if abs(sum(s["probs"]) - 1.0) > PROB_TOLERANCE:
            errors.append(f"{s['subject']}:{s['anchor_day']} probabilities sum to "
                          f"{sum(s['probs'])!r}")
    flat = sorted(j for split in doc["splits"] for j in split)
    if flat != list(range(len(samples))):
        errors.append("the splits do not classify every sample exactly once")
        return errors
    predicted = [(s["label"], int(np.argmax(s["probs"]))) for s in samples]
    whole = confusion(predicted)
    for r, out in enumerate(doc["outputs"]):
        total = [[0] * 4 for _ in range(4)]
        for i, (report, split) in enumerate(zip(out["reports"], doc["splits"])):
            errors += check_report(report, f"round {r} split {i}")
            if report["confusion"] != confusion(predicted[j] for j in split):
                errors.append(f"round {r} split {i}: confusion differs from the "
                              f"per-sample predictions")
            for a in range(4):
                for b in range(4):
                    total[a][b] += report["confusion"][a][b]
        if total != whole:
            errors.append(f"round {r}: split confusions sum to {total}, the whole "
                          f"set gives {whole}")
    vocab = read_vocab(data_dir / "vocab.json")
    by_subject = {}
    for j in range(0, len(samples), reference_every):
        subject, anchor = keys[j]
        if subject not in by_subject:
            events, _, _ = read_events(data_dir / "logs" / f"{subject}.jsonl", vocab)
            by_subject[subject] = clip_days(events, max(day_count(events), anchor + 1))
        days = [reference_graph(by_subject[subject][d])
                for d in range(anchor - span + 1, anchor + 1)]
        want = ref.probabilities(days)
        got = np.array(samples[j]["probs"])
        if np.max(np.abs(want - got)) > PROB_TOLERANCE:
            errors.append(f"{subject}:{anchor}: probabilities {got.tolist()} differ "
                          f"from the reference {want.tolist()}")
    return errors


# ---------------------------------------------------------------------------
# self-test: each check must reject a corrupted output


def corrupt_train(outputs: list[dict]) -> list[dict]:
    """A flipped prediction: one correct test sample of split 0 moved to a
    wrong class in its confusion matrix, the reported scores left as they are."""
    bad = copy.deepcopy(outputs)
    cm = bad[0]["reports"][0]["confusion"]
    c = max(range(len(cm)), key=lambda i: cm[i][i])
    cm[c][c] -= 1
    cm[c][(c + 1) % len(cm)] += 1
    return bad


def corrupt_eval(doc: dict) -> dict:
    """A flipped prediction: the top class of the first sample swapped with
    another class, its probabilities still summing to 1."""
    bad = copy.deepcopy(doc)
    probs = bad["samples"][0]["probs"]
    top = int(np.argmax(probs))
    other = (top + 1) % len(probs)
    probs[top], probs[other] = probs[other], probs[top]
    return bad


def corrupt_graphs(graph_dir) -> tuple[dict, dict, dict]:
    """A dropped edge and a wrong counter: (graphs with the first edge of the
    first day that has one removed, the intact index, an index whose
    deduplicated counter is off by one)."""
    graph_dir = Path(graph_dir)
    graphs = read_graphs(graph_dir)
    day = next(d for d in sorted(graphs) if graphs[d]["edges"])
    graphs[day]["edges"].pop(0)
    index = json.loads((graph_dir / "graphs.json").read_text(encoding="utf-8"))
    wrong = dict(index, deduplicated=index["deduplicated"] + 1)
    return graphs, index, wrong
