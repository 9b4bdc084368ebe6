"""Input generation for the benchmark workloads, run in its own process.

    python3 benchmarks/inputs.py --workload <name> --seed <n> --out <dir>

`train_combined` and `eval_frozen` get a planted `combined` scenario written
by `lgbg synth`; `eval_frozen` also gets a checkpoint of a freshly seeded
model. `ingest_long_logs` gets year-long event logs from the generator below,
whose shape (subjects, days, events per day, planted remaps and duplicates)
is fixed and whose content alone follows the seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import lgbg
import lgbg.cli

SCENARIOS = {
    # 4 subjects x 14 days -> 48 samples; small enough for several whole
    # k-split protocols per run.
    "train_combined": {"subjects": 4, "days": 14},
    # The acceptance workload: 40 subjects x 30 days -> 1120 samples.
    "eval_frozen": {"subjects": 40, "days": 30},
}

TRAIN_CONFIG = {"epochs": 5, "patience": 5, "lr": 1e-2, "splits": 5}
EVAL_SPLITS = 10

# ingest_long_logs: every count below is independent of the seed.
INGEST_SUBJECTS = 2
INGEST_DAYS = 365
IN_VOCAB_LOCATIONS = tuple(f"place-{i:02d}" for i in range(24))
OOV_LOCATIONS = tuple(f"unlisted-{i:02d}" for i in range(40))
LOCATION_VISITS = 6        # daytime visits, one of them to an unlisted place
ACTIVITY_SEGMENTS = 8
AUDIO_SEGMENTS = 8
DUPLICATES_PER_DAY = 1
ACTIVITY = ("stationary", "walking", "running", "unknown")
AUDIO = ("silence", "voice", "noise", "other")
DAY = 86400
H = 3600


def _segments(rng: random.Random, lo: int, hi: int, count: int,
              concepts, min_len: int = 600) -> list[tuple[str, int, int]]:
    """`count` back-to-back, non-overlapping segments of [lo, hi) with a
    short gap after each, every one at least `min_len` seconds long."""
    span = hi - lo - count * min_len
    cuts = sorted(rng.randrange(0, span) for _ in range(count - 1))
    bounds = [0] + cuts + [span]
    out = []
    for i in range(count):
        start = lo + bounds[i] + i * min_len
        end = lo + bounds[i + 1] + (i + 1) * min_len - rng.randrange(0, 120)
        out.append((rng.choice(concepts), start, end))
    return out


def ingest_log_lines(seed: int, subject: int) -> list[str]:
    """One subject's year: location visits (one unlisted place a day and a
    night stay straddling midnight), activity and audio segments, and one
    exact duplicate line a day, shuffled within the day."""
    rng = random.Random(f"{seed}:{subject}")
    lines = [json.dumps({"format": 1})]
    for d in range(INGEST_DAYS):
        base = d * DAY
        records = []
        visits = _segments(rng, base + 7 * H, base + 22 * H, LOCATION_VISITS,
                           IN_VOCAB_LOCATIONS)
        oov = rng.randrange(LOCATION_VISITS)
        for i, (concept, start, end) in enumerate(visits):
            if i == oov:
                concept = rng.choice(OOV_LOCATIONS)
            records.append(("location", concept, start, end))
        # The night stay runs into the next morning except on the last day,
        # so the last event ends inside day INGEST_DAYS - 1.
        night_end = base + DAY + 6 * H if d + 1 < INGEST_DAYS else base + 23 * H + 1800
        records.append(("location", rng.choice(IN_VOCAB_LOCATIONS),
                        base + 22 * H + 1200, night_end))
        for stream, concepts, count in (("activity", ACTIVITY, ACTIVITY_SEGMENTS),
                                        ("audio", AUDIO, AUDIO_SEGMENTS)):
            for concept, start, end in _segments(rng, base + 6 * H + 1800,
                                                 base + 23 * H, count, concepts):
                records.append((stream, concept, start, end))
        day_lines = [json.dumps({"stream": s, "concept": c, "start": a, "end": b},
                                sort_keys=True) for s, c, a, b in records]
        listed = [i for i, r in enumerate(records) if r[1] not in OOV_LOCATIONS]
        for _ in range(DUPLICATES_PER_DAY):
            day_lines.append(day_lines[rng.choice(listed)])
        rng.shuffle(day_lines)
        lines.extend(day_lines)
    return lines


def write_ingest(seed: int, out: Path) -> None:
    vocab = {"format": 1, "activity": list(ACTIVITY), "audio": list(AUDIO),
             "location": list(IN_VOCAB_LOCATIONS)}
    (out / "vocab.json").write_text(json.dumps(vocab, indent=2) + "\n", encoding="utf-8")
    logs = []
    for s in range(INGEST_SUBJECTS):
        path = out / f"subject_{s}.jsonl"
        path.write_text("\n".join(ingest_log_lines(seed, s)) + "\n", encoding="utf-8")
        logs.append(path.name)
    planted = {"logs": logs, "days": INGEST_DAYS,
               "remapped_locations": INGEST_DAYS,
               "deduplicated": INGEST_DAYS * DUPLICATES_PER_DAY}
    (out / "planted.json").write_text(json.dumps(planted, indent=2) + "\n",
                                      encoding="utf-8")


def write_scenario(workload: str, seed: int, out: Path) -> None:
    spec = {"format": 1, "mechanism": "combined", "seed": seed, **SCENARIOS[workload]}
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec) + "\n", encoding="utf-8")
    code = lgbg.cli.main(["synth", "--spec", str(spec_path), "--out", str(out / "data")])
    if code != 0:
        raise SystemExit(f"lgbg synth exited with {code}")
    if workload == "eval_frozen":
        config = lgbg.TrainConfig(seed=seed)
        vocab = lgbg.Vocabulary.load(out / "data" / "vocab.json")
        table = lgbg.EmbeddingTable.fallback(vocab, config.d, config.seed)
        lgbg.Model(config, table, vocab.digest()).save(out / "checkpoint.json")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == "ingest_long_logs":
        write_ingest(args.seed, out)
    else:
        write_scenario(args.workload, args.seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
