"""Run configuration: one flat record shared by the model, trainer and CLI.

Config files are flat JSON objects whose keys mirror the CLI flags
one-to-one (dashes and underscores are interchangeable); flag values win
over file values, and the effective config is echoed into every output.
Files are read, and every value is checked against its field's type, by
`lgbg.schema`: an unknown key is a `ValidationError`, a value of the wrong
type (a bool for a number, `NaN`, a string) a `ParseError`.
"""

from __future__ import annotations

import json
import dataclasses
from dataclasses import asdict, dataclass

from .errors import ValidationError
from .schema import build, read_json, write_text

# Largest accepted model and run sizes. They bound the memory of one batch's
# graph union and its tape, so an oversized config exits 2 before allocating.
SIZE_LIMITS = {"d": 512, "de": 512, "dp": 512, "layers": 8, "span": 64,
               "batch_size": 1024}


@dataclass
class TrainConfig:
    # model dimensions
    d: int = 50            # node state size
    de: int = 32           # edge embedding size
    dp: int = 64           # graph representation size
    layers: int = 3        # message passing layers (m)
    span: int = 3          # days per sample (T)
    # message passing ablation / linearity knobs
    use_homogeneous: bool = True
    use_heterogeneous: bool = True
    linear_layers: bool = False
    # optimization
    lam: float = 0.1       # node-variance loss trade-off
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    patience: int = 5
    val_fraction: float = 0.1
    # protocols
    splits: int = 10
    knn_k: int = 3
    day_origin: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ValidationError(f"lambda {self.lam} must be >= 0")
        if self.splits < 2:
            raise ValidationError(f"split count {self.splits} must be >= 2")
        for name in ("d", "de", "dp", "span", "epochs", "batch_size", "patience", "knn_k"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        if self.layers < 0:
            raise ValidationError("layers must be >= 0")
        for name, limit in SIZE_LIMITS.items():
            if getattr(self, name) > limit:
                raise ValidationError(f"{name} {getattr(self, name)} must be <= {limit}")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if not 0 <= self.val_fraction < 1:
            raise ValidationError(f"val_fraction {self.val_fraction} must be in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    def replace(self, **kw) -> "TrainConfig":
        return dataclasses.replace(self, **kw)


_ALIASES = {"lambda": "lam", "m": "layers", "d_e": "de", "d_p": "dp"}


def _normalize_key(key: str) -> str:
    key = key.replace("-", "_")
    return _ALIASES.get(key, key)


def config_from_dict(values: dict, base: TrainConfig | None = None) -> TrainConfig:
    """`base` (default: the defaults) with `values` laid over it; a `format`
    key is ignored."""
    renamed = {_normalize_key(key): value for key, value in values.items()}
    renamed.pop("format", None)
    return build(TrainConfig, (base or TrainConfig()).to_dict() | renamed, "config")


def read_config(path) -> dict:
    """A config file's values keyed by field name, not yet checked (that is
    `config_from_dict`'s work)."""
    values = {_normalize_key(key): value
              for key, value in read_json(path, "config file").items()}
    values.pop("format", None)
    return values


def save_config(config: TrainConfig, path) -> None:
    write_text(path, json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
