"""Local-global behavior graphs.

Turns multi-source timestamped concept streams into per-day heterogeneous
graphs, learns attention-pooled graph representations with message passing,
relates consecutive days with self-attention, and predicts a 4-class daily
status; trained representations can be reused for grade regression.
"""

__version__ = "0.1.0"

from .config import TrainConfig
from .embeddings import EmbeddingTable
from .graphs import GlobalSample, LocalContextGraph, build_days, quantize_pam
from .model import Model
from .streams import ConceptEvent, ParsedLog, Vocabulary, parse_event_log
from .synth import ScenarioSpec, generate
from .training import evaluate, grade_regression, run_protocol, train

__all__ = [
    "ConceptEvent", "EmbeddingTable", "GlobalSample", "LocalContextGraph",
    "Model", "ParsedLog", "ScenarioSpec", "TrainConfig", "Vocabulary", "build_days",
    "evaluate", "generate", "grade_regression", "parse_event_log", "quantize_pam",
    "run_protocol", "train",
]
