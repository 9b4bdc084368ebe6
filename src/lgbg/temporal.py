"""Position-aware self-attention across a span of day representations.

Pairwise scores f(g_i, g_j) = [W_q(g_i+p_i)]^T [W_p(g_j+p_j)] are scaled by
sqrt(dp) and row-softmaxed; each day's attended vector g'_i = sum_j y_ij W_g g_j,
and the summed g* feeds a single fully-connected softmax classifier.

A batch of spans is one matrix of day rows, span after span. Each day
attends to the days of its own span only: the (i, j) pairs of every span are
listed once, and one segment softmax per query day normalizes them, so a
batch costs the same few ops whatever the number of spans in it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import TrainConfig
from .errors import DimensionError, ValidationError
from .graphs import N_CLASSES


def position_embedding(i: int, dim: int, t_max: int = 64) -> np.ndarray:
    """Fixed sinusoidal encoding: pairs of sin/cos at geometric frequencies."""
    if not 0 <= i < t_max:
        raise ValidationError(f"position {i} outside 0..{t_max - 1}")
    pe = np.zeros(dim)
    half = (dim + 1) // 2
    freqs = np.exp(-np.log(10000.0) * (2 * np.arange(half)) / dim)
    pe[0::2] = np.sin(i * freqs)
    pe[1::2] = np.cos(i * freqs[: dim // 2])
    return pe


def position_table(t_max: int, dim: int) -> np.ndarray:
    return np.stack([position_embedding(i, dim, t_max) for i in range(t_max)])


class TemporalParams(ag.Parameters):
    """Trainable tensors of the cross-day attention and the classifier head,
    each named where it is made."""

    def __init__(self, config: TrainConfig, rng: np.random.Generator):
        super().__init__()
        dp = config.dp
        self.query_proj = self.make("temporal.query_proj", ag.glorot(rng, dp, dp))  # W_q
        self.key_proj = self.make("temporal.key_proj", ag.glorot(rng, dp, dp))      # W_p
        self.value_proj = self.make("temporal.value_proj", ag.glorot(rng, dp, dp))  # W_g
        self.class_weights = self.make("classifier.weights", ag.glorot(rng, N_CLASSES, dp))
        self.class_bias = self.make("classifier.bias", np.zeros(N_CLASSES))
        self.positions = position_table(max(config.span, 8), dp)


def span_attention(days: Tensor, spans: Sequence[int], params: TemporalParams,
                   config: TrainConfig) -> tuple[Tensor, list[np.ndarray]]:
    """Fuse each span's day representations into its g* with scaled
    dot-product attention. `days` holds spans[b] rows for span b, span after
    span; returns g* with one row per span and each span's T x T attention."""
    spans = np.asarray(spans, dtype=np.intp)
    if spans.size < 1 or spans.min() < 1:
        raise ValidationError("need at least one day representation per span")
    if spans.max() > params.positions.shape[0]:
        raise DimensionError(f"span of {spans.max()} days exceeds the "
                             f"{params.positions.shape[0]} positions")
    start = np.cumsum(spans) - spans                 # first row of each span
    position = np.arange(spans.sum()) - np.repeat(start, spans)
    # Every (query i, key j) pair within a span, span by span, i-major.
    pairs = spans * spans
    pair_span = np.repeat(np.arange(spans.size), pairs)
    pair = np.arange(pair_span.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    query = start[pair_span] + pair // spans[pair_span]
    key = start[pair_span] + pair % spans[pair_span]

    gp = ag.add(days, ag.constant(params.positions[position]))
    q = ag.matmul_t(gp, params.query_proj)
    k = ag.matmul_t(gp, params.key_proj)
    scores = ag.mul(ag.row_dot(ag.gather_rows(q, query), ag.gather_rows(k, key)),
                    1.0 / np.sqrt(config.dp))
    gamma = ag.segment_softmax(scores, query, position.size)
    values = ag.matmul_t(days, params.value_proj)
    # g* sums every attended row of the span: sum_i sum_j y_ij W_g g_j.
    g_star = ag.segment_sum(values, pair_span, spans.size, weights=gamma, rows=key)
    attention = [a.reshape(t, t) for a, t in
                 zip(np.split(gamma.data, np.cumsum(pairs)[:-1]), spans.tolist())]
    return g_star, attention


def classify(g_star: Tensor, params: TemporalParams) -> Tensor:
    """Class probabilities from pooled representations, one row per row of
    `g_star`."""
    bias = ag.stack_rows([params.class_bias] * g_star.data.shape[0])
    return ag.softmax_rows(ag.add(ag.matmul_t(g_star, params.class_weights), bias))
