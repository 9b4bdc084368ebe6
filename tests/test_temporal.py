import numpy as np
import pytest

from lgbg import autograd as ag
from lgbg.errors import ValidationError
from lgbg.temporal import (TemporalParams, classify, position_embedding,
                           position_table, span_attention)


def make_params(config, seed=0):
    return TemporalParams(config, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# position embeddings


def test_position_zero_is_sin0_cos1():
    pe = position_embedding(0, 8)
    assert np.array_equal(pe[0::2], np.zeros(4))
    assert np.array_equal(pe[1::2], np.ones(4))


def test_position_values_bounded():
    for i in range(16):
        assert np.all(np.abs(position_embedding(i, 64, t_max=16)) <= 1.0)


def test_consecutive_positions_differ():
    table = position_table(8, 64)
    assert np.max(np.abs(table[1] - table[2])) > 1e-3


def test_position_range_error():
    with pytest.raises(ValidationError):
        position_embedding(64, 16, t_max=64)
    with pytest.raises(ValidationError):
        position_embedding(-1, 16)


# ---------------------------------------------------------------------------
# global attention


def test_single_day_attention_is_identity(small_config):
    params = make_params(small_config, seed=1)
    rng = np.random.default_rng(3)
    g1 = ag.constant(rng.uniform(-1, 1, small_config.dp))
    g_star, attention = span_attention(ag.stack_rows([g1]), [1], params, small_config)
    assert np.array_equal(attention[0], [[1.0]])
    assert np.allclose(g_star.data[0], params.value_proj.data @ g1.data, atol=1e-12)


def test_identical_reps_and_positions_uniform_rows(small_config):
    params = make_params(small_config, seed=2)
    params.positions = np.zeros_like(params.positions)
    rep = ag.constant(np.full(small_config.dp, 0.3))
    _, attention = span_attention(ag.stack_rows([rep, rep, rep]), [3], params, small_config)
    assert np.allclose(attention[0], 1 / 3, atol=1e-12)


def attention_oracle(reps, params, dp):
    """Independent dense evaluation of the score/softmax/value chain."""
    t = len(reps)
    gp = np.stack(reps) + params.positions[:t]
    scores = np.zeros((t, t))
    for i in range(t):
        for j in range(t):
            scores[i, j] = (params.query_proj.data @ gp[i]) @ (params.key_proj.data @ gp[j])
    scores /= np.sqrt(dp)
    gamma = np.exp(scores - scores.max(axis=1, keepdims=True))
    gamma /= gamma.sum(axis=1, keepdims=True)
    attended = np.zeros((t, dp))
    for i in range(t):
        for j in range(t):
            attended[i] += gamma[i, j] * (params.value_proj.data @ reps[j])
    return attended.sum(axis=0), gamma


def test_three_day_attention_matches_dense_oracle(small_config):
    params = make_params(small_config, seed=4)
    rng = np.random.default_rng(5)
    reps = [rng.uniform(-2, 2, small_config.dp) for _ in range(3)]
    g_star, attention = span_attention(ag.constant(np.stack(reps)), [3], params, small_config)
    want_g, want_gamma = attention_oracle(reps, params, small_config.dp)
    assert np.allclose(g_star.data[0], want_g, atol=1e-12)
    assert np.allclose(attention[0], want_gamma, atol=1e-12)


def test_gamma_rows_are_distributions(small_config):
    params = make_params(small_config, seed=6)
    rng = np.random.default_rng(7)
    for scale in (1.0, 17.0):
        reps = [ag.constant(scale * rng.uniform(-1, 1, small_config.dp))
                for _ in range(4 if small_config.span >= 4 else 3)]
        span = reps[:small_config.span]
        _, attention = span_attention(ag.stack_rows(span), [len(span)], params, small_config)
        sums = attention[0].sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert np.all(attention[0] > 0)


def test_g_star_invariant_to_summation_order(small_config):
    # g* is one segment sum over every attended (i, j) pair of the span; it
    # must equal the oracle's row-by-row sum of the attended matrix, checked
    # with zeroed positions.
    params = make_params(small_config, seed=8)
    params.positions = np.zeros_like(params.positions)
    rng = np.random.default_rng(9)
    reps = [rng.uniform(-1, 1, small_config.dp) for _ in range(3)]
    base, _ = attention_oracle(reps, params, small_config.dp)
    g_star, _ = span_attention(ag.constant(np.stack(reps)), [3], params, small_config)
    assert np.allclose(g_star.data[0], base, atol=1e-12)


def test_empty_span_rejected(small_config):
    with pytest.raises(ValidationError):
        span_attention(ag.constant(np.zeros((0, small_config.dp))), [],
                       make_params(small_config), small_config)


# ---------------------------------------------------------------------------
# classifier


def test_classify_zero_everything_uniform(small_config):
    params = make_params(small_config, seed=10)
    params.class_weights.data[...] = 0.0
    params.class_bias.data[...] = 0.0
    probs = classify(ag.constant(np.zeros((1, small_config.dp))), params)
    assert np.allclose(probs.data, 0.25, atol=1e-15)


def test_classify_saturates_on_large_logit(small_config):
    params = make_params(small_config, seed=11)
    params.class_weights.data[...] = 0.0
    params.class_bias.data[...] = np.array([50.0, 0.0, 0.0, 0.0])
    probs = ag.gather_rows(classify(ag.constant(np.zeros((1, small_config.dp))), params), [0])
    assert probs.data[0, 0] > 0.99
    assert abs(probs.data.sum() - 1.0) <= 1e-12


def test_classify_argmax_matches_logits(small_config):
    params = make_params(small_config, seed=12)
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = rng.uniform(-3, 3, small_config.dp)
        logits = params.class_weights.data @ g + params.class_bias.data
        probs = classify(ag.constant(g[None, :]), params)
        assert int(np.argmax(probs.data)) == int(np.argmax(logits))


def test_attention_gradients(small_config):
    params = make_params(small_config, seed=14)
    rng = np.random.default_rng(15)
    reps = [ag.parameter(rng.uniform(-1, 1, small_config.dp)) for _ in range(3)]
    tensors = [params.query_proj, params.key_proj, params.value_proj,
               params.class_weights, params.class_bias] + reps

    def f():
        g_star, _ = span_attention(ag.stack_rows(reps), [len(reps)], params, small_config)
        probs = classify(g_star, params)
        return ag.neg(ag.log(ag.pick(probs, (0, 2))))

    assert max(ag.finite_diff_errors(f, tensors, eps=1e-5)) < 1e-4
