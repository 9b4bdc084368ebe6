import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgbg import autograd as ag
from lgbg.autograd import Adam, Tape, Tensor
from lgbg.errors import DimensionError, NumericError, ValidationError

from reference import rows, tanh, total


def grads_of(f, params):
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    tape.backward(loss)
    return [p.grad.copy() for p in params]


# ---------------------------------------------------------------------------
# matmul


@pytest.mark.parametrize("ashape,bshape", [((1, 4), (4,)), ((3, 4), (4,))])
def test_matmul_all_arities_grad(ashape, bshape):
    rng = np.random.default_rng(7)
    a = ag.parameter(rng.uniform(-2, 2, ashape))
    b = ag.parameter(rng.uniform(-2, 2, bshape))

    def f():
        return total(ag.matmul(a, b))

    assert max(ag.finite_diff_errors(f, [a, b], eps=1e-5)) < 1e-5


@pytest.mark.parametrize("ashape,bshape", [((4,), (4, 2)), ((4,), (4,)), ((3, 4), (4, 2)),
                                           ((3, 4), (3,))])
def test_matmul_rejects_non_matrix_vector_operands(ashape, bshape):
    with pytest.raises(DimensionError):
        ag.matmul(ag.constant(np.ones(ashape)), ag.constant(np.ones(bshape)))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = ag.softmax(ag.constant([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_stability_no_overflow():
    out = ag.softmax(ag.constant([1000.0, 0.0]))
    assert out.data[0] > 0.999999
    assert out.data[1] < 1e-6
    assert np.isfinite(out.data).all()


def test_softmax_matches_direct_formula():
    z = np.array([1.0, 2.0, 3.0])
    direct = np.exp(z) / np.exp(z).sum()
    assert np.allclose(ag.softmax(ag.constant(z)).data, direct, atol=1e-15)


def test_softmax_empty_input():
    with pytest.raises(DimensionError):
        ag.softmax(ag.constant(np.zeros(0)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(-100, 100))
def test_softmax_sums_to_one_and_shift_invariant(values, shift):
    base = ag.softmax(ag.constant(values)).data
    shifted = ag.softmax(ag.constant(np.array(values) + shift)).data
    assert abs(base.sum() - 1.0) <= 1e-12
    assert np.all(base > 0)
    assert np.allclose(base, shifted, atol=1e-12)


def test_softmax_gradient():
    rng = np.random.default_rng(1)
    z = ag.parameter(rng.uniform(-3, 3, 6))
    target = rng.uniform(0, 1, 6)

    def f():
        return total(ag.mul(ag.softmax(z), ag.constant(target)))

    assert max(ag.finite_diff_errors(f, [z], eps=1e-5)) < 1e-6


# ---------------------------------------------------------------------------
# finite_diff_errors itself


def test_finite_diff_quadratic_exact():
    x = ag.parameter([3.0])

    def f():
        return total(ag.mul(x, x))

    # analytic 6 vs central difference of x^2 (exact for quadratics)
    assert max(ag.finite_diff_errors(f, [x], eps=1e-5)) < 1e-8


def test_finite_diff_constant_function():
    x = ag.parameter([2.0, 5.0])

    def f():
        return ag.add(ag.mean(x), ag.neg(ag.mean(x)))

    assert max(ag.finite_diff_errors(f, [x], eps=1e-5)) == 0.0


def test_finite_diff_eps_bounds():
    x = ag.parameter([1.0])
    with pytest.raises(ValidationError):
        ag.finite_diff_errors(lambda: total(x), [x], eps=1e-2)


# ---------------------------------------------------------------------------
# accumulation semantics


def test_diamond_graph_sums_adjoints():
    x = ag.parameter([2.0])

    def f():
        u = ag.mul(x, 2.0)
        v = ag.mul(x, 3.0)
        return total(ag.mul(u, v))  # y = 6 x^2, dy/dx = 12 x

    (g,) = grads_of(f, [x])
    assert np.allclose(g, [24.0], atol=1e-12)


def test_reuse_across_samples_accumulates():
    x = ag.parameter([1.0, -1.0])
    g1 = grads_of(lambda: total(ag.mul(x, x)), [x])[0]
    g2 = grads_of(lambda: ag.add(total(ag.mul(x, x)),
                                 total(ag.mul(x, x))), [x])[0]
    assert np.allclose(g2, 2 * g1, atol=1e-12)


# ---------------------------------------------------------------------------
# elementwise and shape ops, gradient sweep


def _rand(rng, shape):
    return rng.uniform(-10, 10, shape)


OPS = [
    ("add", lambda a, b: ag.add(a, b), 2, (4, 3)),
    ("mul", lambda a, b: ag.mul(a, b), 2, (4, 3)),
    ("mul_scalar", lambda a: ag.mul(a, 2.5), 1, (4, 3)),
    ("neg", ag.neg, 1, (4, 3)),
    ("tanh", tanh, 1, (4, 3)),
    ("sigmoid", ag.sigmoid, 1, (4, 3)),
    ("total", total, 1, (4, 3)),
    ("mean", ag.mean, 1, (4, 3)),
    ("col_mean", ag.col_mean, 1, (4, 3)),
    ("rows", lambda a: rows(a, 1, 3), 1, (4, 3)),
    ("pick", lambda a: ag.pick(a, 2), 1, (5,)),
    ("pick_elements", lambda a: ag.pick(a, ([0, 2, 2], [1, 0, 1])), 1, (4, 3)),
    ("stack", lambda a, b: ag.stack_rows([a, b]), 2, (3,)),
    ("concat0", lambda a, b: ag.concat([a, b], axis=0), 2, (2, 3)),
    ("concat1", lambda a, b: ag.concat([a, b], axis=1), 2, (2, 3)),
    ("matmul_t", lambda a, b: ag.matmul_t(a, b), 2, (4, 3)),
    ("sub_rowvec", lambda a: ag.sub_rowvec(a, ag.constant([1.0, -2.0, 0.5])), 1, (4, 3)),
    ("gather", lambda a: ag.gather_rows(a, [0, 2, 2, 1]), 1, (4, 3)),
    ("cols", lambda a: ag.cols(a, 1, 3), 1, (4, 3)),
    ("row_dot", ag.row_dot, 2, (4, 3)),
    ("segment_sum", lambda a: ag.segment_sum(a, [0, 2, 0, 1], 4), 1, (4, 3)),
    ("segment_sum_gathered", lambda a: ag.segment_sum(
        a, [1, 1, 0, 1, 0], 3, weights=np.array([0.5, -2.0, 1.5, 0.25, 1.0]),
        rows=[3, 0, 3, 2, 2]), 1, (4, 3)),
    ("segment_sum_weighted", lambda a, b: ag.segment_sum(
        a, [0, 1, 0, 1], 2, weights=ag.col_mean(b)), 2, (4, 4)),
    ("segment_softmax", lambda a: ag.segment_softmax(a, [0, 1, 0, 3, 0, 1], 4), 1, (6,)),
    ("softmax_rows", ag.softmax_rows, 1, (4, 3)),
    ("clamp_min", lambda a: ag.clamp_min(a, 0.5), 1, (4, 3)),
]


@pytest.mark.parametrize("name,op,arity,shape", OPS, ids=[o[0] for o in OPS])
def test_op_gradients_match_finite_differences(name, op, arity, shape):
    rng = np.random.default_rng(hash(name) % 2**32)
    params = [ag.parameter(_rand(rng, shape)) for _ in range(arity)]

    def f():
        out = op(*params)
        return out if out.data.ndim == 0 else total(tanh(out))

    assert max(ag.finite_diff_errors(f, params, eps=1e-5)) < 1e-5


RECORDING = OPS + [
    ("matmul", lambda a: ag.matmul(a, ag.constant([1.0, -2.0, 0.5])), 1, (4, 3)),
    ("log", ag.log, 1, (4, 3)),
    ("softmax", ag.softmax, 1, (5,)),
]
# segment_sum_weighted's weights come from a col_mean op of their own.
TAPE_OPS = {"segment_sum_weighted": 2}


@pytest.mark.parametrize("name,op,arity,shape", RECORDING, ids=[o[0] for o in RECORDING])
def test_op_records_only_under_a_tape_with_an_input_that_needs_a_gradient(
        name, op, arity, shape):
    rng = np.random.default_rng(3)
    values = [rng.uniform(0.5, 2.0, shape) for _ in range(arity)]
    with Tape() as tape:
        out = op(*map(ag.parameter, values))
    assert len(tape) == TAPE_OPS.get(name, 1)
    assert out.grad.shape == out.data.shape and not out.grad.any()

    with Tape() as constants:
        out = op(*map(ag.constant, values))
    assert len(constants) == 0 and out.grad is None

    out = op(*map(ag.parameter, values))
    assert ag.active_tape() is None
    assert len(tape) == TAPE_OPS.get(name, 1) and out.grad is None


def test_log_and_clamp_gradient():
    x = ag.parameter([0.5, 2.0, 4.0])

    def f():
        return total(ag.log(ag.clamp_min(x, 1.0)))

    assert max(ag.finite_diff_errors(f, [x], eps=1e-6)) < 1e-5


# ---------------------------------------------------------------------------
# error states


def test_non_finite_construction_rejected():
    with pytest.raises(NumericError):
        Tensor([1.0, np.inf])
    with pytest.raises(NumericError):
        Tensor([np.nan])


def test_log_of_nonpositive_rejected():
    with pytest.raises(NumericError):
        ag.log(ag.constant([1.0, 0.0]))


def test_add_shape_mismatch():
    with pytest.raises(DimensionError):
        ag.add(ag.constant([1.0]), ag.constant([1.0, 2.0]))


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_keeps_params():
    p = ag.parameter([1.5, -2.0])
    opt = Adam([p], lr=0.1)
    opt.zero_grad()
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)
    assert opt.step_count == 1


def test_adam_first_step_hand_trace():
    p = ag.parameter([1.0])
    opt = Adam([p], lr=0.1)
    p.grad[...] = 1.0
    opt.step()
    # bias-corrected first step moves by ~lr regardless of gradient scale
    assert abs((1.0 - p.data[0]) - 0.1) < 1e-6


def test_adam_converges_on_quadratic():
    p = ag.parameter([5.0])
    opt = Adam([p], lr=0.1)
    for _ in range(2000):
        opt.zero_grad()
        with Tape() as tape:
            loss = total(ag.mul(p, p))
        tape.backward(loss)
        opt.step()
        if abs(p.data[0]) < 0.01:
            break
    assert abs(p.data[0]) < 0.01


def test_adam_rejects_gradless_tensor():
    with pytest.raises(ValidationError):
        Adam([ag.constant([1.0])])


def test_adam_deterministic():
    def run():
        p = ag.parameter([3.0, -1.0])
        opt = Adam([p], lr=0.05)
        for _ in range(50):
            opt.zero_grad()
            with Tape() as tape:
                loss = total(ag.mul(p, p))
            tape.backward(loss)
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_adam_in_place_matches_out_of_place_formula():
    rng = np.random.default_rng(11)
    params = [ag.parameter(rng.normal(size=(3, 4))), ag.parameter(rng.normal(size=5))]
    opt = Adam(params, lr=0.01)
    moments = [(m, v) for m, v in zip(opt.m, opt.v)]
    ref = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
    b1, b2, lr, eps = opt.beta1, opt.beta2, opt.lr, opt.eps
    for t in range(1, 8):
        for i, p in enumerate(params):
            p.grad[...] = rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-4, 3)
            data, m, v = ref[i]
            m = b1 * m + (1.0 - b1) * p.grad
            v = b2 * v + (1.0 - b2) * (p.grad * p.grad)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            ref[i] = (data - lr * m_hat / (np.sqrt(v_hat) + eps), m, v)
        opt.step()
        for p, (m, v), (data, m_ref, v_ref) in zip(params, moments, ref):
            assert np.array_equal(p.data, data)
            assert np.array_equal(m, m_ref) and np.array_equal(v, v_ref)
    assert all(m is m_i and v is v_i for (m, v), m_i, v_i in zip(moments, opt.m, opt.v))
